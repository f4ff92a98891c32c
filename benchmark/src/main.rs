//! The serving benchmark's harness: generates inputs from `--seed`,
//! drives a live `triq-cli serve` child over loopback, checks its
//! answers, and prints the metrics `BENCHMARK.json` names. See
//! `benchmark/README.md`.

mod client;
mod compare;
mod gen;
mod json;
mod measure;
mod reference;
mod report;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Value;
use workloads::{Config, Workload, DEFAULT_SECONDS};

const USAGE: &str = "usage:
  triq-benchmark --cli <triq-cli> [--workload hot_read|adhoc_query|write_mix|bulk_load]
                 [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
  triq-benchmark --compare A.json B.json [--bench BENCHMARK.json]";

/// `--smoke`: operation counts ÷ 10 (and a ≈2k-triple graph, two rounds).
const SMOKE_SECONDS: f64 = DEFAULT_SECONDS / 10.0;

struct Args {
    cli: Option<PathBuf>,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    bench: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cli: None,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        compare: None,
        bench: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--cli" => args.cli = Some(value("a path")?.into()),
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = value("a directory")?.into(),
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            "--bench" => args.bench = value("a path")?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn metrics_json(
    table: &[(&str, &str)],
    values: &std::collections::BTreeMap<&str, f64>,
) -> Result<Value, String> {
    table
        .iter()
        .map(|(name, unit)| {
            let v = values
                .get(name)
                .ok_or(format!("metric {name} was not computed"))?;
            Ok((
                *name,
                Value::obj([("value", Value::Num(*v)), ("unit", Value::str(*unit))]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()
        .map(Value::obj)
}

/// Runs one workload; returns its result record (the driver's last line
/// plus what `--compare` and the README want to know).
fn run_one(args: &Args, cli: &Path, workload: Workload) -> Result<Value, String> {
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        smoke: args.smoke,
        always_restart: args.trace,
        cli: cli.to_path_buf(),
        work: args.out.join(format!("work-{}", workload.name())),
    };
    let live = workloads::run(&cfg)?;
    let (e2e, tail_percentile) = report::end_to_end(workload, &live);
    let metrics = if args.trace {
        let mut tr = trace::Tracer::default();
        let counts = report::replay(&cfg, &live, &mut tr)?;
        let path = args.out.join(format!("trace-{}.json", workload.name()));
        std::fs::write(&path, tr.to_json().to_string())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        metrics_json(
            &report::per_layer_table(),
            &report::per_layer(&live, &tr, &counts),
        )?
    } else {
        metrics_json(report::END_TO_END, &e2e)?
    };
    let win = &live.window;
    for err in &win.errors {
        eprintln!("{}: FAILED: {err}", workload.name());
    }
    Ok(Value::obj([
        ("workload", Value::str(workload.name())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(cfg.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("smoke", Value::Bool(args.smoke)),
        ("window_s", Value::Num(win.elapsed.as_secs_f64())),
        ("op_samples", Value::Num(win.op_ms.len() as f64)),
        ("op_tail_percentile", Value::Num(tail_percentile)),
        ("query_samples", Value::Num(win.query_ms.len() as f64)),
        ("correct", Value::Bool(win.failed == 0)),
        ("attempted", Value::Num(win.attempted as f64)),
        ("failed", Value::Num(win.failed as f64)),
        ("metrics", metrics),
    ]))
}

/// Appends `record` to the `runs` array of the result file.
fn append_result(path: &Path, record: &Value) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text)?
            .get("runs")
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
            .ok_or(format!("{} has no `runs` array", path.display()))?,
        Err(_) => Vec::new(),
    };
    runs.push(record.clone());
    std::fs::write(path, Value::obj([("runs", Value::Arr(runs))]).to_string())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b, &args.bench);
    }
    let cli = args
        .cli
        .clone()
        .ok_or(format!("--cli is required\n{USAGE}"))?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("mkdir {}: {e}", args.out.display()))?;
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut all_correct = true;
    for workload in workloads {
        let record = run_one(&args, &cli, workload)?;
        append_result(&args.out.join("results.json"), &record)?;
        let field = |name: &str| record.get(name).cloned().unwrap_or(Value::Null);
        println!(
            "# {} seed={} window={:.2}s ops={} tail=p{} attempted={} failed={}",
            workload.name(),
            args.seed,
            field("window_s").as_f64().unwrap_or(0.0),
            field("op_samples"),
            field("op_tail_percentile"),
            field("attempted"),
            field("failed"),
        );
        for (name, m) in field("metrics").members() {
            println!(
                "{name} {} {}",
                m.get("value").unwrap_or(&Value::Null),
                m.get("unit").and_then(Value::as_str).unwrap_or("")
            );
        }
        // The driver's contract: the last line of a run is this object.
        println!(
            "{}",
            Value::obj(["correct", "attempted", "failed", "metrics"].map(|k| (k, field(k))))
        );
        all_correct &= field("correct") == Value::Bool(true);
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("triq-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64, workload: Workload) -> Config {
        Config {
            workload,
            seed,
            seconds: 1.0,
            smoke: true,
            always_restart: false,
            cli: PathBuf::new(),
            work: PathBuf::new(),
        }
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs_and_another_seed_does_not() {
        for w in Workload::ALL {
            let inputs = |seed| {
                let plan = workloads::Plan::generate(&config(seed, w));
                (plan.graph_ttl.clone(), plan.requests_text())
            };
            assert_eq!(inputs(7), inputs(7), "{}", w.name());
            // The graph, the request stream or both: `bulk_load` starts on
            // the TBox alone, `adhoc_query` asks the same questions of a
            // different graph when two seeds rotate from the same department.
            assert_ne!(inputs(7), inputs(8), "{}", w.name());
        }
    }

    #[test]
    fn generated_statements_are_distinct() {
        let abox = gen::abox(3, 0, 13);
        let lines: std::collections::BTreeSet<&str> = abox.ttl.lines().collect();
        assert_eq!(lines.len(), abox.triples);
        // Disjoint department ranges share no statement.
        let other = gen::abox(3, 13, 5);
        assert!(other.ttl.lines().all(|l| !lines.contains(l)));
    }

    #[test]
    fn benchmark_json_names_exactly_the_metrics_the_harness_prints() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let bench = json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(report::END_TO_END));
        assert_eq!(listed("per_layer"), own(&report::per_layer_table()));
        let names: Vec<String> = bench
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
        assert_eq!(
            bench.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
