//! `--compare A.json B.json`: per workload × end-to-end metric, both
//! medians, the ratio with its base, and a verdict against the bounds
//! fixed in `BENCHMARK.json`. A and B are result files (`results.json`),
//! each holding the runs of one commit.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::measure::{median, quartiles};

/// One end-to-end metric's rule, from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of a side is wider than the bound: the
    /// medians cannot settle it either way.
    Unresolved,
}

/// Inter-quartile distance as a share of the median; 0 for a single run.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(rule: &Rule, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if rule.lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn verdict(rule: &Rule, a: &[f64], b: &[f64]) -> Verdict {
    if spread(a) > rule.bound || spread(b) > rule.bound {
        Verdict::Unresolved
    } else if worse_by(rule, median(a), median(b)) > rule.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

pub fn rules(bench: &Value) -> Result<Vec<Rule>, String> {
    bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json lacks `end_to_end`")?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .ok_or(format!("metric lacks `{k}`"))
            };
            Ok(Rule {
                name: text("name")?.to_string(),
                lower_is_better: text("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric lacks `bound`")?,
            })
        })
        .collect()
}

/// `(workload, metric) → values` over the untraced runs of a result file.
fn values(results: &Value) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in results.get("runs").and_then(Value::as_array).unwrap_or(&[]) {
        if run.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Value::as_str) else {
            continue;
        };
        for (name, m) in run.get("metrics").map_or(&[][..], Value::members) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the comparison; `Ok(false)` when any row regressed.
pub fn run(a: &Path, b: &Path, bench: &Path) -> Result<bool, String> {
    let rules = rules(&load(bench)?)?;
    let (a, b) = (values(&load(a)?), values(&load(b)?));
    println!("workload metric runs_a median_a runs_b median_b ratio_b_over_a spread_a spread_b bound verdict");
    let mut clean = true;
    for ((workload, metric), va) in &a {
        let (Some(vb), Some(rule)) = (
            b.get(&(workload.clone(), metric.clone())),
            rules.iter().find(|r| &r.name == metric),
        ) else {
            continue;
        };
        let v = verdict(rule, va, vb);
        clean &= v != Verdict::Regressed;
        println!(
            "{workload} {metric} {} {} {} {} {:.4} {:.4} {:.4} {} {}",
            va.len(),
            median(va),
            vb.len(),
            median(vb),
            median(vb) / median(va),
            spread(va),
            spread(vb),
            rule.bound,
            match v {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower_is_better: bool) -> Rule {
        Rule {
            name: "m".into(),
            lower_is_better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |m: f64| vec![m * 0.99, m, m, m * 1.01];
        assert_eq!(
            verdict(&rule(true), &steady(100.0), &steady(105.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&rule(true), &steady(100.0), &steady(115.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&rule(true), &steady(100.0), &steady(50.0)),
            Verdict::Ok
        );
        // Higher is better: falling is what regresses.
        assert_eq!(
            verdict(&rule(false), &steady(100.0), &steady(85.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&rule(false), &steady(100.0), &steady(130.0)),
            Verdict::Ok
        );
        // A side noisier than the bound settles nothing.
        let noisy = vec![60.0, 90.0, 100.0, 140.0];
        assert_eq!(
            verdict(&rule(true), &noisy, &steady(200.0)),
            Verdict::Unresolved
        );
        // Single runs have no spread to judge.
        assert_eq!(verdict(&rule(true), &[100.0], &[111.0]), Verdict::Regressed);
    }

    #[test]
    fn reads_rules_and_untraced_runs() {
        let bench = json::parse(
            r#"{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1},
                              {"name":"throughput_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let rules = rules(&bench).unwrap();
        assert!(rules[0].lower_is_better && !rules[1].lower_is_better);
        let results = json::parse(
            r#"{"runs":[
              {"workload":"hot_read","trace":false,"metrics":{"op_p50_ms":{"value":1.5,"unit":"ms"}}},
              {"workload":"hot_read","trace":true,"metrics":{"core.apply_ms":{"value":9,"unit":"ms"}}},
              {"workload":"hot_read","trace":false,"metrics":{"op_p50_ms":{"value":2.5,"unit":"ms"}}}]}"#,
        )
        .unwrap();
        let v = values(&results);
        assert_eq!(v.len(), 1);
        assert_eq!(
            v[&("hot_read".to_string(), "op_p50_ms".to_string())],
            vec![1.5, 2.5]
        );
    }
}
