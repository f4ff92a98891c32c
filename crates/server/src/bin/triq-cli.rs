//! `triq-cli` — command-line front end for the TriQ engines, built on the
//! `Engine`/`Session`/`PreparedQuery` facade.
//!
//! ```text
//! triq-cli [--stats] [--profile] sparql <graph.ttl> '<SELECT query>' [--regime u|all]
//! triq-cli [--stats] [--profile] rules <graph.ttl> <rules.dl> <output-pred>
//! triq-cli [--stats] [--profile] update <graph.ttl> <rules.dl> <output-pred> <updates.txt>
//! triq-cli [--stats] serve <graph.ttl> <rules.dl> [--addr HOST:PORT] [--threads N]
//!          [--data-dir DIR] [--fsync per-batch|interval:<ms>|off]
//!          [--checkpoint-ops N] [--checkpoint-bytes N] [--queue-cap N]
//!          [--read-deadline-ms N] [--max-concurrent-reads N]
//!          [--slow-query-ms N] [--access-log off|stderr|FILE] [--trace-buffer N]
//! triq-cli [--stats] load <graph.ttl>
//! triq-cli classify <rules.dl>
//! triq-cli entail <graph.ttl> <s> <p> <o>
//! triq-cli explain <graph.ttl> <s> <p> <o>
//! triq-cli saturate <graph.ttl>
//! ```
//!
//! `update` evaluates the rules, then applies a file of live mutations —
//! one `+fact(a, b)` or `-fact(a, b)` per line (`#` comments allowed) —
//! **incrementally** against the maintained session view and prints the
//! answers after each batch (batches are separated by blank lines; a
//! file without blank lines is one batch).
//!
//! `serve` starts the snapshot-isolated HTTP query service (see
//! `docs/PROTOCOL.md` for the wire format): the graph is loaded once,
//! the rule program is installed as an engine library applied to every
//! query, and `POST /update` batches flow through the same incremental
//! maintenance path as `update`. `--addr` defaults to `127.0.0.1:7878`
//! (use port `0` for an ephemeral port — the bound address is printed),
//! `--threads` sets the HTTP worker count (default 4; each request's
//! chase runs on the worker that serves it), and `--enable-shutdown`
//! arms the `POST /shutdown` endpoint (used by the CI smoke test for a
//! clean stop).
//!
//! `serve --data-dir <dir>` makes the server **durable**: every update
//! is written ahead to `<dir>/wal.triq` before it is acknowledged, and
//! checkpointed on a policy (`--checkpoint-ops N`, `--checkpoint-bytes
//! N`): the whole session state to `<dir>/snap-*.triq` first, then
//! what changed since the checkpoint before to `<dir>/seg-*.triq`,
//! until those segments outgrow the snapshot. On startup, a non-empty
//! data directory is **recovered** — newest valid snapshot, its
//! segments, then WAL replay through the incremental apply path — and
//! the graph file argument is ignored (the recovered database is the
//! source of truth; a summary is printed to stderr). `--fsync
//! per-batch|interval:<ms>|off` tunes the durability window and
//! `--queue-cap N` bounds the writer queue (overflow → `503
//! E-RESOURCE`). See the "Durability" section of
//! `docs/ARCHITECTURE.md`.
//!
//! Read-side sustained-load guards: `--read-deadline-ms N` bounds both
//! how long one request may take to *arrive* (slow-client trickle
//! protection in the HTTP layer) and how long one `POST /query` may
//! *evaluate* (an ambient chase deadline); `--max-concurrent-reads N`
//! caps in-flight query evaluations. Both answer `503 E-RESOURCE` on
//! exhaustion, mirroring the bounded update queue, and tick the
//! `deadline_exceeded` / `requests_rejected` engine counters. `0`
//! (the default) disables each guard.
//!
//! `load` parses a Turtle file and builds the `τ_db` session through
//! columnar adoption, printing
//! parse/build timings and throughput — the offline twin of
//! `POST /load`.
//!
//! `serve` exposes its telemetry over HTTP: `GET /metrics` (Prometheus
//! text), `GET /version`, `GET /debug/trace?last=N` (the span ring,
//! sized by `--trace-buffer N`) and `GET /debug/slow` (queries at or
//! over `--slow-query-ms N`, with plan and per-stratum timings).
//! `--access-log off|stderr|FILE` emits one JSON line per request.
//!
//! `--stats` prints the engine's counter table to stderr after the
//! answer (for `serve`: after shutdown), one `<name>: <value>` line per
//! counter under the same names `GET /stats` uses (`chase_runs`,
//! `atoms_derived`, `join_probes`, `deltas_applied`, …). `--profile` (one-shot commands only) prints a
//! per-phase timing table — prepare, plan, chase by stratum — to stderr
//! after the answer. Errors print their stable code (e.g. `E-STRATIFY`,
//! `E-LANG-MEMBERSHIP`) so scripts can match failures without parsing
//! prose.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use triq::obs::{EventLog, Phase, Telemetry};
use triq::prelude::*;
use triq_persist::{PersistConfig, Persistence};
use triq_server::{parse_update_line, QueryService, Server, ServerOptions, ServiceConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  triq-cli [--stats] [--profile] sparql <graph.ttl> \
         '<SELECT query>' [--regime u|all]\n  \
         triq-cli [--stats] [--profile] rules <graph.ttl> <rules.dl> \
         <output-pred>\n  \
         triq-cli [--stats] [--profile] update <graph.ttl> <rules.dl> \
         <output-pred> <updates.txt>\n  \
         triq-cli [--stats] serve <graph.ttl> <rules.dl> \
         [--addr HOST:PORT] [--threads N] [--enable-shutdown] [--data-dir DIR] \
         [--fsync per-batch|interval:<ms>|off] \
         [--checkpoint-ops N] [--checkpoint-bytes N] [--queue-cap N] \
         [--read-deadline-ms N] [--max-concurrent-reads N] \
         [--slow-query-ms N] [--access-log off|stderr|FILE] [--trace-buffer N]\n  \
         triq-cli [--stats] load <graph.ttl>\n  \
         triq-cli classify <rules.dl>\n  \
         triq-cli entail <graph.ttl> <s> <p> <o>\n  \
         triq-cli explain <graph.ttl> <s> <p> <o>\n  \
         triq-cli saturate <graph.ttl>"
    );
    ExitCode::from(2)
}

/// Prints the engine counters to stderr: the [`EngineStats`] text
/// rendering, one `<wire name>: <value>` line per counter-table entry.
fn print_stats(engine: &Engine) {
    eprint!("stats:\n{}", engine.stats());
}

/// Prints the `--profile` per-phase timing table to stderr: every phase
/// with at least one observation (count, total, p50/p95/p99 — all in
/// nanoseconds), then
/// the chase-by-stratum breakdown aggregated from the span tracer.
fn print_profile(tel: &Telemetry) {
    eprintln!("profile:");
    eprintln!(
        "  {:<26} {:>9} {:>14} {:>11} {:>11} {:>11}",
        "phase", "count", "total", "p50", "p95", "p99"
    );
    for phase in Phase::ALL {
        let s = tel.phase_snapshot(phase);
        if s.count == 0 {
            continue;
        }
        eprintln!(
            "  {:<26} {:>9} {:>14} {:>11} {:>11} {:>11}",
            phase.metric_name().trim_start_matches("triq_"),
            s.count,
            s.sum,
            s.percentile(0.50),
            s.percentile(0.95),
            s.percentile(0.99),
        );
    }
    let tracer = tel.tracer();
    let mut by_stratum: std::collections::BTreeMap<u64, (u64, u64)> =
        std::collections::BTreeMap::new();
    for span in tracer.last(tracer.capacity()) {
        if span.name == "stratum" {
            let e = by_stratum.entry(span.detail).or_insert((0, 0));
            e.0 += 1;
            e.1 += span.dur_ns;
        }
    }
    if !by_stratum.is_empty() {
        eprintln!("  chase by stratum:");
        for (stratum, (runs, total_ns)) in by_stratum {
            eprintln!("    stratum {stratum:<3} runs {runs:>6}  total {total_ns:>12} ns");
        }
    }
}

fn main() -> ExitCode {
    // `--stats` / `--profile` are global flags that must precede the
    // subcommand, so a positional argument that happens to equal one of
    // them (e.g. a file name) is never consumed.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut stats = false;
    let mut profile = false;
    loop {
        match args.first().map(String::as_str) {
            Some("--stats") if !stats => stats = true,
            Some("--profile") if !profile => profile = true,
            _ => break,
        }
        args.remove(0);
    }
    let tel = profile.then(Telemetry::new);
    let result = match args.first().map(String::as_str) {
        Some(cmd @ ("serve" | "load" | "classify" | "entail" | "explain" | "saturate"))
            if profile =>
        {
            Err(TriqError::Other(format!(
                "--profile is only supported for one-shot commands (sparql, rules, update), \
                 not `{cmd}` — for serve, scrape GET /metrics instead"
            )))
        }
        Some("sparql") => cmd_sparql(&args[1..], stats, tel.as_ref()),
        Some("rules") => cmd_rules(&args[1..], stats, tel.as_ref()),
        Some("update") => cmd_update(&args[1..], stats, tel.as_ref()),
        Some("serve") => cmd_serve(&args[1..], stats),
        Some("load") => cmd_load(&args[1..], stats),
        Some(cmd @ ("classify" | "entail" | "explain" | "saturate")) if stats => Err(
            TriqError::Other(format!("--stats is not supported for `{cmd}`")),
        ),
        Some("classify") => cmd_classify(&args[1..]),
        Some("entail") => cmd_entail(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("saturate") => cmd_saturate(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(()) => {
            if let Some(tel) = &tel {
                print_profile(tel);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_file(path: &str) -> Result<String, TriqError> {
    std::fs::read_to_string(path).map_err(|e| TriqError::Other(format!("cannot read {path}: {e}")))
}

fn load_graph(path: &str) -> Result<Graph, TriqError> {
    parse_turtle(&read_file(path)?)
}

/// `load`: parse a Turtle file and build the τ_db session, reporting
/// parse/build timings and end-to-end throughput.
fn cmd_load(args: &[String], stats: bool) -> Result<(), TriqError> {
    let [graph_path] = args else {
        return Err(TriqError::Other("load needs <graph.ttl>".into()));
    };
    let text = read_file(graph_path)?;
    let t0 = Instant::now();
    let graph = parse_turtle(&text)?;
    let parsed = t0.elapsed();
    let triples = graph.len();
    let engine = Engine::new();
    let t1 = Instant::now();
    let _session = engine.load_graph(graph);
    let built = t1.elapsed();
    let total = parsed + built;
    let per_sec = triples as f64 / total.as_secs_f64().max(1e-9);
    println!(
        "loaded {triples} triples in {total:?} \
         (parse {parsed:?}, τ_db build {built:?}; \
         {per_sec:.0} triples/s end-to-end)"
    );
    if stats {
        print_stats(&engine);
    }
    Ok(())
}

/// Applies the `--profile` telemetry (if any) to an engine builder.
fn with_profile(builder: EngineBuilder, tel: Option<&Arc<Telemetry>>) -> EngineBuilder {
    match tel {
        Some(tel) => builder.recorder(tel.clone()),
        None => builder,
    }
}

fn cmd_sparql(args: &[String], stats: bool, tel: Option<&Arc<Telemetry>>) -> Result<(), TriqError> {
    let [graph_path, query, rest @ ..] = args else {
        return Err(TriqError::Other("sparql needs <graph> <query>".into()));
    };
    let semantics = match rest {
        [] => Semantics::Plain,
        [flag, mode] if flag == "--regime" && mode == "u" => Semantics::RegimeU,
        [flag, mode] if flag == "--regime" && mode == "all" => Semantics::RegimeAll,
        _ => return Err(TriqError::Other("unknown trailing arguments".into())),
    };
    let engine = with_profile(Engine::builder().default_semantics(semantics), tel).build();
    let select = parse_select(query)?;
    let vars: Vec<VarId> = select.vars.iter().copied().collect();
    let prepared = engine.prepare(select)?;
    let session = engine.load_graph(load_graph(graph_path)?);
    match prepared.mappings(&session)? {
        RegimeAnswers::Top => println!("⊤  (the graph is inconsistent with the ontology)"),
        RegimeAnswers::Mappings(ms) => {
            println!(
                "{}",
                vars.iter().map(|v| v.name()).collect::<Vec<_>>().join("\t")
            );
            for m in ms {
                let row: Vec<&str> = vars
                    .iter()
                    .map(|v| m.get(*v).map_or("-", |s| s.as_str()))
                    .collect();
                println!("{}", row.join("\t"));
            }
        }
    }
    if stats {
        print_stats(&engine);
    }
    Ok(())
}

fn cmd_rules(args: &[String], stats: bool, tel: Option<&Arc<Telemetry>>) -> Result<(), TriqError> {
    let [graph_path, rules_path, output] = args else {
        return Err(TriqError::Other(
            "rules needs <graph> <rules.dl> <output-pred>".into(),
        ));
    };
    let engine = with_profile(Engine::builder(), tel).build();
    let prepared = engine.prepare(Datalog(&read_file(rules_path)?, output))?;
    let classification = prepared.classification();
    if classification.is_triq_lite_1_0() {
        eprintln!("program is TriQ-Lite 1.0 (PTime)");
    } else if classification.is_triq_1_0() {
        eprintln!("program is TriQ 1.0 (not Lite) — evaluation may be expensive");
    } else {
        return Err(TriqError::NotInLanguage {
            language: "TriQ 1.0",
            reason: classification.violations.join("; "),
        });
    }
    let session = engine.load_graph(load_graph(graph_path)?);
    let mut answers = prepared.execute_iter(&session)?;
    if answers.is_top() {
        println!("⊤  (inconsistent)");
        if stats {
            print_stats(&engine);
        }
        return Ok(());
    }
    let mut rows: Vec<String> = (&mut answers)
        .map(|tuple| {
            tuple
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect();
    rows.sort();
    for row in rows {
        println!("{row}");
    }
    if stats {
        print_stats(&engine);
    }
    Ok(())
}

fn print_answers(answers: &Answers) {
    if answers.is_top() {
        println!("⊤  (inconsistent)");
        return;
    }
    for tuple in answers.tuples() {
        let row: Vec<&str> = tuple.iter().map(|s| s.as_str()).collect();
        println!("{}", row.join("\t"));
    }
}

/// `update`: evaluate, then apply `+fact`/`-fact` batches incrementally,
/// re-printing the answers after each batch.
fn cmd_update(args: &[String], stats: bool, tel: Option<&Arc<Telemetry>>) -> Result<(), TriqError> {
    let [graph_path, rules_path, output, updates_path] = args else {
        return Err(TriqError::Other(
            "update needs <graph> <rules.dl> <output-pred> <updates.txt>".into(),
        ));
    };
    let engine = with_profile(Engine::builder(), tel).build();
    let prepared = engine.prepare(Datalog(&read_file(rules_path)?, output))?;
    let mut session = engine.load_graph(load_graph(graph_path)?);
    println!("== initial ==");
    print_answers(&prepared.execute(&session)?);
    let updates = read_file(updates_path)?;
    let mut batch_no = 0usize;
    // One batch is one delta per line, netted: the last line's
    // operation on a fact wins.
    let mut batch: Vec<Delta> = Vec::new();
    let mut flush = |session: &mut Session, batch: &mut Vec<Delta>| -> Result<(), TriqError> {
        session.apply_delta(&Delta::net(batch.iter()));
        batch.clear();
        batch_no += 1;
        println!("== after batch {batch_no} ==");
        print_answers(&prepared.execute(session)?);
        Ok(())
    };
    for line in updates.lines() {
        let line = line.trim();
        if line.starts_with('#') {
            continue;
        }
        if line.is_empty() {
            if !batch.is_empty() {
                flush(&mut session, &mut batch)?;
            }
            continue;
        }
        let (insert, fact) = parse_update_line(line)?;
        let mut delta = Delta::new();
        if insert {
            delta.add_insert(fact);
        } else {
            delta.add_delete(fact);
        }
        batch.push(delta);
    }
    if !batch.is_empty() {
        flush(&mut session, &mut batch)?;
    }
    if stats {
        print_stats(&engine);
    }
    Ok(())
}

/// `serve`: start the snapshot-isolated HTTP query service over a graph
/// plus a rule library, and park until a shutdown is requested.
fn cmd_serve(args: &[String], stats: bool) -> Result<(), TriqError> {
    let [graph_path, rules_path, rest @ ..] = args else {
        return Err(TriqError::Other(
            "serve needs <graph.ttl> <rules.dl> [--addr HOST:PORT] [--threads N] \
             [--enable-shutdown] [--data-dir DIR] \
             [--fsync per-batch|interval:<ms>|off] \
             [--checkpoint-ops N] [--checkpoint-bytes N] [--queue-cap N] \
             [--read-deadline-ms N] [--max-concurrent-reads N] \
             [--slow-query-ms N] [--access-log off|stderr|FILE] [--trace-buffer N]"
                .into(),
        ));
    };
    let mut addr = String::from("127.0.0.1:7878");
    let mut threads = 4usize;
    let mut enable_shutdown = false;
    let mut data_dir: Option<String> = None;
    let mut pconfig = PersistConfig::default();
    let mut queue_cap = ServiceConfig::default().queue_cap;
    let mut slow_query_ms = ServiceConfig::default().slow_query_ms;
    let mut read_deadline_ms = ServiceConfig::default().read_deadline_ms;
    let mut max_concurrent_reads = ServiceConfig::default().max_concurrent_reads;
    let mut access_log = String::from("off");
    let mut trace_buffer = triq::obs::DEFAULT_TRACE_BUFFER;
    let mut rest = rest.iter();
    let next_num = |rest: &mut std::slice::Iter<String>, flag: &str| -> Result<u64, TriqError> {
        rest.next()
            .and_then(|n| n.parse().ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| TriqError::Other(format!("{flag} needs a positive count")))
    };
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--addr" => {
                addr = rest
                    .next()
                    .ok_or_else(|| TriqError::Other("--addr needs HOST:PORT".into()))?
                    .clone();
            }
            "--threads" => threads = next_num(&mut rest, "--threads")? as usize,
            "--enable-shutdown" => enable_shutdown = true,
            "--data-dir" => {
                data_dir = Some(
                    rest.next()
                        .ok_or_else(|| TriqError::Other("--data-dir needs a directory".into()))?
                        .clone(),
                );
            }
            "--fsync" => {
                pconfig.fsync = rest
                    .next()
                    .ok_or_else(|| {
                        TriqError::Other("--fsync needs per-batch|interval:<ms>|off".into())
                    })?
                    .parse()?;
            }
            "--checkpoint-ops" => pconfig.checkpoint_ops = next_num(&mut rest, "--checkpoint-ops")?,
            "--checkpoint-bytes" => {
                pconfig.checkpoint_bytes = next_num(&mut rest, "--checkpoint-bytes")?;
            }
            "--queue-cap" => queue_cap = next_num(&mut rest, "--queue-cap")? as usize,
            "--read-deadline-ms" => {
                // 0 is meaningful for both read-side guards: disabled.
                read_deadline_ms = rest.next().and_then(|n| n.parse().ok()).ok_or_else(|| {
                    TriqError::Other("--read-deadline-ms needs a millisecond count".into())
                })?;
            }
            "--max-concurrent-reads" => {
                max_concurrent_reads =
                    rest.next().and_then(|n| n.parse().ok()).ok_or_else(|| {
                        TriqError::Other("--max-concurrent-reads needs a count".into())
                    })?;
            }
            "--slow-query-ms" => {
                // Unlike the other numeric flags, 0 is meaningful here:
                // capture every query.
                slow_query_ms = rest.next().and_then(|n| n.parse().ok()).ok_or_else(|| {
                    TriqError::Other("--slow-query-ms needs a millisecond count".into())
                })?;
            }
            "--access-log" => {
                access_log = rest
                    .next()
                    .ok_or_else(|| TriqError::Other("--access-log needs off|stderr|FILE".into()))?
                    .clone();
            }
            "--trace-buffer" => trace_buffer = next_num(&mut rest, "--trace-buffer")? as usize,
            other => {
                return Err(TriqError::Other(format!("unknown serve flag `{other}`")));
            }
        }
    }
    let events = EventLog::from_spec(&access_log)
        .map_err(|e| TriqError::Other(format!("cannot open access log {access_log}: {e}")))?;
    let telemetry = Telemetry::with(trace_buffer, events);
    // The rule program is validated up front and installed as an engine
    // library: every query the server prepares is evaluated over the
    // graph AND these rules, kept incrementally materialized.
    let rules = parse_program(&read_file(rules_path)?)?;
    let engine = Engine::builder()
        .library(rules)
        .recorder(telemetry.clone())
        .build();
    let config = ServiceConfig {
        enable_shutdown,
        queue_cap,
        slow_query_ms,
        read_deadline_ms,
        max_concurrent_reads,
        telemetry: Some(telemetry),
    };
    let service = match &data_dir {
        None => {
            let session = engine.load_graph(load_graph(graph_path)?);
            QueryService::from_shared(engine.clone(), session.into_shared(), None, config)
        }
        Some(dir) => {
            let opened = Persistence::open(std::path::Path::new(dir), pconfig, &engine)?;
            let mut persistence = opened.persistence;
            let shared = match opened.session {
                Some(shared) => {
                    // Recovered state wins over the graph file: the
                    // database in the snapshot + WAL already contains
                    // every acknowledged write (including the original
                    // τ_db load), so re-reading the graph would at best
                    // duplicate it and at worst roll back updates.
                    let r = opened.recovery.expect("recovery stats accompany a session");
                    eprintln!(
                        "recovered {dir}: snapshot v{} + {} segment(s), {} WAL record(s) \
                         replayed, serving v{} (graph file ignored)",
                        r.snapshot_version, r.segments, r.replayed_records, r.recovered_version
                    );
                    shared
                }
                None => {
                    let session = engine.load_graph(load_graph(graph_path)?);
                    let shared = session.into_shared();
                    // Checkpoint 0 before serving: a crash before the
                    // first update must still recover the loaded graph.
                    persistence.checkpoint(&shared)?;
                    eprintln!("initialized {dir}: checkpoint at v{}", shared.version());
                    shared
                }
            };
            QueryService::from_shared(engine.clone(), shared, Some(persistence), config)
        }
    };
    // The receive deadline shares the read-deadline budget: a client
    // must deliver its request within the same window a query may
    // evaluate in.
    let options = ServerOptions {
        read_deadline: (read_deadline_ms > 0).then(|| Duration::from_millis(read_deadline_ms)),
    };
    let server = Server::serve_with(service.clone(), &addr, threads, options)
        .map_err(|e| TriqError::Other(format!("cannot bind {addr}: {e}")))?;
    // The bound address on stdout is the machine-readable contract the
    // smoke tests (and scripts using --addr …:0) rely on.
    println!("listening on http://{}", server.local_addr());
    std::io::stdout().flush().ok();
    server.join();
    service.stop_writer();
    eprintln!("server stopped");
    if stats {
        print_stats(&engine);
    }
    Ok(())
}

fn cmd_classify(args: &[String]) -> Result<(), TriqError> {
    let [rules_path] = args else {
        return Err(TriqError::Other("classify needs <rules.dl>".into()));
    };
    let program = parse_program(&read_file(rules_path)?)?;
    let c = classify_program(&program);
    println!("rules:                     {}", program.rules.len());
    println!("constraints:               {}", program.constraints.len());
    println!("stratified:                {}", c.stratified);
    println!("plain Datalog:             {}", c.plain_datalog);
    println!("guarded:                   {}", c.guarded);
    println!("weakly guarded:            {}", c.weakly_guarded);
    println!("frontier-guarded:          {}", c.frontier_guarded);
    println!("nearly frontier-guarded:   {}", c.nearly_frontier_guarded);
    println!("weakly frontier-guarded:   {}", c.weakly_frontier_guarded);
    println!("warded:                    {}", c.warded);
    println!(
        "warded (min. interaction): {}",
        c.warded_minimal_interaction
    );
    println!("grounded negation:         {}", c.grounded_negation);
    println!("=> TriQ 1.0:               {}", c.is_triq_1_0());
    println!("=> TriQ-Lite 1.0:          {}", c.is_triq_lite_1_0());
    if !c.violations.is_empty() {
        println!("\nviolations:");
        for v in &c.violations {
            println!("  - {v}");
        }
    }
    Ok(())
}

fn cmd_entail(args: &[String]) -> Result<(), TriqError> {
    let [graph_path, s, p, o] = args else {
        return Err(TriqError::Other("entail needs <graph> <s> <p> <o>".into()));
    };
    let graph = load_graph(graph_path)?;
    let oracle = EntailmentOracle::new(&graph)?;
    if !oracle.is_consistent() {
        println!("⊤  (inconsistent: every triple is entailed)");
        return Ok(());
    }
    let t = Triple::from_strs(s, p, o);
    println!("{}", oracle.entails(&t));
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), TriqError> {
    let [graph_path, s, p, o] = args else {
        return Err(TriqError::Other("explain needs <graph> <s> <p> <o>".into()));
    };
    let graph = load_graph(graph_path)?;
    let oracle = EntailmentOracle::new(&graph)?;
    let t = Triple::from_strs(s, p, o);
    match oracle.explain_text(&t) {
        Some(text) => print!("{text}"),
        None => println!("not entailed (or the graph is inconsistent)"),
    }
    Ok(())
}

fn cmd_saturate(args: &[String]) -> Result<(), TriqError> {
    let [graph_path] = args else {
        return Err(TriqError::Other("saturate needs <graph>".into()));
    };
    let graph = load_graph(graph_path)?;
    let saturated = triq::owl2ql::saturate(&graph)?;
    print!("{}", to_turtle(&saturated));
    Ok(())
}
