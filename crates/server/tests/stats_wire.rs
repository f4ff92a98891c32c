//! Wire-format pin for the engine counters: the `engine` object of
//! `GET /stats` and the `triq_engine_*` families of `GET /metrics` are
//! compared byte for byte against goldens captured from the commit
//! *before* the counters became one `triq_obs::Counter` table. The
//! tests speak HTTP only, so this file runs unmodified on either side
//! of that change — member names, order, help strings and values may
//! not move (the serving benchmark reads `/stats` by member name).

use std::sync::Arc;
use triq::prelude::*;
use triq_server::{Client, QueryService, Server, ServiceConfig};

/// A 70-edge `knows` chain with one shortcut (`n34 → n36`): the closure
/// is large enough for the cost-based planner and the column kernels
/// to engage, and deleting the shortcut over-deletes a cone that the
/// chain then rederives (building joint indexes on the way).
fn graph() -> String {
    let mut turtle: String = (0..70)
        .map(|i| format!("n{i} knows n{} .\n", i + 1))
        .collect();
    turtle.push_str("n34 knows n36 .\n");
    turtle
}

const RULES: &str = "triple(?X, knows, ?Y) -> triple(?X, reaches, ?Y).\n\
                     triple(?X, reaches, ?Y), triple(?Y, knows, ?Z) -> triple(?X, reaches, ?Z).";
const QUERIES: [&str; 2] = [
    "SELECT ?X ?Y WHERE { ?X reaches ?Y }",
    "SELECT ?X WHERE { ?X knows ?Y }",
];

/// A graph+rules service on an ephemeral port, single chase thread so
/// every work counter is schedule-independent.
fn start() -> (Arc<QueryService>, Server) {
    let engine = Engine::builder()
        .library(parse_program(RULES).unwrap())
        .chase_threads(1)
        .build();
    let session = engine.load_graph(parse_turtle(&graph()).unwrap());
    let service = QueryService::new(engine, session, ServiceConfig::default());
    let server = Server::serve(service.clone(), "127.0.0.1:0", 1).unwrap();
    (service, server)
}

fn stop(service: Arc<QueryService>, server: Server) {
    service.stop_writer();
    server.shutdown();
}

/// Two distinct query texts, each posted twice.
fn read_only_script(client: &mut Client) {
    for query in QUERIES.iter().chain(QUERIES.iter()) {
        let resp = client.post("/query", query).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
}

/// The text of the flat `engine` object of a `/stats` body.
fn engine_object(stats_body: &str) -> &str {
    let start = stats_body.find("\"engine\":{").expect("engine object") + "\"engine\":".len();
    let end = start + stats_body[start..].find('}').expect("engine object closes") + 1;
    &stats_body[start..end]
}

/// `name → value` of a flat JSON object of unsigned integers.
fn members(object: &str) -> Vec<(&str, u64)> {
    object
        .trim_matches(|c| c == '{' || c == '}')
        .split(',')
        .map(|member| {
            let (name, value) = member.split_once(':').expect("name:value");
            (name.trim_matches('"'), value.parse().expect("u64 value"))
        })
        .collect()
}

const STATS_GOLDEN: &str = r#"{"prepared_queries":2,"executions":4,"chase_runs":2,"cache_hits":2,"atoms_derived":12636,"join_probes":76091,"parallel_strata":0,"deltas_applied":0,"atoms_overdeleted":0,"atoms_rederived":0,"plans_compiled":6,"replans":0,"index_builds":0,"index_probes":0,"morsel_batches":0,"kernel_filter_rows":4533,"wal_records":0,"wal_bytes":0,"snapshots_written":0,"last_checkpoint_version":0,"recovery_replayed_ops":0,"checkpoint_failures":0,"demand_rewrites":0,"demand_fallbacks":2,"demand_atoms_saved":0,"requests_rejected":0,"deadline_exceeded":0}"#;

const METRICS_GOLDEN: &str = "\
# HELP triq_engine_atoms_derived Atoms derived by the chase\n\
# HELP triq_engine_atoms_overdeleted Atoms over-deleted by DRed\n\
# HELP triq_engine_atoms_rederived Over-deleted atoms rederived\n\
# HELP triq_engine_cache_hits Executions served from cache\n\
# HELP triq_engine_chase_runs Chase runs performed\n\
# HELP triq_engine_checkpoint_failures Failed checkpoint attempts\n\
# HELP triq_engine_deadline_exceeded Read requests aborted past their evaluation deadline\n\
# HELP triq_engine_deltas_applied Session deltas absorbed incrementally\n\
# HELP triq_engine_demand_atoms_saved Atoms a demand-driven chase avoided deriving versus the full-chase baseline\n\
# HELP triq_engine_demand_fallbacks Demand rewrites declined or abandoned for the full chase\n\
# HELP triq_engine_demand_rewrites Plans prepared with a magic-set demand rewrite\n\
# HELP triq_engine_executions Prepared-query executions\n\
# HELP triq_engine_index_builds Joint hash indexes built\n\
# HELP triq_engine_index_probes Probes served by hash indexes\n\
# HELP triq_engine_join_probes Join candidate probes\n\
# HELP triq_engine_kernel_filter_rows Rows screened by column kernels\n\
# HELP triq_engine_last_checkpoint_version Op-log version of the most recent checkpoint\n\
# HELP triq_engine_morsel_batches Morsel match batches collected\n\
# HELP triq_engine_parallel_strata Strata run with parallel match collection\n\
# HELP triq_engine_plans_compiled Cost-based join plans compiled\n\
# HELP triq_engine_prepared_queries Queries prepared\n\
# HELP triq_engine_recovery_replayed_ops WAL records replayed at recovery\n\
# HELP triq_engine_replans Plans recomputed after cardinality drift\n\
# HELP triq_engine_requests_rejected Read requests rejected by the concurrency gate\n\
# HELP triq_engine_snapshots_written Checkpoint snapshots written\n\
# HELP triq_engine_wal_bytes Bytes appended to the WAL\n\
# HELP triq_engine_wal_records WAL records appended\n\
# TYPE triq_engine_atoms_derived counter\n\
# TYPE triq_engine_atoms_overdeleted counter\n\
# TYPE triq_engine_atoms_rederived counter\n\
# TYPE triq_engine_cache_hits counter\n\
# TYPE triq_engine_chase_runs counter\n\
# TYPE triq_engine_checkpoint_failures counter\n\
# TYPE triq_engine_deadline_exceeded counter\n\
# TYPE triq_engine_deltas_applied counter\n\
# TYPE triq_engine_demand_atoms_saved counter\n\
# TYPE triq_engine_demand_fallbacks counter\n\
# TYPE triq_engine_demand_rewrites counter\n\
# TYPE triq_engine_executions counter\n\
# TYPE triq_engine_index_builds counter\n\
# TYPE triq_engine_index_probes counter\n\
# TYPE triq_engine_join_probes counter\n\
# TYPE triq_engine_kernel_filter_rows counter\n\
# TYPE triq_engine_last_checkpoint_version gauge\n\
# TYPE triq_engine_morsel_batches counter\n\
# TYPE triq_engine_parallel_strata counter\n\
# TYPE triq_engine_plans_compiled counter\n\
# TYPE triq_engine_prepared_queries counter\n\
# TYPE triq_engine_recovery_replayed_ops counter\n\
# TYPE triq_engine_replans counter\n\
# TYPE triq_engine_requests_rejected counter\n\
# TYPE triq_engine_snapshots_written counter\n\
# TYPE triq_engine_wal_bytes counter\n\
# TYPE triq_engine_wal_records counter\n\
triq_engine_atoms_derived 12636\n\
triq_engine_atoms_overdeleted 0\n\
triq_engine_atoms_rederived 0\n\
triq_engine_cache_hits 2\n\
triq_engine_chase_runs 2\n\
triq_engine_checkpoint_failures 0\n\
triq_engine_deadline_exceeded 0\n\
triq_engine_deltas_applied 0\n\
triq_engine_demand_atoms_saved 0\n\
triq_engine_demand_fallbacks 2\n\
triq_engine_demand_rewrites 0\n\
triq_engine_executions 4\n\
triq_engine_index_builds 0\n\
triq_engine_index_probes 0\n\
triq_engine_join_probes 76091\n\
triq_engine_kernel_filter_rows 4533\n\
triq_engine_last_checkpoint_version 0\n\
triq_engine_morsel_batches 0\n\
triq_engine_parallel_strata 0\n\
triq_engine_plans_compiled 6\n\
triq_engine_prepared_queries 2\n\
triq_engine_recovery_replayed_ops 0\n\
triq_engine_replans 0\n\
triq_engine_requests_rejected 0\n\
triq_engine_snapshots_written 0\n\
triq_engine_wal_bytes 0\n\
triq_engine_wal_records 0";

const STATS_AFTER_WRITES_GOLDEN: &str = r#"{"prepared_queries":2,"executions":8,"chase_runs":2,"cache_hits":6,"atoms_derived":12994,"join_probes":76091,"parallel_strata":0,"deltas_applied":4,"atoms_overdeleted":6301,"atoms_rederived":6300,"plans_compiled":10,"replans":6,"index_builds":4,"index_probes":2662,"morsel_batches":0,"kernel_filter_rows":5101,"wal_records":0,"wal_bytes":0,"snapshots_written":0,"last_checkpoint_version":0,"recovery_replayed_ops":0,"checkpoint_failures":0,"demand_rewrites":0,"demand_fallbacks":2,"demand_atoms_saved":0,"requests_rejected":0,"deadline_exceeded":0}"#;

#[test]
fn read_only_stats_and_metrics_match_the_goldens() {
    let (service, server) = start();
    let mut client = Client::new(server.local_addr());
    read_only_script(&mut client);

    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200, "{}", stats.body);
    assert_eq!(engine_object(&stats.body), STATS_GOLDEN);

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200, "{}", metrics.body);
    let mut engine_lines: Vec<&str> = metrics
        .body
        .lines()
        .filter(|l| {
            l.starts_with("triq_engine_")
                || l.starts_with("# HELP triq_engine_")
                || l.starts_with("# TYPE triq_engine_")
        })
        .collect();
    engine_lines.sort_unstable();
    assert_eq!(engine_lines.join("\n"), METRICS_GOLDEN);
    stop(service, server);
}

#[test]
fn stats_after_one_insert_and_one_delete_match_the_golden() {
    let (service, server) = start();
    let mut client = Client::new(server.local_addr());
    read_only_script(&mut client);
    for update in ["+triple(n70, knows, n71)", "-triple(n34, knows, n36)"] {
        let resp = client.post("/update", update).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    read_only_script(&mut client);

    let stats = client.get("/stats").unwrap();
    let got = members(engine_object(&stats.body));
    let want = members(STATS_AFTER_WRITES_GOLDEN);
    assert_eq!(got.len(), want.len(), "{}", stats.body);
    for ((name, value), (want_name, want_value)) in got.into_iter().zip(want) {
        assert_eq!(name, want_name, "member order");
        if matches!(name, "join_probes" | "parallel_strata") {
            // The golden predates counting the probes of delta chases.
            assert!(value >= want_value, "{name}: {value} < {want_value}");
        } else {
            assert_eq!(value, want_value, "{name}");
        }
    }
    stop(service, server);
}
