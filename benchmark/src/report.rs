//! Metric names, units and how each is computed — the one table
//! `BENCHMARK.json`, the README and the printed output agree with.

use std::collections::BTreeMap;

use crate::gen::{self, Abox, Query, Rng, Update};
use crate::measure::{median, tail};
use crate::trace::{self, Counts, Replay, Step, Tracer};
use crate::workloads::{Config, Live, Phase, Workload};

/// End-to-end metrics: every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// How a per-layer timing is taken from the spans of one name.
#[derive(Clone, Copy)]
enum Agg {
    Median,
    /// Median of the self times (duration minus children).
    SelfMedian,
    /// The longest one: the large answer's.
    Max,
}

/// Per-layer timings: `(metric, span name, aggregate)`. The unit is the
/// metric's suffix.
const SPAN_METRICS: &[(&str, &str, Agg)] = &[
    ("server.parse_update_us", "server.parse_update", Agg::Median),
    ("sparql.parse_us", "sparql.parse", Agg::Median),
    (
        "translate.translate_plain_us",
        "translate.translate_plain",
        Agg::Median,
    ),
    (
        "translate.translate_ku_us",
        "translate.translate_ku",
        Agg::Median,
    ),
    (
        "translate.translate_kall_us",
        "translate.translate_kall",
        Agg::Median,
    ),
    ("translate.decode_ms", "translate.decode", Agg::Max),
    ("owl2ql.tau_db_ms", "owl2ql.tau_db", Agg::Median),
    ("rdf.parse_bulk_ms", "rdf.parse_bulk", Agg::Median),
    ("rdf.parse_serial_ms", "rdf.parse_serial", Agg::Median),
    ("datalog.parse_us", "datalog.parse", Agg::Median),
    ("datalog.classify_us", "datalog.classify", Agg::Median),
    ("datalog.stratify_us", "datalog.stratify", Agg::Median),
    (
        "datalog.demand_rewrite_us",
        "datalog.demand_rewrite",
        Agg::Median,
    ),
    ("datalog.runner_new_us", "datalog.runner_new", Agg::Median),
    ("datalog.chase_plain_ms", "datalog.chase_plain", Agg::Median),
    ("datalog.chase_ku_ms", "datalog.chase_ku", Agg::Median),
    ("datalog.chase_kall_ms", "datalog.chase_kall", Agg::Median),
    ("datalog.chase_rules_ms", "datalog.chase_rules", Agg::Median),
    (
        "datalog.view_apply_insert_ms",
        "datalog.view_apply_insert",
        Agg::Median,
    ),
    (
        "datalog.view_apply_delete_ms",
        "datalog.view_apply_delete",
        Agg::Median,
    ),
    (
        "datalog.view_apply_batch_ms",
        "datalog.view_apply_batch",
        Agg::Median,
    ),
    ("core.prepare_ms", "core.prepare", Agg::SelfMedian),
    ("core.execute_cold_ms", "core.execute_cold", Agg::Median),
    ("core.execute_hot_us", "core.execute_hot", Agg::Median),
    ("core.apply_ms", "core.apply", Agg::Median),
    ("core.apply_publish_ms", "core.apply", Agg::SelfMedian),
    ("core.apply_batch_ms", "core.apply_batch", Agg::Median),
    ("core.load_graph_ms", "core.load_graph", Agg::Median),
    (
        "core.encode_snapshot_ms",
        "core.encode_snapshot",
        Agg::Median,
    ),
    (
        "core.decode_snapshot_ms",
        "core.decode_snapshot",
        Agg::Median,
    ),
    ("persist.wal_append_us", "persist.wal_append", Agg::Median),
    ("persist.checkpoint_ms", "persist.checkpoint", Agg::Median),
    ("persist.open_ms", "persist.open", Agg::Median),
    ("common.json_render_ms", "common.json_render", Agg::Max),
];

/// Per-layer counts taken as `GET /stats` deltas around the window:
/// `(metric, stats counter)`.
const STATS_METRICS: &[(&str, &str)] = &[
    ("server.requests_total", "service.requests_total"),
    ("datalog.atoms_derived", "engine.atoms_derived"),
    ("datalog.join_probes", "engine.join_probes"),
    ("datalog.index_probes", "engine.index_probes"),
    ("datalog.index_builds", "engine.index_builds"),
    ("datalog.plans_compiled", "engine.plans_compiled"),
    ("datalog.replans", "engine.replans"),
    ("datalog.chase_runs", "engine.chase_runs"),
    ("datalog.atoms_overdeleted", "engine.atoms_overdeleted"),
    ("datalog.atoms_rederived", "engine.atoms_rederived"),
    ("datalog.demand_rewrites", "engine.demand_rewrites"),
    ("datalog.demand_fallbacks", "engine.demand_fallbacks"),
    ("core.executions", "engine.executions"),
    ("core.cache_hits", "engine.cache_hits"),
    ("persist.wal_records", "engine.wal_records"),
    ("persist.checkpoints", "engine.snapshots_written"),
];

/// The remaining per-layer metrics, each computed by hand in
/// [`per_layer`]: `(metric, unit)`.
const OTHER_METRICS: &[(&str, &str)] = &[
    ("server.request_residual_ms", "ms"),
    ("server.query_p50_ms", "ms"),
    ("server.query_tail_ms", "ms"),
    ("server.body_bytes_out", "B"),
    ("server.requests_non2xx", "count"),
    ("translate.rules_out", "count"),
    ("rdf.parse_bulk_mb_per_s", "MB/s"),
    ("datalog.atoms_per_answer_row", "ratio"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("core.plans_materialized", "count"),
    ("core.snapshot_bytes", "B"),
    ("core.rss_bytes_per_triple", "B"),
    ("persist.wal_bytes_per_update", "B"),
    ("persist.replayed_ops", "count"),
    ("persist.recovery_s", "s"),
    ("persist.disk_bytes_per_triple", "B"),
    ("trace.coverage_pct", "%"),
];

fn unit_of(metric: &str) -> &'static str {
    if metric.ends_with("_us") {
        "us"
    } else if metric.ends_with("_ms") {
        "ms"
    } else {
        "count"
    }
}

/// Every per-layer metric with its unit, in printing order.
pub fn per_layer_table() -> Vec<(&'static str, &'static str)> {
    let mut table: Vec<(&str, &str)> = SPAN_METRICS
        .iter()
        .map(|(m, _, _)| (*m, unit_of(m)))
        .chain(STATS_METRICS.iter().map(|(m, _)| (*m, "count")))
        .chain(OTHER_METRICS.iter().copied())
        .collect();
    // Grouped by layer, as the README lists them.
    table.sort_by_key(|(m, _)| {
        let layer = m.split('.').next().unwrap_or(m);
        [
            "server",
            "sparql",
            "translate",
            "owl2ql",
            "rdf",
            "datalog",
            "core",
            "persist",
            "common",
            "trace",
        ]
        .iter()
        .position(|l| *l == layer)
    });
    table
}

/// The end-to-end metrics of one live run, and the percentile
/// `op_tail_ms` used.
pub fn end_to_end(w: Workload, live: &Live) -> (BTreeMap<&'static str, f64>, f64) {
    let win = &live.window;
    let menu: Vec<f64> = [99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|p| *p <= w.tail_percentile())
        .collect();
    let (op_tail, percentile) = tail(&win.op_ms, &menu);
    let metrics = BTreeMap::from([
        ("setup_s", median(&live.setup_s)),
        ("op_p50_ms", median(&win.op_ms)),
        ("op_tail_ms", op_tail),
        ("throughput_per_s", median(&live.throughput)),
        ("peak_rss_mb", live.peak_rss_mb),
    ]);
    (metrics, percentile)
}

/// The operations a traced replay performs for a plan, with the probe
/// inputs that make every layer show up on every workload: a workload
/// without updates (or loads) of its own replays a short generated
/// stream of them after its own operations.
pub struct ReplayInputs {
    /// One query of each kind; replayed for the kinds the workload's own
    /// queries lack.
    probe_queries: Vec<Query>,
    probe_updates: Vec<Update>,
    probe_doc: Abox,
}

/// Update batches replayed where a workload has none of its own.
const PROBE_UPDATES: usize = 20;

/// Every n-th `hot_read` request of client 0 is replayed.
const HOT_READ_SAMPLE_STRIDE: usize = 100;

impl ReplayInputs {
    pub fn new(cfg: &Config, live: &Live) -> ReplayInputs {
        let plan = &live.plan;
        let mut rng = Rng::new(cfg.seed ^ 0x7A3C_E5B1);
        // Probe updates touch departments the server holds: the base
        // ABox, or for `bulk_load` the first document.
        let target = match &plan.phase {
            Phase::BulkLoad { docs, .. } => &docs[0],
            _ => &plan.abox,
        };
        let focus = rng.below(target.depts.len());
        ReplayInputs {
            probe_queries: gen::kind_pool(target, focus),
            // More than `CHECKPOINT_OPS`: one checkpoint fires, and the
            // rest is the WAL tail `persist.open` replays.
            probe_updates: gen::updates(target, &mut rng, PROBE_UPDATES, focus),
            // Far beyond any department a workload generates.
            probe_doc: gen::abox(cfg.seed, 1_000_000, if cfg.smoke { 1 } else { 9 }),
        }
    }

    pub fn steps<'a>(&'a self, live: &'a Live) -> Vec<(Step<'a>, bool)> {
        let plan = &live.plan;
        let pool = || plan.pool.iter().map(|q| (Step::Query(q), false));
        let mut steps: Vec<(Step, bool)> = pool().collect();
        let (mut updates, mut loads) = (false, false);
        match &plan.phase {
            Phase::HotRead { draws } => steps.extend(
                draws[0]
                    .iter()
                    .step_by(HOT_READ_SAMPLE_STRIDE)
                    .map(|&i| (Step::Query(&plan.pool[i]), true)),
            ),
            Phase::Adhoc { queries } => {
                steps.extend(queries.iter().map(|q| (Step::Query(q), true)));
                steps.extend(pool());
            }
            Phase::WriteMix { updates: own } => {
                steps.extend(own.iter().map(|u| (Step::Update(&u.body), true)));
                steps.extend(pool());
                updates = true;
            }
            Phase::BulkLoad {
                docs, final_query, ..
            } => {
                steps.extend(docs.iter().map(|d| (Step::Load(&d.ttl), true)));
                steps.push((Step::Query(final_query), false));
                steps.extend(pool());
                loads = true;
            }
        }
        for probe in &self.probe_queries {
            let present =
                |(step, _): &(Step, bool)| matches!(step, Step::Query(q) if q.kind == probe.kind);
            if !steps.iter().any(present) {
                steps.push((Step::Query(probe), false));
            }
        }
        if !updates {
            steps.extend(
                self.probe_updates
                    .iter()
                    .map(|u| (Step::Update(&u.body), false)),
            );
        }
        if !loads {
            steps.push((Step::Load(&self.probe_doc.ttl), false));
        }
        steps
    }
}

/// Runs the traced replay for a finished live run.
pub fn replay(cfg: &Config, live: &Live, tr: &mut Tracer) -> Result<Counts, String> {
    let inputs = ReplayInputs::new(cfg, live);
    let data_dir = cfg.work.join("replay-data");
    if data_dir.exists() {
        std::fs::remove_dir_all(&data_dir).map_err(|e| format!("clear replay dir: {e}"))?;
    }
    std::fs::create_dir_all(&data_dir).map_err(|e| format!("mkdir replay dir: {e}"))?;
    trace::replay(
        &Replay {
            graph_ttl: &live.plan.graph_ttl,
            steps: inputs.steps(live),
            live: live.plan.pool.len(),
            data_dir: &data_dir,
        },
        tr,
    )
}

/// The per-layer metrics of a traced run: span timings from the replay,
/// counts from the live run's `/stats` deltas and its own observations.
pub fn per_layer(live: &Live, tr: &Tracer, counts: &Counts) -> BTreeMap<&'static str, f64> {
    let spans = &tr.spans;
    let self_names: Vec<&str> = SPAN_METRICS
        .iter()
        .filter(|(_, _, agg)| matches!(agg, Agg::SelfMedian))
        .map(|(_, span, _)| *span)
        .collect();
    let plain = trace::medians_ns(spans, &[]);
    let selfs = trace::medians_ns(spans, &self_names);
    let mut out = BTreeMap::new();
    for (metric, span, agg) in SPAN_METRICS {
        let ns = match agg {
            Agg::Median => plain.get(span).copied().unwrap_or(0.0),
            Agg::SelfMedian => selfs.get(span).copied().unwrap_or(0.0),
            Agg::Max => trace::max_ns(spans, span),
        };
        let per_unit = if unit_of(metric) == "us" { 1e3 } else { 1e6 };
        out.insert(*metric, ns / per_unit);
    }
    let stat = |key: &str| live.stats.get(key).copied().unwrap_or(0.0);
    for (metric, key) in STATS_METRICS {
        out.insert(*metric, stat(key));
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let win = &live.window;
    let query_ms: Vec<f64> = win.query_ms.iter().map(|(_, ms)| *ms).collect();
    let primary = median(&counts.primary_ms);
    let op_p50 = median(&win.op_ms);
    let parse_bulk_s = spans
        .iter()
        .find(|s| s.name == "rdf.parse_bulk")
        .map_or(0.0, |s| s.dur_ns() as f64 / 1e9);
    out.extend([
        ("server.request_residual_ms", op_p50 - primary),
        ("server.query_p50_ms", median(&query_ms)),
        (
            "server.query_tail_ms",
            tail(&query_ms, &[99.0, 90.0, 75.0, 50.0]).0,
        ),
        ("server.body_bytes_out", win.body_bytes as f64),
        (
            "server.requests_non2xx",
            stat("service.requests_total") - stat("service.requests_by_status.200"),
        ),
        ("translate.rules_out", counts.rules_out as f64),
        (
            "rdf.parse_bulk_mb_per_s",
            ratio(counts.graph_bytes as f64 / 1e6, parse_bulk_s),
        ),
        (
            "datalog.atoms_per_answer_row",
            ratio(stat("engine.atoms_derived"), win.answer_rows as f64),
        ),
        (
            "core.plan_cache_hit_ratio",
            ratio(stat("engine.cache_hits"), stat("engine.executions")),
        ),
        ("core.plans_materialized", live.plans_materialized),
        ("core.snapshot_bytes", counts.snapshot_bytes as f64),
        (
            "core.rss_bytes_per_triple",
            ratio(live.rss_growth_bytes.max(0.0), win.inserted as f64),
        ),
        (
            "persist.wal_bytes_per_update",
            ratio(stat("engine.wal_bytes"), stat("engine.wal_records")),
        ),
        ("persist.replayed_ops", live.replayed_ops),
        ("persist.recovery_s", median(&live.recovery_s)),
        (
            "persist.disk_bytes_per_triple",
            ratio(live.disk_bytes as f64, live.plan.base_triples as f64),
        ),
        ("trace.coverage_pct", 100.0 * ratio(primary, op_p50)),
    ]);
    out
}
