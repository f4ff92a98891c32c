//! Outside-in per-crate spans: the traced replay.
//!
//! The server is not instrumented from here. Instead the harness rebuilds
//! the same engine, shared session and persistence handle **in this
//! process** from the same generated inputs and performs a sample of the
//! workload's operations as explicit calls into each crate's public
//! functions, each wrapped in a span. A layer function that the facade
//! calls internally (`parse_select` inside `Engine::prepare`, a view's
//! `apply` inside `SharedSession::apply`) is replayed *separately* right
//! after its parent and recorded as that parent's child; the parent's
//! self time is its duration minus what those children cover.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use triq::common::json::Json;
use triq::datalog::{demand, stratify};
use triq::persist::{decode_snapshot, encode_snapshot};
use triq::prelude::*;
use triq::translate::{decode_answers, TranslatedPattern};
use triq_persist::{FsyncPolicy, PersistConfig, Persistence};

use crate::gen::{Kind, Query, RULES_DL};
use crate::json::Value;
use crate::measure::median;
use crate::workloads::CHECKPOINT_OPS;

/// One recorded interval. `parent` is 0 for a top-level span; `req`
/// groups the spans of one replayed operation (0 = set-up).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The crate the span belongs to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans held in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span; returns the span's id with `f`'s result.
    pub fn span<R>(
        &mut self,
        req: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (u64, R) {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let result = std::hint::black_box(f());
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        (id, result)
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("id", Value::Num(s.id as f64)),
                        ("parent", Value::Num(s.parent as f64)),
                        ("req", Value::Num(s.req as f64)),
                        ("name", Value::str(s.name)),
                        ("layer", Value::str(s.layer())),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the union of its direct
/// children's intervals, clamped at 0. Children were replayed on their
/// own, so they may overlap or nest among themselves — and may together
/// take longer than the parent did.
pub fn self_ns(spans: &[Span], id: u64) -> u64 {
    let Some(parent) = spans.iter().find(|s| s.id == id) else {
        return 0;
    };
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.dur_ns().saturating_sub(covered)
}

/// One operation of the replay.
pub enum Step<'a> {
    Query(&'a Query),
    Update(&'a str),
    Load(&'a str),
}

/// What to replay: the inputs the server got, and the operations.
pub struct Replay<'a> {
    pub graph_ttl: &'a str,
    /// `(step, primary)`: primary steps are the workload's own measured
    /// operations, the ones `trace.coverage_pct` is about.
    pub steps: Vec<(Step<'a>, bool)>,
    /// The first this-many steps are the set-up's queries, whose plans
    /// stay live: each gets a standalone view that replays updates.
    pub live: usize,
    /// An empty directory for the replay's WAL and snapshots.
    pub data_dir: &'a Path,
}

/// A prepared text and what the standalone replays of its layers need.
struct Known {
    prepared: PreparedQuery,
    translated: Option<TranslatedPattern>,
}

/// What the replay measured besides the spans.
#[derive(Default)]
pub struct Counts {
    pub rules_out: u64,
    pub snapshot_bytes: u64,
    pub graph_bytes: u64,
    /// Per primary step: the sum of its top-level spans, ms.
    pub primary_ms: Vec<f64>,
}

fn e(err: TriqError) -> String {
    format!("replay: {err}")
}

fn semantics(kind: Kind) -> Semantics {
    match kind {
        Kind::Plain => Semantics::Plain,
        Kind::Ku => Semantics::RegimeU,
        _ => Semantics::RegimeAll,
    }
}

/// The JSON the server renders for an answer, rebuilt from public types
/// (the server's own renderer is private to `triq-server`).
fn render(prepared: &PreparedQuery, answers: &Answers, version: u64) -> String {
    let mut rows: Vec<Vec<&str>> = answers
        .tuples()
        .iter()
        .map(|t| t.iter().map(|s| s.as_str()).collect())
        .collect();
    rows.sort_unstable();
    let rows = Json::arr(
        rows.into_iter()
            .map(|t| Json::arr(t.into_iter().map(Json::str))),
    );
    let vars = prepared.var_names().unwrap_or_default();
    Json::obj([
        ("version", Json::U64(version)),
        ("vars", Json::arr(vars.into_iter().map(Json::str))),
        ("top", Json::Bool(answers.is_top())),
        ("rows", rows),
    ])
    .to_string()
}

/// Runs the replay; spans land in `tr`.
pub fn replay(r: &Replay, tr: &mut Tracer) -> Result<Counts, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = Counts {
        graph_bytes: r.graph_ttl.len() as u64,
        ..Counts::default()
    };

    // Set-up: what `triq-cli serve` does before `listening on`.
    let (_, graph) = tr.span(0, 0, "rdf.parse_bulk", || {
        parse_turtle_parallel(r.graph_ttl, threads)
    });
    let graph = graph.map_err(e)?;
    tr.span(0, 0, "rdf.parse_serial", || parse_turtle(r.graph_ttl))
        .1
        .map_err(e)?;
    let engine = Engine::builder()
        .library(parse_program(RULES_DL).map_err(e)?)
        .build();
    let bridged = graph.clone();
    let (load_id, session) = tr.span(0, 0, "core.load_graph", || engine.load_graph(graph));
    tr.span(0, load_id, "owl2ql.tau_db", || tau_db(&bridged));
    drop(bridged);
    let shared = session.into_shared();
    let config = PersistConfig {
        fsync: FsyncPolicy::PerBatch,
        checkpoint_ops: CHECKPOINT_OPS,
        ..PersistConfig::default()
    };
    let mut persistence = Persistence::open(r.data_dir, config, &engine)
        .map_err(e)?
        .persistence;
    // Checkpoint 0, as the server takes before serving. Not a span: it
    // holds no views yet and would dilute `persist.checkpoint`.
    persistence.checkpoint(&shared).map_err(e)?;

    let mut known: HashMap<(Kind, &str), Known> = HashMap::new();
    let mut views: Vec<MaterializedView> = Vec::new();
    for (i, (step, primary)) in r.steps.iter().enumerate() {
        let req = i as u64 + 1;
        let first_span = tr.spans.len();
        match step {
            Step::Query(q) => {
                let key = (q.kind, q.text.as_str());
                let cold = !known.contains_key(&key);
                if cold {
                    let k = prepare(tr, req, &engine, q, &mut counts)?;
                    known.insert(key, k);
                }
                let k = &known[&key];
                let name = if cold {
                    "core.execute_cold"
                } else {
                    "core.execute_hot"
                };
                // The server's two entry points: mappings for SPARQL,
                // tuples for rule programs.
                let (exec_id, version) = match k.translated {
                    Some(_) => {
                        let (id, r) =
                            tr.span(req, 0, name, || shared.mappings_versioned(&k.prepared));
                        (id, r.map_err(e)?.1)
                    }
                    None => {
                        let (id, r) =
                            tr.span(req, 0, name, || shared.execute_versioned(&k.prepared));
                        (id, r.map_err(e)?.1)
                    }
                };
                if cold {
                    let runner =
                        ChaseRunner::new(k.prepared.program().clone(), k.prepared.config())
                            .map_err(e)?;
                    let chase = match q.kind {
                        Kind::Plain => "datalog.chase_plain",
                        Kind::Ku => "datalog.chase_ku",
                        Kind::Kall => "datalog.chase_kall",
                        Kind::Rules => "datalog.chase_rules",
                    };
                    tr.span(req, exec_id, chase, || {
                        shared.with_writer(|s| runner.run(s.database()))
                    })
                    .1
                    .map_err(e)?;
                    if i < r.live {
                        let db = shared.with_writer(|s| s.database().clone());
                        views.push(MaterializedView::new(runner, db).map_err(e)?);
                    }
                }
                let answers = shared.execute_versioned(&k.prepared).map_err(e)?.0;
                if let Some(translated) = &k.translated {
                    tr.span(req, exec_id, "translate.decode", || {
                        decode_answers(&answers, translated)
                    });
                }
                tr.span(req, 0, "common.json_render", || {
                    render(&k.prepared, &answers, version)
                });
            }
            Step::Update(body) => {
                let (_, delta) = tr.span(req, 0, "server.parse_update", || {
                    triq_server::parse_update_text(body)
                });
                let delta = delta.map_err(e)?;
                let names = if delta.deletes.is_empty() {
                    ("core.apply", "datalog.view_apply_insert")
                } else {
                    ("core.apply", "datalog.view_apply_delete")
                };
                write(
                    tr,
                    req,
                    &delta,
                    names,
                    &shared,
                    &mut persistence,
                    &mut views,
                )?;
            }
            Step::Load(doc) => {
                let (_, graph) = tr.span(req, 0, "rdf.parse_bulk", || {
                    parse_turtle_parallel(doc, threads)
                });
                let triple = intern("triple");
                let facts: Vec<Fact> = graph
                    .map_err(e)?
                    .iter()
                    .map(|t| Fact::new(triple, vec![t.s, t.p, t.o]))
                    .collect();
                // The server's `/load` batch size.
                for chunk in facts.chunks(4096) {
                    let mut delta = Delta::new();
                    chunk.iter().for_each(|f| delta.add_insert(f.clone()));
                    let names = ("core.apply_batch", "datalog.view_apply_batch");
                    write(
                        tr,
                        req,
                        &delta,
                        names,
                        &shared,
                        &mut persistence,
                        &mut views,
                    )?;
                }
            }
        }
        if *primary {
            let total: u64 = tr.spans[first_span..]
                .iter()
                .filter(|s| s.parent == 0)
                .map(Span::dur_ns)
                .sum();
            counts.primary_ms.push(total as f64 / 1e6);
        }
    }

    // What a checkpoint and a restart cost on the state reached.
    let (_, (bytes, _)) = tr.span(0, 0, "core.encode_snapshot", || encode_snapshot(&shared));
    counts.snapshot_bytes = bytes.len() as u64;
    let decoder = Engine::builder()
        .library(parse_program(RULES_DL).map_err(e)?)
        .build();
    tr.span(0, 0, "core.decode_snapshot", || {
        decode_snapshot(&decoder, &bytes)
    })
    .1
    .map_err(e)?;
    drop(persistence);
    tr.span(0, 0, "persist.open", || {
        Persistence::open(r.data_dir, config, &decoder)
    })
    .1
    .map_err(e)?;
    Ok(counts)
}

/// The writer thread's protocol for one batch: WAL append, apply (with
/// each live plan's view maintenance replayed on its standalone view as
/// a child span), then a checkpoint when the policy calls for one.
fn write(
    tr: &mut Tracer,
    req: u64,
    delta: &Delta,
    (apply_name, view_name): (&'static str, &'static str),
    shared: &SharedSession,
    persistence: &mut Persistence,
    views: &mut [MaterializedView],
) -> Result<(), String> {
    tr.span(req, 0, "persist.wal_append", || {
        persistence.append(shared.version(), delta, shared.engine())
    })
    .1
    .map_err(e)?;
    let (apply_id, _) = tr.span(req, 0, apply_name, || shared.apply(delta));
    for view in views {
        tr.span(req, apply_id, view_name, || view.apply(delta))
            .1
            .map_err(e)?;
    }
    if persistence.should_checkpoint() {
        tr.span(req, 0, "persist.checkpoint", || {
            persistence.checkpoint(shared)
        })
        .1
        .map_err(e)?;
    }
    Ok(())
}

/// `Engine::prepare` as the server calls it, then each stage it runs
/// inside, replayed on its own as a child span.
fn prepare(
    tr: &mut Tracer,
    req: u64,
    engine: &Engine,
    q: &Query,
    counts: &mut Counts,
) -> Result<Known, String> {
    let (id, prepared) = match q.kind {
        Kind::Rules => tr.span(req, 0, "core.prepare", || {
            engine.prepare(Datalog(&q.text, "out"))
        }),
        kind => tr.span(req, 0, "core.prepare", || {
            engine.prepare((parse_select(&q.text)?, semantics(kind)))
        }),
    };
    let prepared = prepared.map_err(e)?;
    let translated = if q.kind == Kind::Rules {
        tr.span(req, id, "datalog.parse", || parse_program(&q.text))
            .1
            .map_err(e)?;
        None
    } else {
        let select = tr
            .span(req, id, "sparql.parse", || parse_select(&q.text))
            .1
            .map_err(e)?;
        let pattern = triq::sparql::GraphPattern::Select(select.vars, Box::new(select.pattern));
        let translated = match q.kind {
            Kind::Plain => tr.span(req, id, "translate.translate_plain", || {
                translate_pattern(&pattern)
            }),
            Kind::Ku => tr.span(req, id, "translate.translate_ku", || {
                translate_pattern_u(&pattern)
            }),
            _ => tr.span(req, id, "translate.translate_kall", || {
                translate_pattern_all(&pattern)
            }),
        }
        .1
        .map_err(e)?;
        counts.rules_out += translated.program.rules.len() as u64;
        Some(translated)
    };
    let program = prepared.program();
    tr.span(req, id, "datalog.classify", || classify_program(program));
    tr.span(req, id, "datalog.stratify", || stratify(program))
        .1
        .map_err(e)?;
    // A declined rewrite (`Err`) is a normal outcome: the full chase runs.
    let _ = tr.span(req, id, "datalog.demand_rewrite", || {
        demand::rewrite(program, prepared.output())
    });
    tr.span(req, id, "datalog.runner_new", || {
        ChaseRunner::new(program.clone(), prepared.config())
    })
    .1
    .map_err(e)?;
    Ok(Known {
        prepared,
        translated,
    })
}

/// Median duration (ns) per span name; `self_time` names use the self
/// time instead.
pub fn medians_ns(spans: &[Span], self_time: &[&str]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let ns = if self_time.contains(&s.name) {
            self_ns(spans, s.id)
        } else {
            s.dur_ns()
        };
        by_name.entry(s.name).or_default().push(ns as f64);
    }
    by_name.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Longest duration (ns) of the spans named `name`; 0 when none.
pub fn max_ns(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "core.prepare",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Replayed after the parent: [200,230] and [220,250] overlap
            // (union 50), [225,228] nests inside, [300,310] is apart.
            span(2, 1, 200, 230),
            span(3, 1, 220, 250),
            span(4, 1, 225, 228),
            span(5, 1, 300, 310),
            // A grandchild does not count against span 1.
            span(6, 2, 400, 490),
        ];
        assert_eq!(self_ns(&spans, 1), 100 - 60);
        assert_eq!(self_ns(&spans, 2), 0, "clamped: the child outlasts it");
        assert_eq!(self_ns(&spans, 5), 10, "no children: the whole duration");
        assert_eq!(self_ns(&spans, 99), 0);
    }

    #[test]
    fn tracer_nests_by_explicit_parent_and_names_the_layer() {
        let mut tr = Tracer::default();
        let (id, v) = tr.span(7, 0, "core.prepare", || 41 + 1);
        let (child, _) = tr.span(7, id, "sparql.parse", || ());
        assert_eq!((v, id, child), (42, 1, 2));
        assert_eq!(tr.spans[1].parent, 1);
        assert_eq!(tr.spans[1].layer(), "sparql");
        assert!(tr.spans[0].end_ns >= tr.spans[0].start_ns);
        let json = tr.to_json().to_string();
        assert!(
            json.contains(r#""name":"sparql.parse","layer":"sparql""#),
            "{json}"
        );
    }
}
