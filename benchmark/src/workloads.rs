//! The four workloads: what each generates from the seed, how its
//! measured window drives the live server, and how its answers are
//! checked. Sizes are frozen here; `--seconds` scales operation counts
//! (not data sizes), so every commit runs the same operations.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::client::{Conn, Server, ServerSpec};
use crate::gen::{self, Abox, Query, Rng, Update};
use crate::json::Value;
use crate::measure;
use crate::reference::{parse_answer, Reference};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    HotRead,
    AdhocQuery,
    WriteMix,
    BulkLoad,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotRead,
        Workload::AdhocQuery,
        Workload::WriteMix,
        Workload::BulkLoad,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::AdhocQuery => "adhoc_query",
            Workload::WriteMix => "write_mix",
            Workload::BulkLoad => "bulk_load",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The frozen percentile of `op_tail_ms`: one with at least ten
    /// samples beyond it that lies in the middle of the workload's slow
    /// class of operations — `hot_read`'s 10 % of large answers,
    /// `write_mix`'s 20 % of deletes, `adhoc_query`'s 25 % of regime
    /// queries, `bulk_load`'s later documents. (`hot_read` first used
    /// p99, the 90th percentile of its large answers; that moved by a
    /// quarter whenever the host was briefly busy.)
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::HotRead => 95.0,
            Workload::AdhocQuery | Workload::WriteMix => 90.0,
            Workload::BulkLoad => 75.0,
        }
    }
}

/// Frozen sizes, tuned once on the seed commit (2 cores) so that the
/// rounds of a run together take about `--seconds`.
///
/// A run is `rounds` rounds; every round starts a fresh server on the
/// same generated inputs, sets it up, and performs the same `ops`
/// operations. Rounds keep each server process short-lived and under
/// ≈700 MB — on the reference VM the first touch of memory beyond ≈900 MB
/// per process is ten times slower and depends on what ran before — and
/// they make every reported number a median over independent processes.
struct Size {
    /// Departments in the served graph (≈720 triples each).
    depts: usize,
    rounds: usize,
    /// Operations per round at the default `--seconds` (per client for
    /// `hot_read`; documents for `bulk_load`).
    ops: usize,
}

fn size(w: Workload, smoke: bool) -> Size {
    let (depts, rounds, ops) = match w {
        Workload::HotRead => (60, 4, 5000),
        Workload::AdhocQuery => (7, 8, 160),
        Workload::WriteMix => (14, 5, 60),
        // Starts on the TBox alone.
        Workload::BulkLoad => (0, 4, 24),
    };
    if smoke {
        // ≈2k triples, two rounds; `--seconds` shrinks the counts.
        Size {
            depts: depts.min(3),
            rounds: 2,
            ops,
        }
    } else {
        Size { depts, rounds, ops }
    }
}

/// `--seconds` the frozen operation counts correspond to.
pub const DEFAULT_SECONDS: f64 = 12.0;

/// Departments per `POST /load` document: ≈3.6k triples, one writer
/// batch (the server splits a load into 4096-row batches).
const LOAD_DOC_DEPTS: usize = 5;
const LOAD_DOC_DEPTS_SMOKE: usize = 1;

/// `write_mix` checkpoints after this many WAL records: three times in a
/// round of 60 updates.
pub const CHECKPOINT_OPS: u64 = 16;

/// The `write_mix` reader waits this long between requests (≈400 per
/// second: thousands of samples, a few percent of a core).
const READER_PAUSE: Duration = Duration::from_millis(2);

/// `kill -9` → respawn cycles after `write_mix` (and after every traced
/// run); `recovery_s` is their median.
const RESTARTS: usize = 5;

/// `adhoc_query` checks every n-th answer against the reference (each
/// check costs a full chase in this process).
const ADHOC_VERIFY_STRIDE: usize = 8;

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Run the restart cycle even where durability is not under test.
    pub always_restart: bool,
    pub cli: PathBuf,
    /// Scratch directory for generated files and the data directory.
    pub work: PathBuf,
}

/// Everything generated from the seed for one round (every round of a
/// run gets the same).
pub struct Plan {
    /// What the server starts on: TBox plus (except `bulk_load`) the ABox.
    pub graph_ttl: String,
    /// Triples in `graph_ttl`.
    pub base_triples: usize,
    pub abox: Abox,
    /// Queries issued during set-up; their plans are live afterwards.
    pub pool: Vec<Query>,
    pub phase: Phase,
}

pub enum Phase {
    /// Per client, the pool indices to request in order.
    HotRead {
        draws: [Vec<usize>; 2],
    },
    Adhoc {
        queries: Vec<Query>,
    },
    WriteMix {
        updates: Vec<Update>,
    },
    BulkLoad {
        docs: Vec<Abox>,
        /// A never-before-seen `ku` query with its analytic answer.
        final_query: Query,
        final_rows: Vec<String>,
    },
}

impl Plan {
    pub fn generate(cfg: &Config) -> Plan {
        let w = cfg.workload;
        let size = size(w, cfg.smoke);
        let ops = ((size.ops as f64 * cfg.seconds / DEFAULT_SECONDS).round() as usize).max(1);
        let mut rng = Rng::new(cfg.seed ^ 0xB5AD_4ECE_DA1C_E2A9);
        let tbox = gen::tbox_ttl();
        let tbox_triples = tbox.lines().count();
        // `bulk_load` has no departments here: it starts on the TBox alone.
        let abox = gen::abox(cfg.seed, 0, size.depts);
        let (pool, phase) = match w {
            Workload::HotRead => {
                let pool = gen::hot_pool(&abox, &mut rng);
                let small: Vec<usize> = (0..pool.len()).filter(|&i| i != gen::LARGE).collect();
                // Every tenth request asks for the large answer.
                let mut draws = || -> Vec<usize> {
                    (0..ops)
                        .map(|i| match i % 10 {
                            9 => gen::LARGE,
                            _ => small[rng.below(small.len())],
                        })
                        .collect()
                };
                let draws = [draws(), draws()];
                (pool, Phase::HotRead { draws })
            }
            Workload::AdhocQuery => {
                // The first request is the warm-up; the window has the rest.
                let mut queries = gen::adhoc_queries(&abox, &mut rng, ops + 1);
                let pool = vec![queries.remove(0)];
                (pool, Phase::Adhoc { queries })
            }
            Workload::WriteMix => {
                let focus = rng.below(abox.depts.len());
                let pool = gen::kind_pool(&abox, focus);
                let updates = gen::updates(&abox, &mut rng, ops, focus);
                (pool, Phase::WriteMix { updates })
            }
            Workload::BulkLoad => {
                let per_doc = if cfg.smoke {
                    LOAD_DOC_DEPTS_SMOKE
                } else {
                    LOAD_DOC_DEPTS
                };
                let docs: Vec<Abox> = (0..ops)
                    .map(|k| gen::abox(cfg.seed, k * per_doc, per_doc))
                    .collect();
                // Two live plans while loading: one plain, one `ku`.
                let first = &docs[0].depts[0];
                let pool = vec![gen::plain_query(first, 0), gen::ku_query(first, 0)];
                let last = &docs[docs.len() - 1].depts[0];
                let final_query = gen::ku_query(last, 2);
                // Variant 2 asks for Professor ⊓ worksFor: every
                // non-lecturer, the head included only through
                // headOf ⊑ worksFor.
                let mut final_rows = last.professors.clone();
                final_rows.sort();
                (
                    pool,
                    Phase::BulkLoad {
                        docs,
                        final_query,
                        final_rows,
                    },
                )
            }
        };
        Plan {
            graph_ttl: format!("{tbox}{}", abox.ttl),
            base_triples: tbox_triples + abox.triples,
            abox,
            pool,
            phase,
        }
    }

    /// The request stream as text, for the determinism test and for
    /// whoever wants to read what a run sent.
    pub fn requests_text(&self) -> String {
        let query = |q: &Query| format!("POST {}\n{}\n\n", q.path(), q.text);
        let mut out: String = self.pool.iter().map(query).collect();
        match &self.phase {
            Phase::HotRead { draws } => {
                for (c, d) in draws.iter().enumerate() {
                    out.push_str(&format!("client {c}: {d:?}\n"));
                }
            }
            Phase::Adhoc { queries } => out.extend(queries.iter().map(query)),
            Phase::WriteMix { updates } => {
                for u in updates {
                    out.push_str(&format!("POST /update\n{}\n", u.body));
                }
            }
            Phase::BulkLoad {
                docs, final_query, ..
            } => {
                for d in docs {
                    // FNV-1a of the document stands in for its text.
                    let digest = d.ttl.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                    });
                    out.push_str(&format!(
                        "POST /load ({} triples, fnv1a {digest:016x})\n",
                        d.triples
                    ));
                }
                out.push_str(&query(final_query));
            }
        }
        out
    }
}

/// What the measured window recorded.
#[derive(Default)]
pub struct Window {
    pub elapsed: Duration,
    /// Latencies of the workload's own operation.
    pub op_ms: Vec<f64>,
    /// Units of work (requests, updates, triples) per second, summed over
    /// clients.
    pub throughput: f64,
    /// Every `POST /query` in the window: (query id, latency).
    pub query_ms: Vec<(usize, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub body_bytes: u64,
    /// Answer rows received, for the atoms-per-row waste ratio.
    pub answer_rows: u64,
    /// Response bodies kept for checking: query id → body.
    pub bodies: BTreeMap<usize, String>,
    pub errors: Vec<String>,
    /// Triples inserted during the window.
    pub inserted: u64,
    /// The version the last write was acknowledged at.
    pub acked_version: u64,
}

impl Window {
    /// Merges a later round: samples and counts add up; the bodies and
    /// the acknowledged version stay (every round reaches the same).
    fn absorb(&mut self, other: Window) {
        self.elapsed += other.elapsed;
        self.op_ms.extend(other.op_ms);
        self.query_ms.extend(other.query_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.body_bytes += other.body_bytes;
        self.answer_rows += other.answer_rows;
        self.inserted += other.inserted;
        self.errors.extend(other.errors);
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }
}

/// The outcome of one live run: its rounds' windows merged.
pub struct Live {
    pub plan: Plan,
    /// One set-up time per round.
    pub setup_s: Vec<f64>,
    /// One throughput per round; the metric is their median.
    pub throughput: Vec<f64>,
    /// Samples, counts and failures of all rounds together; the bodies
    /// are the first round's (later rounds must repeat them).
    pub window: Window,
    /// `GET /stats` deltas around the windows, summed over rounds.
    pub stats: BTreeMap<String, f64>,
    /// `service.plans_materialized` after the last window (a gauge).
    pub plans_materialized: f64,
    /// The largest child `VmHWM` of any round.
    pub peak_rss_mb: f64,
    /// Child `VmRSS` growth over the windows, summed over rounds.
    pub rss_growth_bytes: f64,
    pub disk_bytes: u64,
    pub recovery_s: Vec<f64>,
    /// `recovery_replayed_ops` of the last restart.
    pub replayed_ops: f64,
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn post_query(conn: &mut Conn, q: &Query) -> Result<crate::client::Response, String> {
    let r = conn.post(q.path(), &q.text)?;
    if r.status != 200 {
        return Err(format!(
            "{} {:?}: status {}: {}",
            q.path(),
            q.text,
            r.status,
            r.body
        ));
    }
    Ok(r)
}

/// Asks every pool query once on a connection of its own; the bodies by
/// pool index.
fn ask_pool(server: &Server, pool: &[Query]) -> Result<BTreeMap<usize, String>, String> {
    let mut conn = Conn::new(server.addr);
    let mut bodies = BTreeMap::new();
    for (i, q) in pool.iter().enumerate() {
        bodies.insert(i, post_query(&mut conn, q)?.body);
    }
    Ok(bodies)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the rounds (generate → spawn → warm up → measured window, each
/// on a fresh server), then the restart cycle and the answer checks on
/// the last round's server.
pub fn run(cfg: &Config) -> Result<Live, String> {
    std::fs::create_dir_all(&cfg.work).map_err(|e| format!("mkdir {}: {e}", cfg.work.display()))?;
    let data_dir = cfg.work.join("data");
    let spec = ServerSpec {
        cli: cfg.cli.clone(),
        graph: cfg.work.join("graph.ttl"),
        rules: cfg.work.join("rules.dl"),
        extra: if cfg.workload == Workload::WriteMix {
            vec![
                "--data-dir".into(),
                data_dir.display().to_string(),
                "--fsync".into(),
                "per-batch".into(),
                "--checkpoint-ops".into(),
                CHECKPOINT_OPS.to_string(),
            ]
        } else {
            Vec::new()
        },
        stderr: cfg.work.join("server.stderr"),
    };
    let mut setup_s = Vec::new();
    let mut throughput = Vec::new();
    let mut stats: BTreeMap<String, f64> = BTreeMap::new();
    let (mut peak_rss_mb, mut rss_growth_bytes) = (0.0f64, 0.0);
    // The first round's plan, warm-up answers and window; later rounds
    // are merged into the window.
    let mut first: Option<(Plan, BTreeMap<usize, String>, Window)> = None;
    let mut last_server = None;
    let rounds = size(cfg.workload, cfg.smoke).rounds;
    for round in 0..rounds {
        // Set-up, timed from input generation to the first measured
        // operation: the same inputs every round.
        let started = Instant::now();
        let plan = Plan::generate(cfg);
        write_file(&spec.graph, &plan.graph_ttl)?;
        write_file(&spec.rules, gen::RULES_DL)?;
        write_file(&cfg.work.join("requests.txt"), &plan.requests_text())?;
        if data_dir.exists() {
            std::fs::remove_dir_all(&data_dir).map_err(|e| format!("clear data dir: {e}"))?;
        }
        let server = Server::spawn(&spec)?;
        let warm = ask_pool(&server, &plan.pool)?;
        setup_s.push(started.elapsed().as_secs_f64());

        // The server has two HTTP workers and each serves one connection
        // at a time, so the harness never holds more than two: every
        // phase opens its own connections and closes them when done.
        let stats_before = Conn::new(server.addr).get_json("/stats")?;
        let rss_before = server.mem_mb("VmRSS")?;
        let window = match &plan.phase {
            Phase::HotRead { draws } => hot_read(&server, &plan.pool, draws, &warm),
            Phase::Adhoc { queries } => adhoc_query(&server, queries),
            Phase::WriteMix { updates } => write_mix(&server, &plan.pool, updates),
            Phase::BulkLoad {
                docs,
                final_query,
                final_rows,
            } => bulk_load(&server, docs, final_query, final_rows),
        };
        let stats_after = Conn::new(server.addr).get_json("/stats")?;
        rss_growth_bytes += (server.mem_mb("VmRSS")? - rss_before) * 1024.0 * 1024.0;
        peak_rss_mb = peak_rss_mb.max(server.mem_mb("VmHWM")?);
        for (k, v) in measure::stats_delta(&stats_before, &stats_after) {
            *stats.entry(k).or_default() += v;
        }
        throughput.push(window.throughput);
        match &mut first {
            None => first = Some((plan, warm, window)),
            Some((_, first_warm, merged)) => {
                // Same inputs on a fresh server: the same answers.
                if &warm != first_warm || window.bodies != merged.bodies {
                    merged.fail(format!("round {round} answered differently from round 0"));
                }
                merged.absorb(window);
            }
        }
        if round + 1 < rounds {
            server.shutdown()?;
        } else {
            let plans_materialized = stats_after
                .get("service")
                .and_then(|s| s.get("plans_materialized"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            last_server = Some((server, plans_materialized));
        }
    }
    let (plan, warm, mut window) = first.expect("at least one round ran");
    let (server, plans_materialized) = last_server.expect("the last round keeps its server");

    // The live plans' answers at the final version: what every restart
    // must serve again, and what the reference checks for `write_mix`.
    let last = ask_pool(&server, &plan.pool)?;
    let disk_bytes = newest_snapshot_and_wal_bytes(&data_dir);

    let mut recovery_s = Vec::new();
    let mut replayed_ops = 0.0;
    let mut server = server;
    if cfg.workload == Workload::WriteMix || cfg.always_restart {
        let restarts = if cfg.smoke { 2 } else { RESTARTS };
        for _ in 0..restarts {
            server.kill9();
            let started = Instant::now();
            server = Server::spawn(&spec)?;
            let mut c = Conn::new(server.addr);
            // Timed to the first answer: a regime query where there is one.
            let probe = plan.pool.len().min(2) - 1;
            post_query(&mut c, &plan.pool[probe])?;
            recovery_s.push(started.elapsed().as_secs_f64());
            // A durable server must be back at the last acknowledged
            // version with the answers it gave before the crash (the
            // version is part of the body). The other workloads restart
            // from the graph file.
            if cfg.workload == Workload::WriteMix {
                for (i, q) in plan.pool.iter().enumerate() {
                    if post_query(&mut c, q)?.body != last[&i] {
                        window.fail(format!(
                            "after restart: {:?} does not answer as at acked version {}",
                            q.text, window.acked_version
                        ));
                    }
                }
            }
            let stats = c.get_json("/stats")?;
            replayed_ops = stats
                .get("engine")
                .and_then(|e| e.get("recovery_replayed_ops"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
        }
    }
    server.shutdown()?;

    verify(&plan, &warm, &last, &mut window);
    Ok(Live {
        plan,
        setup_s,
        throughput,
        window,
        stats,
        plans_materialized,
        peak_rss_mb,
        rss_growth_bytes,
        disk_bytes,
        recovery_s,
        replayed_ops,
    })
}

/// Bytes of the newest snapshot file plus the WAL: what a restart reads.
fn newest_snapshot_and_wal_bytes(data_dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(data_dir) else {
        return 0;
    };
    let mut files: Vec<(String, u64)> = entries
        .filter_map(|e| {
            let e = e.ok()?;
            Some((e.file_name().into_string().ok()?, e.metadata().ok()?.len()))
        })
        .collect();
    files.sort();
    let newest_snapshot = files
        .iter()
        .rfind(|(name, _)| name.starts_with("snap-"))
        .map_or(0, |(_, len)| *len);
    let wal: u64 = files
        .iter()
        .filter(|(name, _)| name.starts_with("wal"))
        .map(|(_, len)| *len)
        .sum();
    newest_snapshot + wal
}

/// Closed loop, two keep-alive clients, every plan already materialized:
/// HTTP, answer decode and JSON with the chase idle.
fn hot_read(
    server: &Server,
    pool: &[Query],
    draws: &[Vec<usize>; 2],
    warm: &BTreeMap<usize, String>,
) -> Window {
    let started = Instant::now();
    let parts: Vec<Window> = std::thread::scope(|scope| {
        let clients: Vec<_> = draws
            .iter()
            .map(|draws| {
                scope.spawn(move || {
                    let mut w = Window::default();
                    let mut conn = Conn::new(server.addr);
                    for &i in draws {
                        w.attempted += 1;
                        match post_query(&mut conn, &pool[i]) {
                            Ok(r) => {
                                w.op_ms.push(ms(r.elapsed));
                                w.query_ms.push((i, ms(r.elapsed)));
                                w.body_bytes += r.body.len() as u64;
                                // The graph is static: every answer to a
                                // text is byte-identical to the warm-up's.
                                if r.body != warm[&i] {
                                    w.fail(format!("{:?}: body changed", pool[i].text));
                                }
                            }
                            Err(e) => w.fail(e),
                        }
                    }
                    // This client's own rate: the other may finish later.
                    w.throughput = w.op_ms.len() as f64 / started.elapsed().as_secs_f64();
                    w
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let mut w = Window {
        elapsed: started.elapsed(),
        ..Window::default()
    };
    for p in parts {
        w.op_ms.extend(p.op_ms);
        w.query_ms.extend(p.query_ms);
        w.attempted += p.attempted;
        w.failed += p.failed;
        w.body_bytes += p.body_bytes;
        w.throughput += p.throughput;
        w.errors.extend(p.errors);
    }
    w
}

/// Closed loop, one client, every text new: parse → translate → plan →
/// chase → decode on each request.
fn adhoc_query(server: &Server, queries: &[Query]) -> Window {
    let mut w = Window::default();
    let mut conn = Conn::new(server.addr);
    let started = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        w.attempted += 1;
        match post_query(&mut conn, q) {
            Ok(r) => {
                w.op_ms.push(ms(r.elapsed));
                w.query_ms.push((i, ms(r.elapsed)));
                w.body_bytes += r.body.len() as u64;
                w.bodies.insert(i, r.body);
            }
            Err(e) => w.fail(e),
        }
    }
    w.elapsed = started.elapsed();
    w.throughput = w.op_ms.len() as f64 / w.elapsed.as_secs_f64();
    w
}

/// One writer posts the update stream while one reader loops the live
/// plans until the writer is done.
fn write_mix(server: &Server, pool: &[Query], updates: &[Update]) -> Window {
    let finished = AtomicBool::new(false);
    let started = Instant::now();
    let (mut w, reader) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut w = Window::default();
            let mut conn = Conn::new(server.addr);
            let mut version = 0u64;
            let mut i = 0usize;
            while !finished.load(Ordering::Acquire) {
                // Paced, not saturating: an unpaced reader and its HTTP
                // worker keep a core busy between them, and on two cores
                // the writer's latency then measures scheduling luck.
                std::thread::sleep(READER_PAUSE);
                let id = i % pool.len();
                i += 1;
                w.attempted += 1;
                match post_query(&mut conn, &pool[id]) {
                    Ok(r) => {
                        w.query_ms.push((id, ms(r.elapsed)));
                        w.body_bytes += r.body.len() as u64;
                        // Snapshot versions never go backwards on one
                        // connection. (The prefix is parsed by hand: a
                        // full parse per request would slow the loop.)
                        let seen = r
                            .body
                            .strip_prefix("{\"version\":")
                            .and_then(|rest| rest.split(',').next()?.parse::<u64>().ok());
                        match seen {
                            Some(v) if v >= version => version = v,
                            other => {
                                w.fail(format!("reader saw version {other:?} after {version}"))
                            }
                        }
                    }
                    Err(e) => w.fail(e),
                }
            }
            w
        });
        let mut w = Window::default();
        let mut conn = Conn::new(server.addr);
        // The server was just started: its op-log version is 0.
        let mut version = 0i64;
        for u in updates {
            w.attempted += 1;
            match conn.post("/update", &u.body) {
                Ok(r) if r.status == 200 => {
                    w.op_ms.push(ms(r.elapsed));
                    let ack = crate::json::parse(&r.body).unwrap_or(Value::Null);
                    let field =
                        |name: &str| ack.get(name).and_then(Value::as_f64).unwrap_or(-1.0) as i64;
                    // Every operation is effective, so each ack advances
                    // the version by the size of its batch.
                    let expected = version + (u.inserts + u.deletes) as i64;
                    if (
                        field("inserted"),
                        field("deleted"),
                        field("batched"),
                        field("version"),
                    ) != (u.inserts as i64, u.deletes as i64, 1, expected)
                    {
                        w.fail(format!("update acked {} for {:?}", r.body, u.body));
                    }
                    version = field("version");
                    w.inserted += u.inserts as u64;
                }
                Ok(r) => w.fail(format!("/update: status {}: {}", r.status, r.body)),
                Err(e) => w.fail(e),
            }
        }
        w.acked_version = version.max(0) as u64;
        w.elapsed = started.elapsed();
        w.throughput = w.op_ms.len() as f64 / w.elapsed.as_secs_f64();
        finished.store(true, Ordering::Release);
        (w, reader.join().expect("reader thread panicked"))
    });
    w.query_ms = reader.query_ms;
    w.attempted += reader.attempted;
    w.failed += reader.failed;
    w.body_bytes = reader.body_bytes;
    w.errors.extend(reader.errors);
    w
}

/// One client posts the documents one after another, then asks one new
/// `ku` question about the last one.
fn bulk_load(server: &Server, docs: &[Abox], final_query: &Query, final_rows: &[String]) -> Window {
    let mut w = Window::default();
    let mut conn = Conn::new(server.addr);
    let started = Instant::now();
    for doc in docs {
        w.attempted += 1;
        match conn.post("/load", &doc.ttl) {
            Ok(r) if r.status == 200 => {
                w.op_ms.push(ms(r.elapsed));
                let ack = crate::json::parse(&r.body).unwrap_or(Value::Null);
                let field = |name: &str| ack.get(name).and_then(Value::as_f64).unwrap_or(-1.0);
                if field("triples") != doc.triples as f64 || field("inserted") != doc.triples as f64
                {
                    w.fail(format!(
                        "/load acked {} for {} distinct triples",
                        r.body, doc.triples
                    ));
                }
                w.inserted += doc.triples as u64;
                w.acked_version = field("version").max(0.0) as u64;
            }
            Ok(r) => w.fail(format!("/load: status {}: {}", r.status, r.body)),
            Err(e) => w.fail(e),
        }
    }
    w.elapsed = started.elapsed();
    w.throughput = w.inserted as f64 / w.elapsed.as_secs_f64();
    w.attempted += 1;
    match post_query(&mut conn, final_query) {
        Ok(r) => {
            w.query_ms.push((0, ms(r.elapsed)));
            w.body_bytes += r.body.len() as u64;
            let expected: Vec<Vec<Option<String>>> =
                final_rows.iter().map(|f| vec![Some(f.clone())]).collect();
            match parse_answer(&r.body) {
                Ok(a) if !a.top && a.rows == expected && a.version == w.acked_version => {
                    w.answer_rows += a.rows.len() as u64;
                }
                other => w.fail(format!(
                    "final query: expected {} professors at version {}, got {other:?}",
                    expected.len(),
                    w.acked_version
                )),
            }
        }
        Err(e) => w.fail(e),
    }
    w
}

/// Row-set checks against the from-scratch reference (and row counting
/// for the waste ratio). `bulk_load` was checked analytically in its
/// window: building a reference over everything it loaded would cost
/// more than the workload.
fn verify(
    plan: &Plan,
    warm: &BTreeMap<usize, String>,
    last: &BTreeMap<usize, String>,
    w: &mut Window,
) {
    if matches!(plan.phase, Phase::BulkLoad { .. }) {
        return;
    }
    let mut reference = match Reference::new(&plan.graph_ttl, gen::RULES_DL) {
        Ok(r) => r,
        Err(e) => return w.fail(format!("reference: {e}")),
    };
    let check = |reference: &mut Reference, q: &Query, body: &str, w: &mut Window| {
        if let Err(e) = reference.check(q, body) {
            w.fail(e);
        }
    };
    // Set-up answers are over the base graph in every workload.
    for (i, q) in plan.pool.iter().enumerate() {
        check(&mut reference, q, &warm[&i], w);
    }
    match &plan.phase {
        Phase::HotRead { .. } => {
            let rows: BTreeMap<usize, u64> = warm
                .iter()
                .map(|(i, b)| (*i, parse_answer(b).map_or(0, |a| a.rows.len() as u64)))
                .collect();
            w.answer_rows = w.query_ms.iter().map(|(i, _)| rows[i]).sum();
        }
        Phase::Adhoc { queries } => {
            for (i, body) in &w.bodies.clone() {
                w.answer_rows += parse_answer(body).map_or(0, |a| a.rows.len() as u64);
                if i % ADHOC_VERIFY_STRIDE == 0 {
                    check(&mut reference, &queries[*i], body, w);
                }
            }
        }
        Phase::WriteMix { updates } => {
            for u in updates {
                if let Err(e) = reference.update(&u.body) {
                    return w.fail(format!("reference update: {e}"));
                }
            }
            for (i, q) in plan.pool.iter().enumerate() {
                match parse_answer(&last[&i]) {
                    Ok(a) if a.version == w.acked_version => {}
                    other => w.fail(format!(
                        "final answer not at acked version {}: {other:?}",
                        w.acked_version
                    )),
                }
                check(&mut reference, q, &last[&i], w);
            }
        }
        Phase::BulkLoad { .. } => {}
    }
}
