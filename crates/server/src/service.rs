//! The query service: protocol handlers over a [`SharedSession`].
//!
//! One [`QueryService`] owns the engine, the shared snapshot-isolated
//! session, a bounded prepared-query cache and the **single writer
//! thread**. Readers (`POST /query`, `GET /stats`) run entirely on the
//! HTTP worker threads against published snapshots; mutations
//! (`POST /update`) are queued to the writer thread, which nets every
//! delta waiting in the queue into one batch, applies it through the
//! incremental maintenance path, and publishes the new snapshot before
//! replying — so concurrent writers coalesce instead of convoying.
//!
//! The wire format (endpoints, parameters, response shapes, error-code
//! mapping) is specified in `docs/PROTOCOL.md`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use triq::datalog::demand;
use triq::prelude::*;
use triq::translate::star;
use triq_common::json::Json;
use triq_obs::{self as obs, Counter, Exposition, Histogram, Recorder, Telemetry};
use triq_persist::Persistence;

use crate::http::{Handler, Request, Response, ServerControl};

/// Upper bound on distinct prepared queries kept hot, each with the
/// last body rendered for it. When full the cache is cleared wholesale
/// (coarse but bounded; re-preparing and re-rendering are always
/// correct — and the session's own view cache is bounded separately).
const MAX_PREPARED: usize = 64;

/// Upper bound on retained slow-query entries (oldest evicted first).
const MAX_SLOW_QUERIES: usize = 64;

/// Triples per writer batch for `POST /load`: large enough to amortize
/// the per-batch snapshot publish, small enough that concurrent
/// `POST /update` traffic interleaves between batches.
const LOAD_BATCH: usize = 4096;

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Allow `POST /shutdown` to stop the server (used by tests and the
    /// CI smoke; off by default).
    pub enable_shutdown: bool,
    /// Upper bound on updates queued to the writer thread. When the
    /// queue is full, `POST /update` fails fast with `503 E-RESOURCE`
    /// instead of growing the backlog without limit (default 1024).
    pub queue_cap: usize,
    /// Queries at or above this latency are captured in the slow-query
    /// log — query text, plan, and per-stratum timing breakdown
    /// (default 500 ms; `0` captures every query).
    pub slow_query_ms: u64,
    /// The telemetry recorder the service reports through. Pass the
    /// same object installed on the engine
    /// ([`EngineBuilder::recorder`](triq::EngineBuilder::recorder)) so
    /// chase spans and request spans land in one tracer; when `None`
    /// the service creates a private one (HTTP metrics only).
    pub telemetry: Option<Arc<Telemetry>>,
    /// Wall-clock budget for one `POST /query` evaluation, in
    /// milliseconds (`0` = unlimited, the default). The deadline is
    /// installed as the handler thread's ambient deadline
    /// (`triq_common::deadline`) and polled by the chase between rounds
    /// and every ~1024 derivations; exceeding it answers
    /// `503 E-RESOURCE` and ticks the engine's `deadline_exceeded`
    /// counter. Requests that complete are byte-identical to an
    /// unbounded run.
    pub read_deadline_ms: u64,
    /// Upper bound on `POST /query` requests evaluated concurrently
    /// (`0` = unlimited, the default). Excess requests fail fast with
    /// `503 E-RESOURCE` — the same contract as the bounded update
    /// queue — and tick the engine's `requests_rejected` counter.
    pub max_concurrent_reads: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            enable_shutdown: false,
            queue_cap: 1024,
            slow_query_ms: 500,
            telemetry: None,
            read_deadline_ms: 0,
            max_concurrent_reads: 0,
        }
    }
}

/// One queued mutation: the parsed delta plus the channel the writer
/// thread replies on. The reply is `Err` when the write-ahead log
/// rejected the batch — in that case it was **not** applied.
struct UpdateJob {
    delta: Delta,
    reply: mpsc::SyncSender<Result<(AppliedDelta, usize), TriqError>>,
}

/// An in-flight-reads token (see [`ServiceConfig::max_concurrent_reads`]);
/// releases its slot on drop, error paths included.
struct ReadPermit<'a>(&'a AtomicU64);

impl Drop for ReadPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The serving layer's application object; implements [`Handler`].
pub struct QueryService {
    engine: Engine,
    shared: SharedSession,
    config: ServiceConfig,
    prepared: Mutex<HashMap<QueryKey, Arc<Prepared>>>,
    update_tx: Mutex<Option<mpsc::SyncSender<UpdateJob>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
    queries_served: AtomicU64,
    bodies_rendered: AtomicU64,
    updates_applied: AtomicU64,
    active_reads: AtomicU64,
    telemetry: Arc<Telemetry>,
    started: Instant,
    next_request: AtomicU64,
    request_hist: Histogram,
    requests_by_status: Mutex<BTreeMap<u16, u64>>,
    slow_queries: Mutex<VecDeque<Json>>,
}

/// Prepared-query cache key: everything that shapes the compiled plan.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct QueryKey {
    lang: Lang,
    regime: Semantics,
    output: Option<String>,
    text: String,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Lang {
    Sparql,
    Datalog,
}

/// One row of the prepared-query table: the compiled plan and the body
/// last rendered for it.
struct Prepared {
    query: PreparedQuery,
    /// The answer set last rendered for this text, with the body *tail*
    /// it rendered to (everything after the `version` member). The body
    /// of a request is a function of the text and the published
    /// `Arc<Answers>` alone, so a request whose snapshot hands back the
    /// very `Arc` held here is answered from the tail. Holding the `Arc`
    /// is what makes the pointer comparison sound: its allocation cannot
    /// be freed and reused for other answers while it is the memo's key.
    rendered: Mutex<Option<(Arc<Answers>, Arc<str>)>>,
}

impl QueryService {
    /// Builds the service over a session (spawning the writer thread).
    /// Updates are applied in memory only; for crash safety use
    /// [`QueryService::from_shared`] with a [`Persistence`] handle.
    pub fn new(engine: Engine, session: Session, config: ServiceConfig) -> Arc<QueryService> {
        QueryService::from_shared(engine, session.into_shared(), None, config)
    }

    /// Builds the service over an already-shared session, optionally
    /// durable: with a [`Persistence`] handle, the writer thread logs
    /// every netted batch to the WAL *before* applying it (an update is
    /// only acknowledged once it is recoverable) and checkpoints on the
    /// handle's policy. This is the constructor `triq-cli serve
    /// --data-dir` uses after recovery.
    pub fn from_shared(
        engine: Engine,
        shared: SharedSession,
        persistence: Option<Persistence>,
        config: ServiceConfig,
    ) -> Arc<QueryService> {
        let (tx, rx) = mpsc::sync_channel::<UpdateJob>(config.queue_cap.max(1));
        let telemetry = config.telemetry.clone().unwrap_or_else(Telemetry::new);
        let service = Arc::new(QueryService {
            engine,
            shared: shared.clone(),
            config,
            prepared: Mutex::new(HashMap::new()),
            update_tx: Mutex::new(Some(tx)),
            writer: Mutex::new(None),
            queries_served: AtomicU64::new(0),
            bodies_rendered: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            active_reads: AtomicU64::new(0),
            telemetry,
            started: Instant::now(),
            next_request: AtomicU64::new(0),
            request_hist: Histogram::new(),
            requests_by_status: Mutex::new(BTreeMap::new()),
            slow_queries: Mutex::new(VecDeque::new()),
        });
        let writer = std::thread::spawn(move || writer_loop(shared, rx, persistence));
        *service.writer.lock().expect("writer handle poisoned") = Some(writer);
        service
    }

    /// The shared session (mainly for in-process tests and benches).
    pub fn shared(&self) -> &SharedSession {
        &self.shared
    }

    /// Stops the writer thread (idempotent). In-flight updates drain
    /// first; later `POST /update` requests fail with `503`.
    pub fn stop_writer(&self) {
        self.update_tx
            .lock()
            .expect("update channel poisoned")
            .take();
        if let Some(w) = self.writer.lock().expect("writer handle poisoned").take() {
            let _ = w.join();
        }
    }

    // -- /query ---------------------------------------------------------

    /// Takes an in-flight-reads token, or the ready-to-send `503` when
    /// the concurrency gate is full.
    fn read_permit(&self) -> Result<Option<ReadPermit<'_>>, Response> {
        let cap = self.config.max_concurrent_reads;
        if cap == 0 {
            return Ok(None);
        }
        if self.active_reads.fetch_add(1, Ordering::AcqRel) >= cap as u64 {
            self.active_reads.fetch_sub(1, Ordering::AcqRel);
            self.engine.counters().add(Counter::RequestsRejected, 1);
            return Err(Response::error(
                503,
                "E-RESOURCE",
                &format!("read concurrency limit ({cap}) reached — retry later"),
            ));
        }
        Ok(Some(ReadPermit(&self.active_reads)))
    }

    /// Installs this request's ambient evaluation deadline on the
    /// handler thread (a snapshot miss materializes right here, so the
    /// chase sees it), or `None` when deadlines are off.
    fn install_deadline(&self) -> Option<triq_common::deadline::DeadlineGuard> {
        (self.config.read_deadline_ms > 0).then(|| {
            triq_common::deadline::install(
                Instant::now() + Duration::from_millis(self.config.read_deadline_ms),
            )
        })
    }

    fn handle_query(&self, req: &Request, rid: u64) -> Response {
        let _permit = match self.read_permit() {
            Ok(p) => p,
            Err(resp) => return resp,
        };
        let deadline = self.install_deadline();
        let text = match req.body_str() {
            Ok(t) => t,
            Err(resp) => return resp,
        };
        if text.trim().is_empty() {
            return Response::error(400, "E-HTTP-BAD-REQUEST", "empty query body");
        }
        let lang = match req.param("lang") {
            None | Some("sparql") => Lang::Sparql,
            Some("datalog") => Lang::Datalog,
            Some(other) => {
                return Response::error(
                    400,
                    "E-HTTP-BAD-REQUEST",
                    &format!("unknown lang `{other}` (expected sparql|datalog)"),
                )
            }
        };
        let regime = match req.param("regime") {
            None | Some("plain") => Semantics::Plain,
            Some("ku") => Semantics::RegimeU,
            Some("kall") => Semantics::RegimeAll,
            Some(other) => {
                return Response::error(
                    400,
                    "E-HTTP-BAD-REQUEST",
                    &format!("unknown regime `{other}` (expected plain|ku|kall)"),
                )
            }
        };
        let output = req.param("output").map(str::to_owned);
        if lang == Lang::Datalog && output.is_none() {
            return Response::error(
                400,
                "E-HTTP-BAD-REQUEST",
                "datalog queries need an `output` parameter",
            );
        }
        let key = QueryKey {
            lang,
            regime,
            output,
            text: text.to_owned(),
        };
        let started = Instant::now();
        let prepared = match self.prepare_cached(&key) {
            Ok(p) => p,
            Err(e) => return triq_error_response(&e),
        };
        let result = self.run_prepared(&prepared);
        let elapsed = started.elapsed();
        if elapsed.as_millis() as u64 >= self.config.slow_query_ms {
            self.capture_slow_query(rid, &key, &prepared.query, elapsed.as_nanos() as u64);
        }
        match result {
            Ok(body) => {
                self.queries_served.fetch_add(1, Ordering::Relaxed);
                Response::json_body(200, body)
            }
            Err(e) => {
                // Attribute the failure to the deadline only when the
                // installed deadline has actually passed — an atom-budget
                // E-RESOURCE inside the same request stays distinct.
                if e.code() == "E-RESOURCE"
                    && deadline.is_some()
                    && triq_common::deadline::expired()
                {
                    self.engine.counters().add(Counter::DeadlineExceeded, 1);
                }
                triq_error_response(&e)
            }
        }
    }

    /// Records one slow query — text, compiled plan, and the per-stratum
    /// chase timing breakdown pulled from this request's tracer spans —
    /// in the bounded slow-query ring (and the event log, if any).
    fn capture_slow_query(&self, rid: u64, key: &QueryKey, q: &PreparedQuery, dur_ns: u64) {
        let strata: Vec<Json> = self
            .telemetry
            .tracer()
            .for_context(rid)
            .iter()
            .filter(|s| s.name == "stratum")
            .map(|s| {
                Json::obj([
                    ("stratum", Json::U64(s.detail)),
                    ("ns", Json::U64(s.dur_ns)),
                ])
            })
            .collect();
        let entry = Json::obj([
            ("event", Json::str("slow_query")),
            ("id", Json::U64(rid)),
            (
                "lang",
                Json::str(match key.lang {
                    Lang::Sparql => "sparql",
                    Lang::Datalog => "datalog",
                }),
            ),
            ("query", Json::str(&key.text)),
            ("latency_us", Json::U64(dur_ns / 1_000)),
            ("plan", Json::str(q.program().to_string())),
            ("strata", Json::arr(strata)),
        ]);
        if self.telemetry.events().enabled() {
            self.telemetry.events().log(&entry);
        }
        let mut ring = self.slow_queries.lock().expect("slow-query ring poisoned");
        if ring.len() >= MAX_SLOW_QUERIES {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    fn prepare_cached(&self, key: &QueryKey) -> Result<Arc<Prepared>, TriqError> {
        // Double-checked: the cache lock is never held across the
        // (possibly expensive) prepare, so one slow first-time prepare
        // does not convoy the snapshot-served reads of other threads. A
        // racing duplicate prepare is harmless — last insert wins.
        if let Some(p) = self
            .prepared
            .lock()
            .expect("prepared cache poisoned")
            .get(key)
        {
            return Ok(p.clone());
        }
        let query = match key.lang {
            Lang::Sparql => {
                let select = parse_select(&key.text)?;
                self.engine.prepare((select, key.regime))?
            }
            Lang::Datalog => {
                let output = key.output.as_deref().expect("validated by handle_query");
                self.engine.prepare(Datalog(&key.text, output))?
            }
        };
        let prepared = Arc::new(Prepared {
            query,
            rendered: Mutex::new(None),
        });
        let mut cache = self.prepared.lock().expect("prepared cache poisoned");
        if cache.len() >= MAX_PREPARED {
            cache.clear();
        }
        cache.insert(key.clone(), prepared.clone());
        Ok(prepared)
    }

    /// The response body for one execution: `{"version":N,` and the
    /// tail rendered from the answers — rows and version from the same
    /// snapshot (lock-free when the plan is already materialized; the
    /// engine's execution/cache-hit counters tick either way). The tail
    /// is rendered only when the snapshot's answer set is not the one the
    /// entry last rendered; rendering happens outside the memo lock, and
    /// of two racing renders the last one stored wins.
    fn run_prepared(&self, prepared: &Prepared) -> Result<Vec<u8>, TriqError> {
        let (answers, version) = self.shared.answers_versioned(&prepared.query)?;
        // The memo is one `Option` assigned whole, so a poisoned lock
        // still guards a valid value.
        let memo = || {
            prepared
                .rendered
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        };
        let hit = match &*memo() {
            Some((of, tail)) if Arc::ptr_eq(of, &answers) => Some(tail.clone()),
            _ => None,
        };
        let tail = hit.unwrap_or_else(|| {
            let tail = answers_tail(&prepared.query, &answers);
            self.bodies_rendered.fetch_add(1, Ordering::Relaxed);
            *memo() = Some((answers, tail.clone()));
            tail
        });
        let mut body = format!("{{\"version\":{version},").into_bytes();
        body.extend_from_slice(tail.as_bytes());
        Ok(body)
    }

    // -- /update --------------------------------------------------------

    fn handle_update(&self, req: &Request) -> (Response, u64) {
        let text = match req.body_str() {
            Ok(t) => t,
            Err(resp) => return (resp, 0),
        };
        let delta = match parse_update_text(text) {
            Ok(d) => d,
            Err(e) => return (triq_error_response(&e), 0),
        };
        if delta.is_empty() {
            return (
                Response::json(
                    200,
                    &Json::obj([
                        ("version", Json::U64(self.shared.version())),
                        ("inserted", Json::U64(0)),
                        ("deleted", Json::U64(0)),
                        ("batched", Json::U64(0)),
                    ]),
                ),
                0,
            );
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let sent = {
            let tx = self.update_tx.lock().expect("update channel poisoned");
            match tx.as_ref() {
                Some(tx) => match tx.try_send(UpdateJob {
                    delta,
                    reply: reply_tx,
                }) {
                    Ok(()) => true,
                    Err(mpsc::TrySendError::Full(_)) => {
                        // Bounded backpressure: fail fast instead of
                        // queueing without limit behind a slow apply.
                        return (
                            Response::error(
                                503,
                                "E-RESOURCE",
                                &format!(
                                    "update queue is full ({} pending) — retry later",
                                    self.config.queue_cap
                                ),
                            ),
                            0,
                        );
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => false,
                },
                None => false,
            }
        };
        if !sent {
            return (
                Response::error(503, "E-HTTP-UNAVAILABLE", "writer is shut down"),
                0,
            );
        }
        match reply_rx.recv() {
            Ok(Ok((applied, batched))) => {
                self.updates_applied.fetch_add(1, Ordering::Relaxed);
                (
                    Response::json(
                        200,
                        &Json::obj([
                            ("version", Json::U64(applied.version)),
                            ("inserted", Json::U64(applied.inserted as u64)),
                            ("deleted", Json::U64(applied.deleted as u64)),
                            ("batched", Json::U64(batched as u64)),
                        ]),
                    ),
                    batched as u64,
                )
            }
            // The WAL rejected the batch: nothing was applied, the
            // server keeps serving its current state.
            Ok(Err(e)) => (triq_error_response(&e), 0),
            Err(_) => (
                Response::error(503, "E-HTTP-UNAVAILABLE", "writer stopped mid-update"),
                0,
            ),
        }
    }

    // -- /load ----------------------------------------------------------

    /// Bulk-ingests a Turtle-lite body: the whole stream is parsed first,
    /// on this worker's thread, so a torn or malformed stream is
    /// rejected with `400` and **nothing** applied, then the triples go
    /// through the writer thread in batches with *blocking* sends — the
    /// bounded queue throttles a large load instead of failing it the
    /// way `POST /update` fails fast.
    fn handle_load(&self, req: &Request) -> (Response, u64) {
        let text = match req.body_str() {
            Ok(t) => t,
            Err(resp) => return (resp, 0),
        };
        if text.trim().is_empty() {
            return (
                Response::error(400, "E-HTTP-BAD-REQUEST", "empty load body"),
                0,
            );
        }
        let graph = match parse_turtle(text) {
            Ok(g) => g,
            Err(e) => return (triq_error_response(&e), 0),
        };
        let triple = intern("triple");
        let facts: Vec<Fact> = graph
            .iter()
            .map(|t| Fact::new(triple, vec![t.s, t.p, t.o]))
            .collect();
        let mut inserted = 0u64;
        let mut batches = 0u64;
        let mut version = self.shared.version();
        for chunk in facts.chunks(LOAD_BATCH) {
            let mut delta = Delta::new();
            for f in chunk {
                delta.add_insert(f.clone());
            }
            // Clone the sender out of the lock before the blocking send:
            // a full queue must never hold the mutex against /update's
            // fail-fast try_send.
            let tx = self
                .update_tx
                .lock()
                .expect("update channel poisoned")
                .clone();
            let Some(tx) = tx else {
                return (
                    Response::error(503, "E-HTTP-UNAVAILABLE", "writer is shut down"),
                    batches,
                );
            };
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            if tx
                .send(UpdateJob {
                    delta,
                    reply: reply_tx,
                })
                .is_err()
            {
                return (
                    Response::error(503, "E-HTTP-UNAVAILABLE", "writer is shut down"),
                    batches,
                );
            }
            match reply_rx.recv() {
                Ok(Ok((applied, _))) => {
                    inserted += applied.inserted as u64;
                    version = applied.version;
                    batches += 1;
                }
                // The WAL rejected a batch: earlier batches are applied
                // (and recoverable), this one and later ones are not.
                Ok(Err(e)) => return (triq_error_response(&e), batches),
                Err(_) => {
                    return (
                        Response::error(503, "E-HTTP-UNAVAILABLE", "writer stopped mid-load"),
                        batches,
                    )
                }
            }
        }
        self.updates_applied.fetch_add(1, Ordering::Relaxed);
        (
            Response::json(
                200,
                &Json::obj([
                    ("version", Json::U64(version)),
                    ("triples", Json::U64(graph.len() as u64)),
                    ("inserted", Json::U64(inserted)),
                    ("batches", Json::U64(batches)),
                ]),
            ),
            batches,
        )
    }

    // -- /stats ---------------------------------------------------------

    fn handle_stats(&self) -> Response {
        let snap = self.shared.snapshot();
        let by_status = self
            .requests_by_status
            .lock()
            .expect("status counters poisoned");
        let requests_total: u64 = by_status.values().sum();
        let status_obj = Json::obj(
            by_status
                .iter()
                .map(|(status, n)| (status.to_string(), Json::U64(*n))),
        );
        Response::json(
            200,
            &Json::obj([
                ("engine", self.engine.stats().to_json()),
                (
                    "service",
                    Json::obj([
                        (
                            "queries_served",
                            Json::U64(self.queries_served.load(Ordering::Relaxed)),
                        ),
                        (
                            "bodies_rendered",
                            Json::U64(self.bodies_rendered.load(Ordering::Relaxed)),
                        ),
                        (
                            "updates_applied",
                            Json::U64(self.updates_applied.load(Ordering::Relaxed)),
                        ),
                        ("version", Json::U64(snap.version())),
                        ("plans_materialized", Json::U64(snap.plans() as u64)),
                        (
                            "uptime_seconds",
                            Json::U64(self.started.elapsed().as_secs()),
                        ),
                        ("requests_total", Json::U64(requests_total)),
                        ("requests_by_status", status_obj),
                    ]),
                ),
            ]),
        )
    }

    // -- /metrics -------------------------------------------------------

    /// The Prometheus exposition: every phase histogram of the shared
    /// telemetry, the HTTP request-latency histogram, requests-by-status
    /// counters, uptime, trace-ring occupancy, and the engine's counter
    /// table. Rendering is deterministic for equal state
    /// (name-sorted families, integer values).
    fn handle_metrics(&self) -> Response {
        let mut e = Exposition::new();
        self.telemetry.export(&mut e);
        e.histogram(
            "triq_http_request_ns",
            "HTTP request latency end-to-end, ns",
            &self.request_hist.snapshot(),
        );
        {
            let by_status = self
                .requests_by_status
                .lock()
                .expect("status counters poisoned");
            const REQ_HELP: &str = "HTTP requests served, by status code";
            if by_status.is_empty() {
                // Keep the family present from the very first scrape.
                e.counter_with(
                    "triq_http_requests_total",
                    REQ_HELP,
                    &[("status", "200")],
                    0,
                );
            }
            for (status, n) in by_status.iter() {
                e.counter_with(
                    "triq_http_requests_total",
                    REQ_HELP,
                    &[("status", &status.to_string())],
                    *n,
                );
            }
        }
        e.gauge(
            "triq_uptime_seconds",
            "Seconds since the service started",
            self.started.elapsed().as_secs(),
        );
        e.gauge(
            "triq_trace_spans",
            "Completed spans held in the trace ring",
            self.telemetry.tracer().len() as u64,
        );
        e.counter(
            "triq_trace_dropped_total",
            "Spans evicted from the trace ring",
            self.telemetry.tracer().dropped(),
        );
        e.counter(
            "triq_service_queries_served_total",
            "Successful POST /query requests",
            self.queries_served.load(Ordering::Relaxed),
        );
        e.counter(
            "triq_service_bodies_rendered_total",
            "POST /query answer bodies rendered (the rest were served from the per-text memo)",
            self.bodies_rendered.load(Ordering::Relaxed),
        );
        e.counter(
            "triq_service_updates_applied_total",
            "Successful POST /update requests",
            self.updates_applied.load(Ordering::Relaxed),
        );
        self.engine.stats().export(&mut e);
        Response::text(200, e.render())
    }

    // -- /version -------------------------------------------------------

    fn handle_version(&self) -> Response {
        Response::json(
            200,
            &Json::obj([
                ("version", Json::str(env!("CARGO_PKG_VERSION"))),
                (
                    "profile",
                    Json::str(if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }),
                ),
            ]),
        )
    }

    // -- /debug/trace, /debug/slow --------------------------------------

    fn handle_trace(&self, req: &Request) -> Response {
        let last = req
            .param("last")
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or(100);
        let tracer = self.telemetry.tracer();
        let spans = tracer.last(last);
        Response::json(
            200,
            &Json::obj([
                ("capacity", Json::U64(tracer.capacity() as u64)),
                ("dropped", Json::U64(tracer.dropped())),
                ("spans", Json::arr(spans.iter().map(|s| s.to_json()))),
            ]),
        )
    }

    fn handle_slow(&self) -> Response {
        let ring = self.slow_queries.lock().expect("slow-query ring poisoned");
        Response::json(
            200,
            &Json::obj([
                ("threshold_ms", Json::U64(self.config.slow_query_ms)),
                ("slow_queries", Json::arr(ring.iter().cloned())),
            ]),
        )
    }

    /// Routes one request (without the per-request instrumentation that
    /// [`Handler::handle`] wraps around it). The second component is the
    /// writer-batch size for the access log (updates only).
    fn dispatch(&self, req: &Request, ctl: &ServerControl, rid: u64) -> (Response, u64) {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/query") => (self.handle_query(req, rid), 0),
            ("POST", "/update") => self.handle_update(req),
            ("POST", "/load") => self.handle_load(req),
            ("GET", "/stats") => (self.handle_stats(), 0),
            ("GET", "/metrics") => (self.handle_metrics(), 0),
            ("GET", "/version") => (self.handle_version(), 0),
            ("GET", "/debug/trace") => (self.handle_trace(req), 0),
            ("GET", "/debug/slow") => (self.handle_slow(), 0),
            ("GET", "/health") => (
                Response::json(200, &Json::obj([("ok", Json::Bool(true))])),
                0,
            ),
            ("POST", "/shutdown") => {
                if self.config.enable_shutdown {
                    self.stop_writer();
                    ctl.request_shutdown();
                    (
                        Response::json(200, &Json::obj([("ok", Json::Bool(true))])),
                        0,
                    )
                } else {
                    (
                        Response::error(
                            403,
                            "E-HTTP-FORBIDDEN",
                            "shutdown endpoint disabled (start with --enable-shutdown)",
                        ),
                        0,
                    )
                }
            }
            (
                "POST" | "GET",
                "/query" | "/update" | "/load" | "/stats" | "/metrics" | "/version"
                | "/debug/trace" | "/debug/slow" | "/health" | "/shutdown",
            ) => (
                Response::error(405, "E-HTTP-METHOD", "wrong method for this endpoint"),
                0,
            ),
            _ => (
                Response::error(404, "E-HTTP-NOT-FOUND", "unknown endpoint"),
                0,
            ),
        }
    }
}

impl Handler for QueryService {
    /// Per-request instrumentation around the endpoint dispatch:
    /// assigns the request id, attributes this thread's spans to it,
    /// opens a `request` span, times the request into the latency
    /// histogram, ticks the per-status counter, emits one access-log
    /// line (when an event sink is configured), and stamps the
    /// `X-Request-Id` response header.
    fn handle(&self, req: &Request, ctl: &ServerControl) -> Response {
        let rid = self.next_request.fetch_add(1, Ordering::Relaxed) + 1;
        obs::set_context(rid);
        let started = Instant::now();
        let (resp, batched) = {
            let rec: &dyn Recorder = &*self.telemetry;
            let _span = obs::span(rec, "request", rid);
            self.dispatch(req, ctl, rid)
        };
        obs::set_context(0);
        let latency = started.elapsed();
        self.request_hist.observe(latency.as_nanos() as u64);
        *self
            .requests_by_status
            .lock()
            .expect("status counters poisoned")
            .entry(resp.status)
            .or_insert(0) += 1;
        if self.telemetry.events().enabled() {
            self.telemetry.events().log(&Json::obj([
                ("event", Json::str("access")),
                ("id", Json::U64(rid)),
                ("method", Json::str(&req.method)),
                ("path", Json::str(&req.path)),
                ("status", Json::U64(resp.status as u64)),
                ("latency_us", Json::U64(latency.as_micros() as u64)),
                ("bytes", Json::U64(resp.body.len() as u64)),
                ("batched", Json::U64(batched)),
            ]));
        }
        resp.with_header("X-Request-Id", rid.to_string())
    }
}

/// The writer loop: drain-and-net batching. Every job waiting in the
/// queue when an apply begins is folded into one netted delta (last
/// operation per fact wins, see [`Delta::net`]), applied once, and all
/// coalesced callers get the same published version back.
///
/// With a [`Persistence`] handle the loop runs the durability protocol:
/// the netted batch is appended to the WAL (at the pre-apply version)
/// **before** the apply — on a WAL failure nothing is applied and every
/// coalesced caller gets the error — and after the reply a checkpoint is
/// taken when the policy calls for one. A failed checkpoint is logged
/// and the server keeps serving (the WAL still covers the state): the
/// persistence handle backs off before retrying, so a persistent disk
/// error does not re-encode the whole session on every update, and the
/// failure shows up as `checkpoint_failures` in `GET /stats`.
fn writer_loop(
    shared: SharedSession,
    rx: mpsc::Receiver<UpdateJob>,
    mut persistence: Option<Persistence>,
) {
    while let Ok(first) = rx.recv() {
        let mut jobs = vec![first];
        while let Ok(more) = rx.try_recv() {
            jobs.push(more);
        }
        let net = Delta::net(jobs.iter().map(|j| &j.delta));
        let logged = match persistence.as_mut() {
            Some(p) => p.append(shared.version(), &net, shared.engine()),
            None => Ok(()),
        };
        match logged {
            Ok(()) => {
                let applied = shared.apply(&net);
                for job in &jobs {
                    let _ = job.reply.send(Ok((applied, jobs.len())));
                }
                if let Some(p) = persistence.as_mut() {
                    if let Err(e) = p.maybe_checkpoint(&shared) {
                        eprintln!("triq-server: checkpoint failed (still serving): {e}");
                    }
                }
            }
            Err(e) => {
                for job in &jobs {
                    let _ = job.reply.send(Err(e.clone()));
                }
            }
        }
    }
}

/// Parses one `+fact(a, b)` / `-fact(a, b)` update line.
pub fn parse_update_line(line: &str) -> Result<(bool, Fact), TriqError> {
    let (insert, rest) = match line.as_bytes().first() {
        Some(b'+') => (true, &line[1..]),
        Some(b'-') => (false, &line[1..]),
        _ => {
            return Err(TriqError::Parse {
                what: "update",
                message: format!("update line must start with '+' or '-': {line}"),
            })
        }
    };
    let atom = parse_atom(rest.trim())?;
    // The demand rewrite's namespace is closed to data exactly as
    // `Engine::prepare` closes it to programs.
    demand::reject_reserved(atom.pred)?;
    let args: Option<Vec<Symbol>> = atom.terms.iter().map(|t| t.as_const()).collect();
    let Some(args) = args else {
        return Err(TriqError::Parse {
            what: "update",
            message: format!("update facts must be ground over constants: {line}"),
        });
    };
    Ok((insert, Fact::new(atom.pred, args)))
}

/// Parses a whole `POST /update` body (one `±fact(…)` per line, `#`
/// comments and blank lines allowed) into a delta.
pub fn parse_update_text(text: &str) -> Result<Delta, TriqError> {
    let mut delta = Delta::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (insert, fact) = parse_update_line(line)?;
        if insert {
            delta.add_insert(fact);
        } else {
            delta.add_delete(fact);
        }
    }
    Ok(delta)
}

/// Maps a [`TriqError`] to the protocol's HTTP status (the table in
/// `docs/PROTOCOL.md`): malformed input is `400`, a well-formed but
/// rejected program is `422`, resource exhaustion is `503`, anything
/// else `500`.
pub fn http_status(e: &TriqError) -> u16 {
    match e.code() {
        "E-PARSE" => 400,
        "E-INVALID-PROGRAM" | "E-STRATIFY" | "E-OUTPUT-IN-BODY" | "E-LANG-MEMBERSHIP" => 422,
        "E-RESOURCE" => 503,
        _ => 500,
    }
}

fn triq_error_response(e: &TriqError) -> Response {
    Response::error(http_status(e), e.code(), &e.to_string())
}

/// Renders a query answer's body after its `version` member:
/// `"vars":[…],"top":…,"rows":[…]}` for a SPARQL-origin plan, without
/// `vars` for a Datalog one. The tail is a function of the plan and the
/// answer set only, which is what lets the service keep it per text.
fn answers_tail(q: &PreparedQuery, answers: &Answers) -> Arc<str> {
    // An unbound SPARQL cell holds ⋆ (§5.1) and is `null` on the wire;
    // a Datalog plan has no decoding, so every constant is a string.
    let unbound = q.vars().map(|_| star());
    // Sort by string content (unbound cells first): the store's own
    // order is by interner id, which depends on interning history, not
    // the data.
    let mut rows: Vec<Vec<Option<&str>>> = answers
        .tuples()
        .iter()
        .map(|t| {
            t.iter()
                .map(|&s| (Some(s) != unbound).then(|| s.as_str()))
                .collect()
        })
        .collect();
    rows.sort_unstable();
    let rows = Json::arr(rows.into_iter().map(|row| {
        Json::arr(
            row.into_iter()
                .map(|cell| cell.map_or(Json::Null, Json::str)),
        )
    }));
    // SPARQL-results convention: variable names without the `?` sigil.
    let vars = q.var_names().map(|names| {
        let names = names.into_iter().map(|v| v.trim_start_matches('?'));
        ("vars", Json::arr(names.map(Json::str)))
    });
    let members = [("top", Json::Bool(answers.is_top())), ("rows", rows)];
    let object = Json::obj(vars.into_iter().chain(members)).to_string();
    Arc::from(&object[1..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_text_parsing() {
        let d = parse_update_text("# comment\n+e(a, b)\n\n-e(b, c)\n+p(x)\n").unwrap();
        assert_eq!(d.inserts.len(), 2);
        assert_eq!(d.deletes.len(), 1);
        assert!(parse_update_text("e(a, b)").is_err());
        assert!(parse_update_text("+e(?X)").is_err());
    }

    #[test]
    fn status_mapping_covers_all_codes() {
        assert_eq!(
            http_status(&TriqError::Parse {
                what: "x",
                message: String::new()
            }),
            400
        );
        assert_eq!(http_status(&TriqError::Unstratifiable(String::new())), 422);
        assert_eq!(http_status(&TriqError::OutputInBody(String::new())), 422);
        assert_eq!(
            http_status(&TriqError::NotInLanguage {
                language: "x",
                reason: String::new()
            }),
            422
        );
        assert_eq!(
            http_status(&TriqError::ResourceExhausted(String::new())),
            503
        );
        assert_eq!(http_status(&TriqError::Other(String::new())), 500);
    }
}
