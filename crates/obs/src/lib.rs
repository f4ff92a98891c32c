//! # triq-obs — observability for the TriQ stack
//!
//! Std-only telemetry shared by every layer: the chase engine, the
//! incremental maintainer, the persistence subsystem and the HTTP
//! server all report through one object-safe [`Recorder`] trait.
//!
//! The trait has a **zero-cost no-op default** ([`Noop`]): every method
//! defaults to an empty body, `enabled()` defaults to `false`, and the
//! hot-path helpers ([`Timer`], [`span`]) read the clock only when the
//! recorder says it is enabled — so a disabled recorder costs one
//! virtual call and a branch per *coarse-grained* site, and the
//! innermost probe loops carry no hooks at all (the zero-alloc probe
//! contract in `probe_alloc.rs` is unaffected).
//!
//! The concrete [`Telemetry`] recorder holds:
//!
//! * a fixed registry of log2-bucket latency [`hist::Histogram`]s, one
//!   per [`Phase`], with p50/p95/p99 readout and deterministic
//!   Prometheus rendering ([`prom::Exposition`]);
//! * a bounded ring-buffer span tracer ([`trace::Tracer`]) recording
//!   hierarchical phase spans attributed to the current request;
//! * a structured JSON event log ([`events::EventLog`]) for access-log
//!   and slow-query lines.
//!
//! Beside the recorder sits the always-on counter table
//! ([`counters`]): one declarative list of the engine's counters from
//! which the [`Counters`] registry, its [`CounterSnapshot`] and the
//! `/stats`, `/metrics` and `--stats` renderings are all derived.

pub mod counters;
pub mod events;
pub mod hist;
pub mod prom;
pub mod trace;

use std::sync::Arc;
use std::time::Instant;

pub use counters::{Counter, CounterKind, CounterSnapshot, Counters};
pub use events::EventLog;
pub use hist::{Histogram, Snapshot};
pub use prom::Exposition;
pub use trace::{set_context, SpanRecord, Tracer};

/// The instrumented phases of the stack. Each phase owns one fixed
/// histogram in [`Telemetry`]; the variant order is the registry order
/// and must stay in sync with [`Phase::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Query preparation: parse → translate → classify → stratify → compile.
    Prepare,
    /// Prepared-query execution (cache hits included).
    Execute,
    /// Session delta application end-to-end (net → views → publish).
    ApplyDelta,
    /// One chase stratum run to fixpoint.
    ChaseStratum,
    /// One round's match collection (all rules, sequential or morsel).
    ChaseMatch,
    /// One rule's match collection within a sequential round.
    ChaseRuleMatch,
    /// Canonical sort of one rule's collected matches.
    ChaseSort,
    /// One round's serial filter-and-apply phase.
    ChaseApply,
    /// Cost-based plan compilation / drift re-planning, per stratum entry.
    ChasePlan,
    /// Joint hash index construction requested by a plan.
    IndexBuild,
    /// Tasks drained by one morsel worker in one parallel round (count).
    MorselDrain,
    /// DRed over-deletion sweep of one incremental apply.
    Overdelete,
    /// DRed rederivation sweep of one incremental apply stratum.
    Rederive,
    /// One WAL record append (encode + write + policy fsync).
    WalAppend,
    /// One WAL fsync.
    WalFsync,
    /// Checkpoint snapshot encoding.
    CheckpointEncode,
    /// Checkpoint snapshot write + verify.
    CheckpointWrite,
}

impl Phase {
    /// Every phase, in registry order.
    pub const ALL: [Phase; 17] = [
        Phase::Prepare,
        Phase::Execute,
        Phase::ApplyDelta,
        Phase::ChaseStratum,
        Phase::ChaseMatch,
        Phase::ChaseRuleMatch,
        Phase::ChaseSort,
        Phase::ChaseApply,
        Phase::ChasePlan,
        Phase::IndexBuild,
        Phase::MorselDrain,
        Phase::Overdelete,
        Phase::Rederive,
        Phase::WalAppend,
        Phase::WalFsync,
        Phase::CheckpointEncode,
        Phase::CheckpointWrite,
    ];

    /// The phase's index into the telemetry registry.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The Prometheus family name of the phase's histogram. `_ns`
    /// families record nanoseconds; `MorselDrain` records task counts.
    pub fn metric_name(self) -> &'static str {
        match self {
            Phase::Prepare => "triq_prepare_ns",
            Phase::Execute => "triq_execute_ns",
            Phase::ApplyDelta => "triq_apply_delta_ns",
            Phase::ChaseStratum => "triq_chase_stratum_ns",
            Phase::ChaseMatch => "triq_chase_match_ns",
            Phase::ChaseRuleMatch => "triq_chase_rule_match_ns",
            Phase::ChaseSort => "triq_chase_sort_ns",
            Phase::ChaseApply => "triq_chase_apply_ns",
            Phase::ChasePlan => "triq_chase_plan_ns",
            Phase::IndexBuild => "triq_index_build_ns",
            Phase::MorselDrain => "triq_morsel_drain_tasks",
            Phase::Overdelete => "triq_dred_overdelete_ns",
            Phase::Rederive => "triq_dred_rederive_ns",
            Phase::WalAppend => "triq_wal_append_ns",
            Phase::WalFsync => "triq_wal_fsync_ns",
            Phase::CheckpointEncode => "triq_checkpoint_encode_ns",
            Phase::CheckpointWrite => "triq_checkpoint_write_ns",
        }
    }

    /// One-line HELP text for the Prometheus exposition.
    pub fn help(self) -> &'static str {
        match self {
            Phase::Prepare => "Query preparation latency (parse to compiled runner), ns",
            Phase::Execute => "Prepared-query execution latency, ns",
            Phase::ApplyDelta => "Session delta application latency, ns",
            Phase::ChaseStratum => "Chase stratum fixpoint latency, ns",
            Phase::ChaseMatch => "Per-round match collection latency, ns",
            Phase::ChaseRuleMatch => "Per-rule sequential match collection latency, ns",
            Phase::ChaseSort => "Canonical match sort latency, ns",
            Phase::ChaseApply => "Per-round serial apply latency, ns",
            Phase::ChasePlan => "Join plan compilation / drift replan latency, ns",
            Phase::IndexBuild => "Joint hash index build latency, ns",
            Phase::MorselDrain => "Morsel tasks drained per worker per round",
            Phase::Overdelete => "DRed over-deletion sweep latency, ns",
            Phase::Rederive => "DRed rederivation latency, ns",
            Phase::WalAppend => "WAL record append latency, ns",
            Phase::WalFsync => "WAL fsync latency, ns",
            Phase::CheckpointEncode => "Checkpoint snapshot encode latency, ns",
            Phase::CheckpointWrite => "Checkpoint snapshot write+verify latency, ns",
        }
    }
}

/// The hook every instrumented layer reports through. Object-safe;
/// every method has a no-op default so implementations opt into what
/// they care about. Implementations must be cheap when `enabled()` is
/// false — the stack's helpers don't even read the clock then.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// True when observations are recorded; gates clock reads at the
    /// call sites.
    fn enabled(&self) -> bool {
        false
    }

    /// Records one observation (nanoseconds or a count, per [`Phase`]).
    fn phase(&self, _phase: Phase, _value: u64) {}

    /// Opens a hierarchical span; returns a token for [`Recorder::end_span`]
    /// (0 = not traced).
    fn begin_span(&self, _name: &'static str, _detail: u64) -> u64 {
        0
    }

    /// Closes the span `token`.
    fn end_span(&self, _token: u64) {}
}

/// The zero-cost default recorder: records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noop;

impl Recorder for Noop {}

/// A `'static` no-op recorder for call sites without a configured one.
pub fn noop() -> &'static dyn Recorder {
    static NOOP: Noop = Noop;
    &NOOP
}

/// Times a [`Phase`] from construction to drop. Reads the clock only
/// when the recorder is enabled — the disabled cost is one virtual call
/// and a branch.
#[must_use = "a Timer records on drop; binding it to _ discards the measurement"]
#[derive(Debug)]
pub struct Timer<'a> {
    rec: &'a dyn Recorder,
    phase: Phase,
    start: Option<Instant>,
}

impl<'a> Timer<'a> {
    /// Starts timing `phase` (a no-op when `rec` is disabled).
    #[inline]
    pub fn start(rec: &'a dyn Recorder, phase: Phase) -> Timer<'a> {
        Timer {
            rec,
            phase,
            start: rec.enabled().then(Instant::now),
        }
    }
}

impl Drop for Timer<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.rec
                .phase(self.phase, start.elapsed().as_nanos() as u64);
        }
    }
}

/// An RAII span: opened by [`span`], closed on drop.
#[must_use = "a Span closes on drop; binding it to _ ends it immediately"]
#[derive(Debug)]
pub struct Span<'a> {
    rec: &'a dyn Recorder,
    token: u64,
}

/// Opens a span on `rec` (token 0 — the no-op case — skips the close
/// call entirely).
#[inline]
pub fn span<'a>(rec: &'a dyn Recorder, name: &'static str, detail: u64) -> Span<'a> {
    Span {
        rec,
        token: rec.begin_span(name, detail),
    }
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.token != 0 {
            self.rec.end_span(self.token);
        }
    }
}

/// The concrete recorder: per-phase histograms + span tracer + event
/// log (see crate docs). Shared as `Arc<Telemetry>`, which coerces to
/// `Arc<dyn Recorder>` for the engine builder.
#[derive(Debug)]
pub struct Telemetry {
    phases: [Histogram; Phase::ALL.len()],
    tracer: Tracer,
    events: EventLog,
}

/// Default span-ring capacity (`--trace-buffer` overrides).
pub const DEFAULT_TRACE_BUFFER: usize = 4096;

impl Telemetry {
    /// Telemetry with the default trace buffer and no event sink.
    pub fn new() -> Arc<Telemetry> {
        Telemetry::with(DEFAULT_TRACE_BUFFER, EventLog::off())
    }

    /// Telemetry with an explicit span-ring capacity and event sink.
    pub fn with(trace_capacity: usize, events: EventLog) -> Arc<Telemetry> {
        Arc::new(Telemetry {
            phases: std::array::from_fn(|_| Histogram::new()),
            tracer: Tracer::new(trace_capacity),
            events,
        })
    }

    /// A snapshot of one phase's histogram.
    pub fn phase_snapshot(&self, phase: Phase) -> Snapshot {
        self.phases[phase.index()].snapshot()
    }

    /// The span ring.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The structured event sink.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Adds every phase histogram to a Prometheus exposition (all
    /// families present even at zero observations, so scrapes are
    /// shape-stable from the first request).
    pub fn export(&self, out: &mut Exposition) {
        for phase in Phase::ALL {
            out.histogram(
                phase.metric_name(),
                phase.help(),
                &self.phase_snapshot(phase),
            );
        }
    }
}

impl Recorder for Telemetry {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn phase(&self, phase: Phase, value: u64) {
        self.phases[phase.index()].observe(value);
    }

    fn begin_span(&self, name: &'static str, detail: u64) -> u64 {
        self.tracer.begin(name, detail)
    }

    fn end_span(&self, token: u64) {
        self.tracer.end(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_registry_is_aligned() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(
                phase.index(),
                i,
                "Phase::ALL order must match discriminants"
            );
        }
        // Metric names are unique (one family per phase).
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.metric_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::ALL.len());

        for (i, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(
                *counter as usize, i,
                "Counter::ALL order must match discriminants"
            );
            assert!(!counter.help().is_empty(), "{counter:?} needs help text");
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len(), "wire names are unique");
    }

    /// `docs/PROTOCOL.md` is written by hand; the two tables are the
    /// source of truth. The `GET /stats` example must list exactly the
    /// counter table, in order, and the `GET /metrics` section exactly
    /// the phase histogram families.
    #[test]
    fn protocol_doc_agrees_with_the_tables() {
        let doc = include_str!("../../../docs/PROTOCOL.md");
        let section = |heading: &str| {
            let body = &doc[doc.find(heading).expect(heading) + heading.len()..];
            &body[..body.find("\n## ").unwrap_or(body.len())]
        };

        let stats = section("## `GET /stats`");
        let engine = &stats[stats.find("\"engine\":{").expect("engine example")..];
        let engine = &engine[..engine.find('}').expect("engine example closes")];
        // Every other quote-delimited token is a member name; the first
        // is "engine" itself.
        let documented: Vec<&str> = engine.split('"').skip(1).step_by(2).skip(1).collect();
        let table: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(documented, table, "GET /stats example vs Counter::ALL");

        let metrics = section("## `GET /metrics`");
        let phases = &metrics[metrics
            .find("* Engine phase histograms")
            .expect("phase bullet")..];
        let phases = &phases[..phases[1..].find("\n* ").expect("next bullet") + 1];
        let mut documented: Vec<&str> = phases
            .split('`')
            .filter(|token| token.starts_with("triq_"))
            .collect();
        documented.sort_unstable();
        let mut table: Vec<&str> = Phase::ALL.iter().map(|p| p.metric_name()).collect();
        table.sort_unstable();
        assert_eq!(documented, table, "GET /metrics phases vs Phase::ALL");
    }

    #[test]
    fn noop_records_nothing_and_timer_skips_clock() {
        let rec = noop();
        assert!(!rec.enabled());
        {
            let _t = Timer::start(rec, Phase::Execute);
            let _s = span(rec, "execute", 1);
        }
        // Nothing to assert on Noop itself; the Telemetry case below
        // shows the same helpers do record when enabled.
        let tel = Telemetry::new();
        {
            let _t = Timer::start(&*tel, Phase::Execute);
            let _s = span(&*tel, "execute", 1);
        }
        assert_eq!(tel.phase_snapshot(Phase::Execute).count, 1);
        assert_eq!(tel.tracer().last(10).len(), 1);
        assert_eq!(tel.tracer().last(10)[0].name, "execute");
    }

    #[test]
    fn export_is_shape_stable() {
        let tel = Telemetry::new();
        let mut e = Exposition::new();
        tel.export(&mut e);
        let empty = e.render();
        for phase in Phase::ALL {
            assert!(
                empty.contains(&format!("# TYPE {} histogram", phase.metric_name())),
                "family {} missing from empty export",
                phase.metric_name()
            );
        }
        (&*tel as &dyn Recorder).phase(Phase::WalAppend, 1500);
        let mut e2 = Exposition::new();
        tel.export(&mut e2);
        assert!(e2.render().contains("triq_wal_append_ns_count 1"));
    }
}
