//! The engine's counter table.
//!
//! One `counters!` invocation below declares every counter the stack
//! keeps: its [`Counter`] variant, its wire name, its [`CounterKind`],
//! its `/metrics` help text and its rustdoc. Everything else is derived
//! from that table — the always-on [`Counters`] registry the layers
//! increment, the named-field [`CounterSnapshot`] callers read, the
//! `engine` object of `GET /stats` ([`CounterSnapshot::to_json`]), the
//! `triq_engine_*` families of `GET /metrics`
//! ([`CounterSnapshot::export`]) and the `triq-cli --stats` text (the
//! snapshot's [`Display`](std::fmt::Display)). Adding a counter is one
//! row here plus its increment site; `docs/PROTOCOL.md` is held to the
//! table by a test.

use crate::prom::Exposition;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use triq_common::json::Json;

/// How a table entry's value evolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Monotonic: only ever [`Counters::add`]ed to.
    Counter,
    /// A level: overwritten by [`Counters::set`].
    Gauge,
}

macro_rules! counters {
    ($( $(#[$doc:meta])+ $variant:ident, $name:ident, $kind:ident, $help:literal; )+) => {
        /// One entry of the counter table. Variant order is the wire
        /// order of `GET /stats` and must stay in sync with
        /// [`Counter::ALL`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $( $(#[$doc])+ $variant, )+
        }

        impl Counter {
            /// Every counter, in table (= wire) order.
            pub const ALL: [Counter; [$(Counter::$variant),+].len()] = [$(Counter::$variant),+];

            /// The wire name: the member name in `GET /stats`, the
            /// `triq_engine_<name>` family in `GET /metrics`, and the
            /// field name in [`CounterSnapshot`].
            pub fn name(self) -> &'static str {
                match self { $( Counter::$variant => stringify!($name), )+ }
            }

            /// One-line HELP text for the Prometheus exposition.
            pub fn help(self) -> &'static str {
                match self { $( Counter::$variant => $help, )+ }
            }

            /// Whether the entry is a monotonic counter or a gauge.
            pub fn kind(self) -> CounterKind {
                match self { $( Counter::$variant => CounterKind::$kind, )+ }
            }
        }

        /// A point-in-time copy of a [`Counters`] registry, one named
        /// field per table entry.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $( $(#[$doc])+ pub $name: u64, )+
        }

        impl CounterSnapshot {
            /// The value of one entry.
            pub fn get(&self, counter: Counter) -> u64 {
                match counter { $( Counter::$variant => self.$name, )+ }
            }
        }

        impl Counters {
            /// A snapshot of every entry.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot { $( $name: self.get(Counter::$variant), )+ }
            }
        }
    };
}

counters! {
    /// Queries prepared (each pays translation + stratification once).
    PreparedQueries, prepared_queries, Counter, "Queries prepared";
    /// Prepared-query executions (including cache hits).
    Executions, executions, Counter, "Prepared-query executions";
    /// Chase runs actually performed.
    ChaseRuns, chase_runs, Counter, "Chase runs performed";
    /// Executions answered from a session's chase-state cache.
    CacheHits, cache_hits, Counter, "Executions served from cache";
    /// Atoms derived across all chase runs (beyond the database seeds).
    AtomsDerived, atoms_derived, Counter, "Atoms derived by the chase";
    /// Candidate tuples examined by the chase join loops.
    JoinProbes, join_probes, Counter, "Join candidate probes";
    /// Session mutations absorbed incrementally (delta-chase inserts +
    /// DRed deletes) instead of discarding the materialization.
    DeltasApplied, deltas_applied, Counter, "Session deltas absorbed incrementally";
    /// Atoms over-deleted by DRed maintenance (support cones and
    /// negation victims) across all sessions.
    AtomsOverdeleted, atoms_overdeleted, Counter, "Atoms over-deleted by DRed";
    /// Over-deleted atoms that rederivation restored.
    AtomsRederived, atoms_rederived, Counter, "Over-deleted atoms rederived";
    /// Rows screened by the vectorized column kernels (leading-scan
    /// constant and repeated-variable filters).
    KernelFilterRows, kernel_filter_rows, Counter, "Rows screened by column kernels";
    /// Write-ahead-log records appended by the durability layer (one per
    /// acknowledged update batch when persistence is enabled).
    WalRecords, wal_records, Counter, "WAL records appended";
    /// Total bytes appended to the write-ahead log.
    WalBytes, wal_bytes, Counter, "Bytes appended to the WAL";
    /// Snapshot checkpoints written by the durability layer.
    SnapshotsWritten, snapshots_written, Counter, "Checkpoints written (full snapshots and segments)";
    /// Op-log version of the most recent checkpoint (0 before the first).
    LastCheckpointVersion, last_checkpoint_version, Gauge,
        "Op-log version of the most recent checkpoint";
    /// Operations replayed from the WAL tail during startup recovery.
    RecoveryReplayedOps, recovery_replayed_ops, Counter, "WAL records replayed at recovery";
    /// Checkpoint attempts that failed (the WAL keeps covering the
    /// state; the durability layer backs off before retrying). A
    /// non-zero value that keeps growing means the data directory's
    /// disk needs attention.
    CheckpointFailures, checkpoint_failures, Counter, "Failed checkpoint attempts";
    /// Successful magic-set rewrites: prepared queries that carry a
    /// demand plan and can answer from the demanded cone instead of the
    /// full fixpoint.
    DemandRewrites, demand_rewrites, Counter, "Plans prepared with a magic-set demand rewrite";
    /// Rewrite attempts that declined (unbound query, demanded ∃-rule,
    /// lost stratification, program shape) plus demand chases that fell
    /// back to a full build at execution time.
    DemandFallbacks, demand_fallbacks, Counter,
        "Demand rewrites declined or abandoned for the full chase";
    /// Read requests rejected up front by the serving layer's concurrency
    /// gate (`max_concurrent_reads`) — each was answered `503 E-RESOURCE`
    /// without touching the chase.
    RequestsRejected, requests_rejected, Counter, "Read requests rejected by the concurrency gate";
    /// Read requests aborted mid-evaluation because their wall-clock
    /// deadline (`read_deadline_ms`) passed — each was answered
    /// `503 E-RESOURCE`; completed answers are never affected.
    DeadlineExceeded, deadline_exceeded, Counter,
        "Read requests aborted past their evaluation deadline";
    /// Chase runs (builds, rebuilds and resumed applies) that skipped an
    /// existential application at the null-depth bound: their instance
    /// is a truncation of the chase, so answers drawn from it may be
    /// incomplete. A base view counts once, however many plans stack
    /// on it.
    ChasesTruncated, chases_truncated, Counter,
        "Chase runs truncated at the null-depth bound";
    /// Deltas a view answered by re-chasing its facts from scratch
    /// instead of maintaining its fixpoint (a poisoned view, an
    /// incremental apply that exhausted its budget); each is one `chase_runs`
    /// too. A layer re-chasing because its base rebuilt does not count.
    ViewRebuilds, view_rebuilds, Counter, "Deltas answered by a full re-chase";
}

/// The always-on registry: one relaxed atomic per [`Counter`]. It is
/// independent of the [`Recorder`](crate::Recorder) — counting is a
/// `fetch_add`, not a clock read, so there is nothing to switch off.
#[derive(Debug)]
pub struct Counters([AtomicU64; Counter::ALL.len()]);

impl Default for Counters {
    fn default() -> Self {
        Counters(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl Counters {
    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.0[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites a gauge.
    #[inline]
    pub fn set(&self, counter: Counter, value: u64) {
        self.0[counter as usize].store(value, Ordering::Relaxed);
    }

    /// The current value of one entry.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize].load(Ordering::Relaxed)
    }
}

impl CounterSnapshot {
    /// The entries as a JSON object in table order — the `engine`
    /// object of `GET /stats` (see `docs/PROTOCOL.md`).
    pub fn to_json(&self) -> Json {
        Json::obj(Counter::ALL.map(|c| (c.name(), Json::U64(self.get(c)))))
    }

    /// Adds every entry to a Prometheus exposition as the
    /// `triq_engine_<name>` family of its kind.
    pub fn export(&self, out: &mut Exposition) {
        for c in Counter::ALL {
            let family = format!("triq_engine_{}", c.name());
            match c.kind() {
                CounterKind::Counter => out.counter(&family, c.help(), self.get(c)),
                CounterKind::Gauge => out.gauge(&family, c.help(), self.get(c)),
            }
        }
    }
}

/// One `  <name>: <value>` line per entry, values aligned — the
/// `triq-cli --stats` report.
impl fmt::Display for CounterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = Counter::ALL.iter().map(|c| c.name().len()).max();
        for c in Counter::ALL {
            let pad = width.unwrap_or(0) - c.name().len();
            writeln!(f, "  {}:{:pad$} {}", c.name(), "", self.get(c))?;
        }
        Ok(())
    }
}
