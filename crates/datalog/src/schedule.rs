//! The chase's *schedule*: when a round goes morsel-parallel, how big a
//! morsel is, how many workers drain them, and which join order the
//! match loops follow. None of it can change `Π(D)`: a round's matches
//! are applied in one canonical order however they were enumerated, so
//! AtomIds, nulls and provenance are byte-identical under every
//! schedule (the differential suites pin this). A schedule is therefore
//! no part of [`crate::ChaseConfig`], of a plan's identity or of a
//! snapshot, and every served chase runs [`Schedule::default`].
//!
//! Tests and benches that must drive one path force a schedule on the
//! calling thread, like `triq_common::deadline`: a chase run or delta
//! apply reads it once when it starts (the morsel workers it spawns
//! never read it).

use std::cell::Cell;
use std::marker::PhantomData;

use crate::chase::{MORSEL_SIZE, PARALLEL_THRESHOLD};

/// Which join order the match loops follow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinOrder {
    /// Statistics-driven bound orders with hash-indexed probes, deferring
    /// to the greedy pick where a plan has nothing to offer.
    CostBased,
    /// The adaptive greedy pick per binding step: no plans, no joint
    /// indexes.
    Greedy,
    /// Body atoms in reverse declaration order: plan-shaped but
    /// cost-blind.
    Reverse,
}

/// How a chase run enumerates its matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// A round goes morsel-parallel once its delta window holds this many
    /// atoms (`usize::MAX`: never; `0`: always, even on one worker).
    pub parallel_threshold: usize,
    /// Pivot atoms per morsel task (`0` is treated as `1`).
    pub morsel_size: usize,
    /// Morsel workers; `0` means one per available hardware thread.
    pub workers: usize,
    /// The join order.
    pub join_order: JoinOrder,
}

impl Default for Schedule {
    fn default() -> Schedule {
        Schedule {
            parallel_threshold: PARALLEL_THRESHOLD,
            morsel_size: MORSEL_SIZE,
            workers: 0,
            join_order: JoinOrder::CostBased,
        }
    }
}

thread_local! {
    static FORCED: Cell<Option<Schedule>> = const { Cell::new(None) };
}

/// Restores the previously forced schedule (usually none) when dropped.
/// `!Send`: the schedule is thread-local.
#[must_use = "dropping the guard immediately restores the default schedule"]
pub struct ScheduleGuard {
    previous: Option<Schedule>,
    _not_send: PhantomData<*mut ()>,
}

impl Drop for ScheduleGuard {
    fn drop(&mut self) {
        FORCED.with(|f| f.set(self.previous));
    }
}

/// Forces `schedule` on every chase run and delta apply this thread
/// starts until the returned guard is dropped.
pub fn force(schedule: Schedule) -> ScheduleGuard {
    ScheduleGuard {
        previous: FORCED.with(|f| f.replace(Some(schedule))),
        _not_send: PhantomData,
    }
}

/// The schedule a run starting now on this thread follows, with
/// `workers` resolved to a count.
pub(crate) fn current() -> Schedule {
    let mut schedule = FORCED.with(Cell::get).unwrap_or_default();
    if schedule.workers == 0 {
        schedule.workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    }
    schedule
}
