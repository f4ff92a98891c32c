//! The chase's *schedule*: which join order the match loops follow. It
//! cannot change `Π(D)`: a round's matches are applied in one canonical
//! order however they were enumerated, so AtomIds, nulls and provenance
//! are byte-identical under every join order (the differential suites
//! pin this). A schedule is therefore no part of [`crate::ChaseConfig`],
//! of a plan's identity or of a snapshot, and every served chase runs
//! [`Schedule::default`].
//!
//! Tests and benches that must drive one join order force a schedule on
//! the calling thread, like `triq_common::deadline`: a chase run or
//! delta apply reads it once when it starts.

use std::cell::Cell;
use std::marker::PhantomData;

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
    /// The join order.
    pub join_order: JoinOrder,
}

impl Default for Schedule {
    fn default() -> Schedule {
        Schedule {
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

/// The schedule a run starting now on this thread follows.
pub(crate) fn current() -> Schedule {
    FORCED.with(Cell::get).unwrap_or_default()
}
