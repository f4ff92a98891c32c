//! Ambient per-request read deadlines.
//!
//! The serving layer needs to bound how long a single read request may
//! spend inside the chase/execute machinery, but [`crate::TriqError`]'s
//! resource budgets (`ChaseConfig::max_atoms`, `max_null_depth`) are part
//! of the plan fingerprint: adding a per-request wall-clock field there
//! would needlessly split the prepared-plan cache and change the persisted
//! config codec. Instead the deadline is *ambient*: a thread-local
//! `Option<Instant>` installed by the request handler for the duration of
//! one request and polled by long-running loops (chase rounds, apply
//! batches) via [`check`].
//!
//! This works because a snapshot miss materializes on the calling HTTP
//! worker thread (the writer thread never installs a deadline, so
//! incremental maintenance and WAL replay are unaffected), and the
//! chase runs on that same thread, so its per-round and amortized
//! per-derivation checks see the deadline.
//!
//! Exceeding the deadline surfaces as
//! [`TriqError::ResourceExhausted`]
//! (`E-RESOURCE`), which the server maps to `503` exactly like the
//! bounded update queue — callers retry, answers that do complete are
//! unaffected.

use std::cell::Cell;
use std::marker::PhantomData;
use std::time::Instant;

use crate::{Result, TriqError};

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// RAII guard for an installed deadline; restores the previous deadline
/// (usually `None`) when dropped. `!Send` — the deadline is thread-local
/// and the guard must be dropped on the thread that installed it.
#[must_use = "dropping the guard immediately uninstalls the deadline"]
pub struct DeadlineGuard {
    previous: Option<Instant>,
    // Thread-local state: keep the guard on the installing thread.
    _not_send: PhantomData<*mut ()>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(self.previous));
    }
}

/// Install `at` as the current thread's deadline until the returned guard
/// is dropped. Nested installs restore the outer deadline on drop.
pub fn install(at: Instant) -> DeadlineGuard {
    let previous = DEADLINE.with(|d| d.replace(Some(at)));
    DeadlineGuard {
        previous,
        _not_send: PhantomData,
    }
}

/// True if a deadline is installed on this thread and has passed.
pub fn expired() -> bool {
    DEADLINE
        .with(|d| d.get())
        .is_some_and(|at| Instant::now() >= at)
}

/// Fail with [`TriqError::ResourceExhausted`] (`E-RESOURCE`) if the
/// current thread's deadline has passed; no-op when none is installed.
pub fn check() -> Result<()> {
    if expired() {
        return Err(TriqError::ResourceExhausted(
            "read deadline exceeded".to_string(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn no_deadline_never_expires() {
        assert!(!expired());
        assert!(check().is_ok());
    }

    #[test]
    fn guard_installs_and_restores() {
        {
            let _g = install(Instant::now() - Duration::from_millis(1));
            assert!(expired());
            let err = check().unwrap_err();
            assert_eq!(err.code(), "E-RESOURCE");
            {
                // Nested install with a future deadline shadows the outer one.
                let _inner = install(Instant::now() + Duration::from_secs(3600));
                assert!(!expired());
            }
            assert!(expired());
        }
        assert!(!expired());
    }

    #[test]
    fn future_deadline_passes_check() {
        let _g = install(Instant::now() + Duration::from_secs(3600));
        assert!(check().is_ok());
    }
}
