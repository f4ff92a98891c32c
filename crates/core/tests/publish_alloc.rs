//! Publishing a new version must cost O(change), not O(resident data).
//!
//! `SharedSession` publishes each plan's **answers**, never a handle to
//! the view's chase instance, so the writer always maintains instances
//! in place. Before that, the published snapshot kept every instance
//! `Arc` shared and each `apply` deep-copied all of them — bytes
//! allocated per one-fact update grew linearly with the base. This test
//! pins the fix with a counting global allocator: a one-fact apply over
//! a transitive-closure plan allocates (almost) the same number of bytes
//! over a 10× larger base, even while a reader holds the previous
//! snapshot (6.3 KB for both sizes below; with instance handles in the
//! snapshot it was 1.6 MB and 14.2 MB).
//!
//! The counter is *thread-local* and the measurement runs on a dedicated
//! spawned thread (the pattern of `crates/datalog/tests/probe_alloc.rs`),
//! so the numbers are deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use triq::prelude::*;

struct CountingAlloc;

thread_local! {
    /// Bytes requested from the heap by *this* thread. `const`-initialized
    /// so the slot itself never allocates lazily inside the allocator.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn local_bytes() -> usize {
    BYTES.try_with(Cell::get).unwrap_or(0)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: allocations during TLS teardown must not panic
        // inside the allocator (that would abort the process).
        let _ = BYTES.try_with(|c| c.set(c.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = BYTES.try_with(|c| c.set(c.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const TC_FROM_SRC: &str = "e(?X, ?Y) -> t(?X, ?Y).\n\
                           e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                           t(src, ?Y) -> out(?Y).";

/// Bytes one one-fact `apply` allocates over `chains` disjoint 3-edge
/// chains (9 atoms of closure each) plus the chain hanging off `src`,
/// with a reader holding the pre-apply snapshot throughout.
fn apply_bytes(chains: usize) -> usize {
    // Demand off: the view holds the whole closure, as a served rule
    // program's does, while the answer stays the handful of `src` rows.
    let engine = Engine::builder().demand(DemandMode::Off).build();
    let tc = engine.prepare(Datalog(TC_FROM_SRC, "out")).unwrap();
    let other = engine
        .prepare(Datalog("e(src, ?Y) -> direct(?Y).", "direct"))
        .unwrap();
    let mut base = Delta::new().insert("e", &["src", "s0"]);
    for c in 0..chains {
        for i in 0..3 {
            base = base.insert("e", &[&format!("c{c}n{i}"), &format!("c{c}n{}", i + 1)]);
        }
    }
    let mut session = engine.session();
    session.apply_delta(&base);
    let shared = session.into_shared();
    assert_eq!(shared.execute(&tc).unwrap().len(), 1);

    // A plan materialized later republishes at the same version: the
    // plan whose view absorbed nothing keeps the very same answer set.
    let first = shared.snapshot();
    assert_eq!(shared.execute(&other).unwrap().len(), 1);
    let held = shared.snapshot();
    assert_eq!((first.plans(), held.plans()), (1, 2));
    assert!(Arc::ptr_eq(
        first.answers(&tc).unwrap(),
        held.answers(&tc).unwrap()
    ));
    drop(first);

    // The cheapest of a few consecutive applies: a column that happens
    // to double its capacity on one of them is not what is measured.
    let mut cheapest = usize::MAX;
    for i in 0..5 {
        let delta = Delta::new().insert("e", &[&format!("s{i}"), &format!("s{}", i + 1)]);
        let before = local_bytes();
        let applied = shared.apply(&delta);
        cheapest = cheapest.min(local_bytes() - before);
        assert_eq!((applied.inserted, applied.deleted), (1, 0));
    }
    assert_eq!(shared.execute(&tc).unwrap().len(), 6);

    // The held snapshot is untouched by everything applied behind it.
    assert_eq!(held.version() + 5, shared.version());
    let old = held.try_execute(&tc).unwrap();
    assert_eq!(old.len(), 1);
    assert!(old.contains(&["s0"]));
    cheapest
}

#[test]
fn one_fact_apply_does_not_scale_with_the_base() {
    std::thread::spawn(|| {
        let small = apply_bytes(300);
        let large = apply_bytes(3_000);
        assert!(
            large < 2 * small,
            "a one-fact apply allocated {small} B over 900 base facts but \
             {large} B over 9000: publish must not copy the instance"
        );
    })
    .join()
    .unwrap();
}
