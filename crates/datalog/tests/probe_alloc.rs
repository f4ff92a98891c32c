//! The probe path of the columnar store must not allocate.
//!
//! The chase's innermost loops are membership checks, per-column index
//! probes and vectorized column-kernel
//! filters; before the columnar refactor each membership check built a
//! throwaway `GroundAtom` (one heap allocation per probe). This test pins
//! the fix with a counting global allocator: borrowed-key lookups —
//! `find_terms` / `contains_terms` / `contains_ids` / `Relation::find_row`
//! / `ids_by_column` — and the [`triq_datalog::kernels`] filters over
//! pre-reserved buffers perform **exactly zero** allocations.
//!
//! The counter is *thread-local* and the measurement runs on a dedicated
//! spawned thread, so allocations made by test-harness machinery on
//! other threads cannot land inside the window: the assertion is exact
//! and deterministic, no retries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use triq_datalog::kernels;
use triq_datalog::{intern, Instance, Symbol, Term, TermId};

struct CountingAlloc;

thread_local! {
    /// Heap allocations made by *this* thread. `const`-initialized so
    /// the slot itself never allocates lazily inside the allocator.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// This thread's allocation count (0 during TLS teardown).
fn local_allocations() -> usize {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: allocations during TLS teardown must not panic
        // inside the allocator (that would abort the process).
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn candidate_probes_allocate_nothing() {
    std::thread::spawn(|| {
        // Setup (allocates freely): interning, facts, keys, and
        // pre-reserved kernel buffers sized for the worst case.
        let mut inst = Instance::new();
        for i in 0..200u32 {
            inst.insert_fact("edge", &[&format!("n{i}"), &format!("n{}", (i + 1) % 200)]);
        }
        let edge: Symbol = intern("edge");
        let present = [Term::constant("n3"), Term::constant("n4")];
        let absent = [Term::constant("n4"), Term::constant("n3")];
        let present_key = [
            TermId::from_const(intern("n3")),
            TermId::from_const(intern("n4")),
        ];
        let rel = inst.relation(edge, 2).expect("edge relation exists");
        let col_key = TermId::from_const(intern("n7"));
        // Kernel inputs: col_a has 4 distinct values (50 rows each),
        // col_b has 2; the needles select rows `i % 4 == 0`, all of
        // which survive the `i % 2 == 0` refinement.
        let col_a: Vec<TermId> = (0..200)
            .map(|i| TermId::from_const(intern(&format!("k{}", i % 4))))
            .collect();
        let col_b: Vec<TermId> = (0..200)
            .map(|i| TermId::from_const(intern(&format!("j{}", i % 2))))
            .collect();
        let needle_a = TermId::from_const(intern("k0"));
        let needle_b = TermId::from_const(intern("j0"));
        let ids: Vec<u32> = (0..200).collect();
        let mut sel: Vec<u32> = Vec::with_capacity(200);
        let mut gathered: Vec<u32> = Vec::with_capacity(200);

        // Warm every code path once, then measure exactly.
        assert!(inst.contains_terms(edge, &present));
        kernels::filter_eq(&col_a, needle_a, 0, &mut sel);

        let before = local_allocations();
        let mut hits = 0usize;
        for _ in 0..1_000 {
            hits += usize::from(inst.contains_terms(edge, &present));
            hits += usize::from(inst.contains_terms(edge, &absent));
            hits += usize::from(inst.find_terms(edge, &present).is_some());
            hits += usize::from(inst.contains_ids(edge, &present_key));
            hits += usize::from(rel.find_row(&present_key).is_some());
            hits += rel.ids_by_column(0, col_key).len();
            hits += rel.ids_by_column(1, col_key).len();
            // Kernel paths: clear() keeps capacity, so refills of the
            // pre-reserved buffers must not touch the allocator.
            sel.clear();
            kernels::filter_eq(&col_a, needle_a, 0, &mut sel);
            kernels::refine_eq(&col_b, needle_b, 0, &mut sel);
            hits += sel.len();
            gathered.clear();
            kernels::gather(&ids, &sel, &mut gathered);
            hits += gathered.len();
            hits += kernels::count_eq(&col_a, needle_a);
            hits += kernels::count_lt(&ids, 100);
        }
        let after = local_allocations();
        assert_eq!(hits, 256_000, "every probe resolved as expected");
        assert_eq!(
            after - before,
            0,
            "borrowed-key probes and kernel filters must not allocate"
        );
    })
    .join()
    .expect("measurement thread panicked");
}
