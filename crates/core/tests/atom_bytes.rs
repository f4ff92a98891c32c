//! What one atom of a maintained closure costs in memory.
//!
//! A regime closure over a library (the fixed rules of a regime plan)
//! is materialized through a `Session` at 900 and at 9,000 triples, on a
//! spawned thread whose heap a counting allocator follows:
//!
//! * (a) the bytes the closure leaves held, per closure atom, stay under
//!   a bound: an atom costs its data — a directory entry, its row, its
//!   body ids and dependency edges, a dedup slot — and no heap object of
//!   its own, and the view keeps no copy of the facts beside them;
//! * (b) the chase that builds it calls the allocator a bounded number
//!   of times per derived atom: the directory, the derivation and
//!   dependency arenas and the dedup table only grow amortized, and
//!   what remains is the per-column posting lists;
//! * (c) a one-fact delete that re-derives nothing raises the thread's
//!   heap high-water mark by the same amount at both sizes: no apply
//!   rebuilds or copies a structure of the closure.
//!
//! The counters are thread-local, so the numbers are deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use triq::prelude::*;

struct CountingAlloc;

thread_local! {
    /// Bytes held on the heap by allocations of *this* thread (freed
    /// ones subtracted). `const`-initialized so the slots never
    /// allocate inside the allocator.
    static HELD: Cell<isize> = const { Cell::new(0) };
    /// The most `HELD` has been since the last [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Calls that obtained memory (`alloc` and `realloc`).
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn held_bytes() -> isize {
    HELD.try_with(Cell::get).unwrap_or(0)
}

fn peak_bytes() -> isize {
    PEAK.try_with(Cell::get).unwrap_or(0)
}

fn reset_peak() {
    let _ = PEAK.try_with(|p| p.set(held_bytes()));
}

fn alloc_calls() -> u64 {
    CALLS.try_with(Cell::get).unwrap_or(0)
}

fn count(delta: isize, call: bool) {
    // `try_with`: allocations during TLS teardown must not panic inside
    // the allocator (that would abort the process).
    let _ = HELD.try_with(|c| {
        let held = c.get() + delta;
        c.set(held);
        let _ = PEAK.try_with(|p| p.set(p.get().max(held)));
    });
    if call {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, true);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), false);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, true);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A library rule whose atoms scale with the graph.
const LIBRARY: &str = "triple(?X, filler, ?Y) -> triple(?Y, filler_back, ?X).";

/// A small ontology, a `filler` chain of padding individuals up to
/// `triples` triples, and last one `solo filler mate` triple whose
/// individuals occur nowhere else — deleting it leaves nothing to
/// re-derive.
fn graph(triples: usize) -> Graph {
    let mut turtle = String::from(
        "C0 rdfs:subClassOf C1 .\n\
         C1 rdfs:subClassOf C2 .\n\
         p rdfs:subPropertyOf q .\n\
         pinv owl:inverseOf p .\n\
         p owl:inverseOf pinv .\n\
         f0 rdf:type C0 .\n\
         f0 p f1 .\n",
    );
    let fixed = turtle.lines().count() + 1;
    for i in 0..triples - fixed {
        turtle.push_str(&format!("pad{i} filler pad{} .\n", i + 1));
    }
    turtle.push_str("solo filler mate .\n");
    let graph = parse_turtle(&turtle).unwrap();
    assert_eq!(graph.len(), triples);
    graph
}

/// What building the closure cost, and what the delete did.
struct Measured {
    /// Atoms of the closure: its seed triples plus the atoms derived.
    atoms: u64,
    derived: u64,
    /// Bytes the build left held, and the allocator calls it made.
    held: isize,
    calls: u64,
    /// How far the delete raised the heap high-water mark.
    delete_peak: isize,
    overdeleted: u64,
}

fn measure(triples: usize) -> Measured {
    let library = triq::datalog::parse_program(LIBRARY).unwrap();
    let engine = Engine::builder().library(library).build();
    let query = engine
        .prepare((
            parse_pattern("{ ?X rdf:type C2 }").unwrap(),
            Semantics::RegimeU,
        ))
        .unwrap();
    let mut session = engine.load_graph(graph(triples));

    let (held, calls) = (held_bytes(), alloc_calls());
    let answers = query.execute(&session).unwrap();
    let calls = alloc_calls() - calls;
    let held = held_bytes() - held;
    let stats = engine.stats();
    assert_eq!(stats.chase_runs, 2, "the closure and one layer");
    assert!(!answers.is_empty());
    drop(answers);

    reset_peak();
    let before = peak_bytes();
    assert!(session.remove_triple("solo", "filler", "mate"));
    query.execute(&session).unwrap();
    let delete_peak = peak_bytes() - before;
    let after = engine.stats();
    assert_eq!(after.chase_runs, stats.chase_runs, "nothing re-chases");
    assert_eq!(after.view_rebuilds, 0);
    assert_eq!(after.atoms_rederived, 0, "the delete re-derives nothing");
    Measured {
        atoms: triples as u64 + stats.atoms_derived,
        derived: stats.atoms_derived,
        held,
        calls,
        delete_peak,
        overdeleted: after.atoms_overdeleted - stats.atoms_overdeleted,
    }
}

/// (a) bound: bytes the closure leaves held per closure atom. Measured:
/// 203.9 at 900 and 160.9 at 9,000 triples. A view that also kept its
/// own copy of the database beside its instance held 249.1 and 199.1;
/// the layout with one heap `Vec` per derivation body, per dependents
/// list and per dedup bucket held 408 and 333.
const BYTES_PER_ATOM: f64 = 225.0;

/// (b) bound: allocator calls per derived atom while the closure is
/// built. Measured: 2.40 at 900 and 1.81 at 9,000 triples, against 2.90
/// and 2.31 when the view copied the database it seeds from once more
/// to keep it, and 7.13 and 6.55 before the arenas. What remains is
/// one posting list per new (column, value) pair of `Relation`'s
/// per-column index — each padding individual is a new value — and the
/// one copy of the database the view is seeded with.
const CALLS_PER_DERIVED_ATOM: f64 = 2.65;

/// (c) bound: how far apart the delete's high-water marks may be.
const PEAK_SLACK: isize = 4096;

#[test]
fn an_atom_costs_its_data_and_a_delete_rebuilds_nothing() {
    std::thread::spawn(|| {
        let sizes = [900, 9_000];
        let measured = sizes.map(measure);
        for (triples, m) in sizes.iter().zip(&measured) {
            let per_atom = m.held as f64 / m.atoms as f64;
            let per_derived = m.calls as f64 / m.derived as f64;
            println!(
                "{triples} triples: {} atoms ({} derived), {per_atom:.1} B/atom, \
                 {per_derived:.3} allocator calls/derived atom, delete peak +{} B",
                m.atoms, m.derived, m.delete_peak
            );
            assert!(
                per_atom <= BYTES_PER_ATOM,
                "{triples} triples: {per_atom:.1} B held per closure atom"
            );
            assert!(
                per_derived <= CALLS_PER_DERIVED_ATOM,
                "{triples} triples: {per_derived:.3} allocator calls per derived atom"
            );
        }
        let [small, large] = &measured;
        assert!(large.atoms > 9 * small.atoms, "the closure scales");
        assert!(small.overdeleted > 0, "the delete takes a cone");
        assert_eq!(small.overdeleted, large.overdeleted);
        assert!(
            (small.delete_peak - large.delete_peak).abs() <= PEAK_SLACK,
            "a one-fact delete raised the high-water mark by {} B at 900 \
             and {} B at 9,000 triples",
            small.delete_peak,
            large.delete_peak
        );
    })
    .join()
    .unwrap();
}
