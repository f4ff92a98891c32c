//! Deterministic gate for the checkpoint encoder: a snapshot body is
//! streamed from the live rows of the database and of every view, so
//! encoding one costs what it writes.
//!
//! * **The bytes do not move.** After a regime closure, two layered
//!   plans on it, 40 inserts and 40 deletes (so the database, the
//!   closure and both layers carry tombstones), the body has the length
//!   and CRC32 recorded from the encoder that built a compacted copy of
//!   every tombstoned instance first.
//! * **No copy.** The bytes `encode_session` allocates stay within a
//!   small multiple of the body it returns, at 900 and at 9,000 base
//!   triples: the body buffer's own growth plus one renumbering of each
//!   instance, and no second instance.
//!
//! The allocation counter is thread-local and the measurement runs on a
//! spawned thread, as in `publish_alloc.rs`, so the numbers are
//! deterministic. Everything runs in one test: a snapshot body starts
//! with the process interner's table, which sibling tests running in
//! parallel would grow in a racy order.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use triq::common::codec::crc32;
use triq::persist::encode_session;
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

/// A small ontology (a subclass chain, a subproperty, an inverse, a
/// disjointness and an existential restriction, so the closure invents
/// labeled nulls), twenty individuals the writes touch, and a `filler`
/// chain of padding individuals up to `triples` triples.
fn graph(triples: usize) -> Graph {
    let mut turtle = String::from(
        "C0 rdfs:subClassOf C1 .\n\
         C1 rdfs:subClassOf C2 .\n\
         C3 owl:disjointWith C4 .\n\
         p rdfs:subPropertyOf q .\n\
         pinv owl:inverseOf p .\n\
         R rdf:type owl:Restriction .\n\
         R owl:onProperty has .\n\
         R owl:someValuesFrom owl:Thing .\n\
         C1 rdfs:subClassOf R .\n",
    );
    for i in 0..20 {
        turtle.push_str(&format!("f{i} rdf:type C{} .\n", i % 4));
        turtle.push_str(&format!("f{i} p f{} .\n", (i + 1) % 20));
    }
    let fixed = turtle.lines().count();
    for i in 0..triples - fixed {
        turtle.push_str(&format!("pad{i} filler pad{} .\n", i + 1));
    }
    let graph = parse_turtle(&turtle).unwrap();
    assert_eq!(graph.len(), triples);
    graph
}

/// A session over `graph(triples)` with the regime closure and a `ku`
/// and a `kall` layer on it built, then 40 inserts and 40 deletes
/// interleaved: new individuals typed and linked into the twenty, and
/// every type and link of the twenty removed. Returns the body
/// `encode_session` writes and the bytes it allocated.
fn checkpoint(triples: usize) -> (Vec<u8>, usize) {
    let engine = Engine::new();
    let plans = [
        ("{ ?X q ?Y }", Semantics::RegimeU),
        ("{ ?X rdf:type C2 }", Semantics::RegimeAll),
    ]
    .map(|(text, semantics)| {
        engine
            .prepare((parse_pattern(text).unwrap(), semantics))
            .unwrap()
    });
    let mut session = engine.load_graph(graph(triples));
    for plan in &plans {
        assert!(!plan.execute(&session).unwrap().is_empty());
    }
    assert_eq!(engine.stats().chase_runs, 3, "one closure, two layers");
    for i in 0..20 {
        let g = format!("g{i}");
        let f = format!("f{i}");
        session.insert_triple(&g, "rdf:type", &format!("C{}", i % 3));
        assert!(session.remove_triple(&f, "rdf:type", &format!("C{}", i % 4)));
        session.insert_triple(&g, "p", &f);
        assert!(session.remove_triple(&f, "p", &format!("f{}", (i + 1) % 20)));
    }
    assert_eq!(engine.stats().chase_runs, 3, "every write was maintained");
    let before = local_bytes();
    let (body, _) = encode_session(&mut session);
    let allocated = local_bytes() - before;
    (body, allocated)
}

#[test]
fn a_checkpoint_writes_the_same_bytes_and_copies_no_instance() {
    std::thread::spawn(|| {
        for (triples, (len, crc)) in [(900, BODY_900), (9_000, BODY_9000)] {
            let (body, allocated) = checkpoint(triples);
            assert_eq!(
                (body.len(), crc32(&body)),
                (len, crc),
                "{triples} triples: the body's length and CRC32"
            );
            assert!(
                allocated <= ALLOC_FACTOR * body.len(),
                "{triples} triples: encoding a {}-byte body allocated {allocated} bytes",
                body.len()
            );
        }
    })
    .join()
    .unwrap();
}

/// Length and CRC32 of the body at 900 and 9,000 triples, as the
/// encoder that compacted a copy of each tombstoned instance wrote it.
const BODY_900: (usize, u32) = (69_149, 0x53D1_35C6);
const BODY_9000: (usize, u32) = (620_079, 0x2ABB_1B15);

/// Bytes `encode_session` may allocate per body byte. Streaming from the
/// live rows it allocates 4.6x the body at 900 triples and 4.1x at
/// 9,000: the body buffer doubling its way up (about 3.4x at 9,000)
/// plus one renumbering per instance. Building a compacted copy of each
/// tombstoned instance first allocated 35x and 40x.
const ALLOC_FACTOR: usize = 5;
