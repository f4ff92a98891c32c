//! Deterministic gates for the checkpoint encoder: a full snapshot is
//! streamed from the rows of the database and of every view, so
//! encoding one costs what it writes; a segment holds what changed, so
//! it costs the change.
//!
//! * **The bytes do not move.** After a regime closure, two layered
//!   plans on it, 40 inserts and 40 deletes (so the database, the
//!   closure and both layers carry tombstones), the full body has the
//!   length and CRC32 recorded from the `TRIQSNP5` encoder, which writes
//!   every instance verbatim, tombstones included.
//! * **No copy.** The bytes `encode_session` allocates stay within a
//!   small multiple of the body it returns, at 900 and at 9,000 base
//!   triples: the body buffer's own growth, and no second instance.
//! * **A segment costs its change.** On the same state, after a full
//!   checkpoint and one inserted triple, the next checkpoint is a
//!   segment of the same length at 900 and at 9,000 base triples, and
//!   encoding it allocates within the same constant at both.
//!
//! The allocation counter is thread-local and every measurement runs on
//! a spawned thread, as in `publish_alloc.rs`, so the numbers are
//! deterministic. The tests take turns: a body starts with the process
//! interner's table (a segment, with what was interned since the last
//! checkpoint), which a test running alongside would grow in a racy
//! order.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;
use triq::common::codec::crc32;
use triq::persist::{checkpoint_session, encode_session};
use triq::prelude::*;

/// Held by each test for its whole run (see the module docs).
static TURN: Mutex<()> = Mutex::new(());

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
/// every type and link of the twenty removed.
fn session(triples: usize) -> Session {
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
    session
}

/// The name of the individual [`segment`]`(triples)` inserts.
fn newcomer(triples: usize) -> String {
    format!("h{triples:05}")
}

/// Interns every string either test uses, the 900-triple session's
/// first, before either test measures: a body starts with the process
/// interner's whole table and names symbols by their index, so the
/// table must not depend on which test ran first.
fn intern_fixtures() {
    for triples in [900, 9_000] {
        drop(session(triples));
        intern(&newcomer(triples));
    }
}

/// The body `encode_session` writes for [`session`]`(triples)`, and the
/// bytes it allocated.
fn checkpoint(triples: usize) -> (Vec<u8>, usize) {
    let mut session = session(triples);
    let before = local_bytes();
    let (body, _) = encode_session(&mut session);
    let allocated = local_bytes() - before;
    (body, allocated)
}

/// The segment the checkpoint after a full one writes for
/// [`session`]`(triples)` once one triple about a new individual is
/// inserted (its name has the same length at every size), and the bytes
/// encoding it allocated.
fn segment(triples: usize) -> (Vec<u8>, usize) {
    let mut session = session(triples);
    let full = checkpoint_session(&mut session, None);
    assert!(full.segment.is_none(), "the first checkpoint is full");
    session.insert_triple(&newcomer(triples), "rdf:type", "C0");
    let before = local_bytes();
    let next = checkpoint_session(&mut session, Some(&full.chain));
    let allocated = local_bytes() - before;
    assert_eq!(next.segment, Some((full.version, full.version)));
    assert_eq!(next.version, full.version + 1);
    (next.body, allocated)
}

#[test]
fn a_segment_writes_and_allocates_the_same_at_every_size() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    std::thread::spawn(|| {
        intern_fixtures();
        let (small, small_allocated) = segment(900);
        let (large, large_allocated) = segment(9_000);
        assert_eq!(
            small.len(),
            large.len(),
            "one inserted triple writes the same bytes at 900 and 9,000 triples"
        );
        assert_eq!(small.len(), SEGMENT_LEN, "the segment's length");
        for (triples, allocated) in [(900, small_allocated), (9_000, large_allocated)] {
            assert!(
                allocated <= SEGMENT_ALLOC,
                "{triples} triples: encoding a {}-byte segment allocated {allocated} bytes",
                small.len()
            );
        }
    })
    .join()
    .unwrap();
}

#[test]
fn a_checkpoint_writes_the_same_bytes_and_copies_no_instance() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    std::thread::spawn(|| {
        intern_fixtures();
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

/// Length and CRC32 of the full body at 900 and 9,000 triples, as the
/// `TRIQSNP5` encoder writes it for the served regime closure, which
/// stores no copy of a `triple` or `type` atom in `triple1`. Both start
/// with the interner table of every string the binary's two tests use
/// ([`intern_fixtures`]), so the 900-triple body holds the 9,000-triple
/// session's names too. (The literal closure's bodies were 74,420 and
/// 593,265 bytes, with the table of whichever test ran first;
/// `TRIQSNP4` wrote 69,149 and 620,079 for it: no tombstoned rows, no
/// graveyard, a support counter per atom.)
const BODY_900: (usize, u32) = (121_617, 0xC61B_352D);
const BODY_9000: (usize, u32) = (429_825, 0x6281_3142);

/// Bytes `encode_session` may allocate per body byte. Streaming from the
/// rows it allocates 3.4x the body at 900 triples and 2.8x at 9,000
/// (3.8x at both for the literal closure): the body buffer doubling its
/// way up. Renumbering each tombstoned instance on the way (`TRIQSNP4`)
/// took 4.6x and 4.1x, and building a compacted copy of each first 35x
/// and 40x.
const ALLOC_FACTOR: usize = 5;

/// The length of the segment one inserted triple makes, at any size
/// (a full checkpoint writes the whole body above). The new name is
/// already interned ([`intern_fixtures`]), so the segment carries no
/// interner entry. It was 411 bytes, with the name's entry, while the
/// closure copied the triple into `triple1`.
const SEGMENT_LEN: usize = 324;

/// Bytes encoding that segment may allocate, at any size: the segment
/// buffer, the memo edits it takes and the new marks. It allocates
/// 1,448 bytes at 900 triples and at 9,000.
const SEGMENT_ALLOC: usize = 2_048;
