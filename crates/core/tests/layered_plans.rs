//! Deterministic gates for layered plans: every regime plan (and every
//! plan over an engine library) is a thin layer stacked on one shared
//! view of the fixed rules, chased once per session.
//!
//! * The atoms a layer derives, and the bytes materializing one more
//!   plan leaves behind (counting allocator, as in `publish_alloc.rs`),
//!   do not grow with the base graph: nothing of the closure is chased
//!   or copied again per plan.
//! * A delete is maintained in the closure (DRed through its labeled
//!   nulls) and absorbed by the layers: no chase run, and the same
//!   over-deleted and derived atoms at 900 and at 9,000 base triples.
//! * Layered plans survive a snapshot round trip without a chase, also
//!   after a delete left dead nulls behind.
//! * A chase truncated at the null-depth bound is counted, once.
//! * The split never changes a stratification verdict (dtl's three
//!   cases, with and without a library).
//!
//! The allocation counter is thread-local and every measurement runs on
//! a spawned thread of its own, so the numbers are deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use triq::datalog::ChaseRunner;
use triq::persist::{decode_snapshot, encode_snapshot};
use triq::prelude::*;
use triq::translate::regime_chase_config;

struct CountingAlloc;

thread_local! {
    /// Bytes held on the heap by allocations of *this* thread (freed
    /// ones subtracted). `const`-initialized so the slot never
    /// allocates inside the allocator.
    static HELD: Cell<isize> = const { Cell::new(0) };
}

fn held_bytes() -> isize {
    HELD.try_with(Cell::get).unwrap_or(0)
}

fn count(delta: isize) {
    // `try_with`: allocations during TLS teardown must not panic inside
    // the allocator (that would abort the process).
    let _ = HELD.try_with(|c| c.set(c.get() + delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A small ontology (a subclass chain, a subproperty, an inverse, a
/// disjointness), ten individuals the queries ask about, and a
/// `filler` chain of padding individuals up to `triples` triples — the
/// closure grows with the padding (each `filler` triple entails a
/// `linked` one), every answer stays the same.
fn graph(triples: usize) -> Graph {
    let mut turtle = String::from(
        "C0 rdfs:subClassOf C1 .\n\
         C1 rdfs:subClassOf C2 .\n\
         C3 owl:disjointWith C4 .\n\
         p rdfs:subPropertyOf q .\n\
         filler rdfs:subPropertyOf linked .\n\
         pinv owl:inverseOf p .\n\
         p owl:inverseOf pinv .\n",
    );
    for i in 0..10 {
        turtle.push_str(&format!("f{i} rdf:type C{} .\n", i % 4));
        turtle.push_str(&format!("f{i} p f{} .\n", (i + 1) % 10));
    }
    let fixed = turtle.lines().count();
    for i in 0..triples - fixed {
        turtle.push_str(&format!("pad{i} filler pad{} .\n", i + 1));
    }
    let graph = parse_turtle(&turtle).unwrap();
    assert_eq!(graph.len(), triples);
    graph
}

/// Eight regime queries about the ten individuals.
const REGIME_QUERIES: [(&str, Semantics); 8] = [
    ("{ ?X rdf:type C0 }", Semantics::RegimeU),
    ("{ ?X rdf:type C2 }", Semantics::RegimeU),
    ("{ ?X p ?Y }", Semantics::RegimeU),
    ("{ ?X q ?Y }", Semantics::RegimeU),
    ("{ ?X q ?Y . ?Y rdf:type C1 }", Semantics::RegimeAll),
    ("{ ?X rdf:type C0 . ?X p ?Y }", Semantics::RegimeAll),
    ("{ ?X pinv ?Y }", Semantics::RegimeU),
    ("{ ?X rdf:type C3 }", Semantics::RegimeAll),
];

fn prepare_all(engine: &Engine) -> Vec<PreparedQuery> {
    REGIME_QUERIES
        .iter()
        .map(|(text, semantics)| {
            engine
                .prepare((parse_pattern(text).unwrap(), *semantics))
                .unwrap()
        })
        .collect()
}

/// Per plan, in order: its answers, the atoms its execution derived and
/// the bytes it left held — over a graph of `triples` triples.
fn materialize_all(triples: usize) -> Vec<(Answers, u64, isize)> {
    let engine = Engine::new();
    let queries = prepare_all(&engine);
    let session = engine.load_graph(graph(triples));
    queries
        .iter()
        .map(|q| {
            let atoms = engine.stats().atoms_derived;
            let held = held_bytes();
            let answers = q.execute(&session).unwrap();
            let held = held_bytes() - held - answers_bytes(&answers);
            (answers, engine.stats().atoms_derived - atoms, held)
        })
        .collect()
}

/// What an answer set handed to the caller holds (measured by cloning
/// it on the counting thread), so that it is not charged to the plan.
fn answers_bytes(answers: &Answers) -> isize {
    let before = held_bytes();
    let copy = answers.clone();
    let bytes = held_bytes() - before;
    drop(copy);
    bytes
}

#[test]
fn layers_derive_and_hold_the_same_at_900_and_9000_triples() {
    std::thread::spawn(|| {
        let small = materialize_all(900);
        let large = materialize_all(9_000);
        for (i, ((a, atoms_a, held_a), (b, atoms_b, held_b))) in
            small.iter().zip(&large).enumerate()
        {
            assert_eq!(a, b, "plan {i}: the padding changes no answer");
            assert!(!a.is_empty(), "plan {i} answers something");
            if i == 0 {
                // The first plan builds the closure: that scales.
                assert!(atoms_b > atoms_a, "plan 0: {atoms_a} vs {atoms_b}");
                continue;
            }
            assert_eq!(atoms_a, atoms_b, "plan {i}: atoms derived by its layer");
            assert_eq!(
                held_a, held_b,
                "plan {i}: bytes held after materializing it — a copy of \
                 the closure would grow tenfold"
            );
        }
    })
    .join()
    .unwrap();
}

#[test]
fn a_delete_maintains_the_closure_for_both_regimes() {
    let engine = Engine::new();
    let ku = engine
        .prepare((parse_pattern("{ ?X q ?Y }").unwrap(), Semantics::RegimeU))
        .unwrap();
    let kall = engine
        .prepare((
            parse_pattern("{ ?X rdf:type C2 }").unwrap(),
            Semantics::RegimeAll,
        ))
        .unwrap();
    let mut session = engine.load_graph(graph(60));
    ku.execute(&session).unwrap();
    kall.execute(&session).unwrap();
    assert_eq!(engine.stats().chase_runs, 3, "one closure, two layers");

    assert!(session.remove_triple("f3", "p", "f4"));
    let runs = engine.stats().chase_runs;
    let (u, all) = (
        ku.execute(&session).unwrap(),
        kall.execute(&session).unwrap(),
    );
    assert_eq!(engine.stats().chase_runs, runs, "nothing re-chases");
    assert_eq!(engine.stats().view_rebuilds, 0);

    let fresh = engine.load_database(session.database().clone());
    assert_eq!(u, ku.execute(&fresh).unwrap());
    assert_eq!(all, kall.execute(&fresh).unwrap());
}

/// A TBox shaped like the serving benchmark's: two properties with their
/// inverses, `∃r` restrictions for all four, and the cycle `A ⊑ ∃p`,
/// `∃p⁻ ⊑ B`, `B ⊑ ∃q`, `∃q⁻ ⊑ A`, so the null chain of every `A` or
/// `B` runs to the depth bound — unless a named individual witnesses
/// the restriction: `gone` is `kept`'s `p`-successor, through the
/// inverse. A `filler` chain pads the graph to `triples`.
fn cyclic_graph(triples: usize) -> Graph {
    let mut turtle = String::new();
    for (p, inv) in [("p", "pinv"), ("q", "qinv")] {
        turtle.push_str(&format!(
            "{p} rdf:type owl:ObjectProperty .\n{inv} rdf:type owl:ObjectProperty .\n\
             {p} owl:inverseOf {inv} .\n{inv} owl:inverseOf {p} .\n"
        ));
        for r in [p, inv] {
            turtle.push_str(&format!(
                "some_{r} rdf:type owl:Restriction .\nsome_{r} owl:onProperty {r} .\n\
                 some_{r} owl:someValuesFrom owl:Thing .\n"
            ));
        }
    }
    turtle.push_str(
        "A rdfs:subClassOf some_p .\n\
         some_pinv rdfs:subClassOf B .\n\
         B rdfs:subClassOf some_q .\n\
         some_qinv rdfs:subClassOf A .\n\
         kept rdf:type A .\n\
         gone rdf:type B .\n\
         gone pinv kept .\n",
    );
    let fixed = turtle.lines().count();
    for i in 0..triples - fixed {
        turtle.push_str(&format!("pad{i} filler pad{} .\n", i + 1));
    }
    let graph = parse_turtle(&turtle).unwrap();
    assert_eq!(graph.len(), triples);
    graph
}

/// A `ku` and a `kall` plan whose answers reach into the null chains.
fn cyclic_plans(engine: &Engine) -> [PreparedQuery; 2] {
    [
        ("{ ?X rdf:type A }", Semantics::RegimeU),
        ("{ ?X q _:Y . _:Y rdf:type A }", Semantics::RegimeAll),
    ]
    .map(|(text, semantics)| {
        engine
            .prepare((parse_pattern(text).unwrap(), semantics))
            .unwrap()
    })
}

/// The counters one individual's removal moves on a session with a `ku`
/// and a `kall` plan over `cyclic_graph(triples)`: chase runs, atoms
/// over-deleted and atoms derived. Answers equal a fresh session's.
fn removal_cost(triples: usize) -> (u64, u64, u64) {
    let engine = Engine::new();
    let plans = cyclic_plans(&engine);
    let mut session = engine.load_graph(cyclic_graph(triples));
    for plan in &plans {
        plan.execute(&session).unwrap();
    }
    assert!(engine.stats().chases_truncated > 0, "the chains are cut");
    let before = engine.stats();
    assert!(session.remove_triple("gone", "rdf:type", "B"));
    assert!(session.remove_triple("gone", "pinv", "kept"));
    let answers: Vec<Answers> = plans.iter().map(|p| p.execute(&session).unwrap()).collect();
    let after = engine.stats();
    let fresh = engine.load_database(session.database().clone());
    for (plan, answers) in plans.iter().zip(&answers) {
        assert_eq!(answers, &plan.execute(&fresh).unwrap());
    }
    (
        after.chase_runs - before.chase_runs,
        after.atoms_overdeleted - before.atoms_overdeleted,
        after.atoms_derived - before.atoms_derived,
    )
}

#[test]
fn removing_an_individual_costs_the_same_at_900_and_9000_triples() {
    let small = removal_cost(900);
    let large = removal_cost(9_000);
    assert_eq!(small.0, 0, "no chase runs");
    assert!(
        small.1 > 0,
        "the individual's cone, its null chain included"
    );
    assert!(
        small.2 > 0,
        "kept's restriction lost its witness: a null chain"
    );
    assert_eq!(small, large, "(chase runs, over-deleted, derived)");
}

#[test]
fn a_closure_maintained_through_nulls_survives_a_snapshot_round_trip() {
    let gone = Delta::new()
        .delete("triple", &["gone", "rdf:type", "B"])
        .delete("triple", &["gone", "pinv", "kept"]);
    let engine = Engine::new();
    let shared = engine.load_graph(cyclic_graph(120)).into_shared();
    for plan in &cyclic_plans(&engine) {
        shared.execute(plan).unwrap();
    }
    // The delete leaves dead nulls behind; the snapshot drops them.
    shared.apply(&gone);
    let (bytes, _) = encode_snapshot(&shared);

    let engine = Engine::new();
    let plans = cyclic_plans(&engine);
    let recovered = decode_snapshot(&engine, &bytes).unwrap().into_shared();
    let served: Vec<Answers> = plans
        .iter()
        .map(|plan| recovered.execute(plan).unwrap())
        .collect();
    assert_eq!(engine.stats().chase_runs, 0, "served as recovered");
    let fresh = engine.load_database(recovered.with_writer(|s| s.database().clone()));
    for (plan, served) in plans.iter().zip(&served) {
        assert_eq!(served, &plan.execute(&fresh).unwrap());
    }
    // …and keeps maintaining over the renumbered nulls.
    recovered.apply(
        &Delta::new()
            .insert("triple", &["gone", "rdf:type", "B"])
            .insert("triple", &["gone", "pinv", "kept"]),
    );
    let fresh = engine.load_database(recovered.with_writer(|s| s.database().clone()));
    for plan in &plans {
        assert_eq!(
            recovered.execute(plan).unwrap(),
            plan.execute(&fresh).unwrap()
        );
    }
}

#[test]
fn layered_plans_survive_a_snapshot_round_trip_without_a_chase() {
    let library = parse_program("triple(?X, p, ?Y) -> triple(?Y, p_back, ?X).").unwrap();
    let build = || Engine::builder().library(library.clone()).build();
    let queries = |engine: &Engine| {
        let mut queries = prepare_all(engine);
        queries.push(
            engine
                .prepare(Sparql("SELECT ?X ?Y WHERE { ?X p_back ?Y }"))
                .unwrap(),
        );
        queries.push(
            engine
                .prepare(Datalog("triple(f1, p_back, ?Y) -> out(?Y).", "out"))
                .unwrap(),
        );
        queries
    };
    let engine = build();
    let shared = engine.load_graph(graph(120)).into_shared();
    let before: Vec<Answers> = queries(&engine)
        .iter()
        .map(|q| shared.execute(q).unwrap())
        .collect();
    let (bytes, _) = encode_snapshot(&shared);

    let engine = build();
    let recovered = decode_snapshot(&engine, &bytes).unwrap().into_shared();
    let queries = queries(&engine);
    for (q, want) in queries.iter().zip(&before) {
        assert_eq!(&recovered.execute(q).unwrap(), want);
    }
    assert_eq!(
        engine.stats().chase_runs,
        0,
        "recovered views are served as they are"
    );

    // …and keep being maintained over the recovered base.
    recovered.apply(&Delta::new().insert("triple", &["f9", "p", "f3"]));
    let fresh = engine.load_database(recovered.with_writer(|s| s.database().clone()));
    for q in &queries {
        assert_eq!(recovered.execute(q).unwrap(), q.execute(&fresh).unwrap());
    }
}

/// `A ⊑ ∃r` and `∃r⁻ ⊑ A`: every `A` starts an infinite `r`-chain of
/// fresh individuals, so the chase of the regime's closure is cut at
/// the null-depth bound.
const CYCLIC: &str = "A rdf:type owl:Class .\n\
                      r rdf:type owl:ObjectProperty .\n\
                      rinv owl:inverseOf r .\n\
                      r owl:inverseOf rinv .\n\
                      R rdf:type owl:Restriction .\n\
                      R owl:onProperty r .\n\
                      R owl:someValuesFrom owl:Thing .\n\
                      A rdfs:subClassOf R .\n\
                      S rdf:type owl:Restriction .\n\
                      S owl:onProperty rinv .\n\
                      S owl:someValuesFrom owl:Thing .\n\
                      S rdfs:subClassOf A .\n\
                      a rdf:type A .\n\
                      a r b .";

#[test]
fn a_truncated_closure_is_counted_once_and_answers_like_the_monolithic_chase() {
    let engine = Engine::new();
    let session = engine.load_turtle(CYCLIC).unwrap();
    let patterns = ["{ ?X rdf:type A }", "{ ?X r ?Y . ?Y rdf:type A }"];
    for (i, pattern) in patterns.iter().enumerate() {
        let q = engine
            .prepare((parse_pattern(pattern).unwrap(), Semantics::RegimeU))
            .unwrap();
        let answers = q.execute(&session).unwrap();
        let whole = ChaseRunner::new(q.program().clone(), regime_chase_config())
            .unwrap()
            .run(session.database())
            .unwrap();
        assert!(whole.stats.truncated, "the monolithic chase is cut too");
        assert_eq!(
            answers,
            Answers::from_chase(&whole, q.output()),
            "{pattern}"
        );
        assert!(!answers.is_empty(), "{pattern}");
        // The shared closure was truncated once; the layers never are.
        assert_eq!(engine.stats().chases_truncated, 1, "after plan {i}");
    }
    assert_eq!(engine.stats().chase_runs, 3);
}

/// dtl's three stratification cases: a positive cycle is accepted; a
/// negative cycle and a self-negation are `E-STRATIFY`.
const STRATIFY_CASES: [(&str, Option<&str>); 3] = [
    (
        "seed(?X) -> q(?X).\n q(?X) -> p(?X).\n p(?X) -> q(?X).\n p(?X) -> out(?X).",
        None,
    ),
    (
        "seed(?X), !q(?X) -> p(?X).\n seed(?X), p(?X) -> q(?X).\n p(?X) -> out(?X).",
        Some("E-STRATIFY"),
    ),
    (
        "seed(?X), !p(?X) -> p(?X).\n p(?X) -> out(?X).",
        Some("E-STRATIFY"),
    ),
];

#[test]
fn the_split_never_changes_a_stratification_verdict() {
    let library = parse_program("triple(?X, knows, ?Y) -> triple(?Y, knows, ?X).").unwrap();
    for engine in [Engine::new(), Engine::builder().library(library).build()] {
        let mut session = engine.session();
        session.add_fact("seed", &["a"]);
        for (program, code) in STRATIFY_CASES {
            match (engine.prepare(Datalog(program, "out")), code) {
                (Ok(q), None) => {
                    assert_eq!(q.execute(&session).unwrap().len(), 1, "{program}");
                }
                (Err(e), Some(code)) => assert_eq!(e.code(), code, "{program}"),
                (got, want) => panic!("{program}: got {got:?}, want {want:?}"),
            }
        }
    }
}
