//! The served regime closure's layout is pinned.
//!
//! The twin of `one_thread_layout.rs`, over the same 9,000-triple graph
//! and the same 500-fact insert batch: where that gate pins the literal
//! `τ_owl2ql_core`, this one pins the closure a session serves — the
//! same program read through `tau_owl2ql_unions`, so `type` holds no
//! copy of an asserted type, `triple1` no copy of a `triple` or `type`
//! atom, and `adom` nothing. The constants were last recorded when
//! `type` came to read `triple` through a selection and `adom` became a
//! constant test; any later change to its AtomIds, null numbering or
//! provenance moves a digest, and so shows in the diff of the change
//! that made it.
//!
//! Each digest is FNV-1a over one text line per live atom in id order:
//! the id, the atom (predicate, argument texts, nulls by number), the
//! rule index and the body ids. It is alone in its test binary because
//! the interner is process-global.
//!
//! The same test bounds the overlap of a union's relations
//! (`Unions::overlap`): none after the build, and at most one row for
//! each derived tuple later asserted as a fact.

use triq::prelude::*;
use triq::translate::regime_chase_config;

/// Live atoms and digest of the served closure over the graph.
const BUILT: (usize, u64) = (46_015, 3_195_026_696_913_728_739);
/// Live atoms and digest after the insert batch.
const APPLIED: (usize, u64) = (52_415, 11_263_202_447_808_812_718);
/// Live atoms of the literal closure (`one_thread_layout.rs`), built
/// and after the batch.
const LITERAL: (usize, usize) = (93_961, 106_861);

/// A class chain with an existential restriction at its top, a property
/// hierarchy with an inverse and a domain, and 2,993 individuals, each
/// typed, linked and named: 9,000 triples.
fn graph() -> Graph {
    let mut turtle = String::new();
    for k in 0..12 {
        turtle.push_str(&format!("C{k} rdfs:subClassOf C{} .\n", k + 1));
    }
    turtle.push_str(
        "r1 rdf:type owl:Restriction .\n\
         r1 owl:onProperty p0 .\n\
         r1 owl:someValuesFrom owl:Thing .\n\
         C12 rdfs:subClassOf r1 .\n\
         p0 rdfs:subPropertyOf q .\n\
         p1 rdfs:subPropertyOf q .\n\
         p2 rdfs:subPropertyOf q .\n\
         qinv owl:inverseOf q .\n\
         q rdfs:domain Agent .\n",
    );
    let n = (9_000 - turtle.lines().count()) / 3;
    for i in 0..n {
        turtle.push_str(&format!("i{i} rdf:type C{} .\n", i % 7));
        turtle.push_str(&format!("i{i} p{} i{} .\n", i % 3, (i * 7 + 1) % n));
        turtle.push_str(&format!("i{i} name \"n{i}\" .\n"));
    }
    let graph = parse_turtle(&turtle).unwrap();
    assert_eq!(graph.len(), 9_000);
    graph
}

/// 400 new individuals typed at the bottom of the class chain, and 100
/// `p0` edges from them into the graph: the round after the batch's
/// first derives more than 4,096 atoms.
fn insert_batch() -> Delta {
    let triple = intern("triple");
    let mut delta = Delta::new();
    for k in 0..400 {
        let j = intern(&format!("j{k}"));
        delta.add_insert(Fact::new(triple, vec![j, intern("rdf:type"), intern("C0")]));
        if k % 4 == 0 {
            delta.add_insert(Fact::new(
                triple,
                vec![j, intern("p0"), intern(&format!("i{k}"))],
            ));
        }
    }
    assert_eq!(delta.len(), 500);
    delta
}

/// (live atoms, FNV-1a digest of their text lines in id order).
fn digest(view: &MaterializedView) -> (usize, u64) {
    let instance = view.instance();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut live = 0;
    for id in 0..instance.len() as u32 {
        if !instance.is_live(id) {
            continue;
        }
        live += 1;
        let line = match instance.provenance(id) {
            Some((rule, body)) => format!("{id} {} {rule} {body:?}\n", instance.atom(id)),
            None => format!("{id} {} fact\n", instance.atom(id)),
        };
        for byte in line.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (live, hash)
}

#[test]
fn the_served_regime_closure_keeps_its_recorded_layout() {
    let runner = ChaseRunner::with_unions(
        tau_owl2ql_core(),
        tau_owl2ql_unions(),
        regime_chase_config(),
    )
    .unwrap();
    let mut view = MaterializedView::new(runner, tau_db(&graph())).unwrap();
    let built = digest(&view);
    view.apply(&insert_batch()).unwrap();
    let applied = digest(&view);
    assert_eq!(built, BUILT, "layout of the built closure");
    assert_eq!(applied, APPLIED, "layout after the insert batch");
    assert!(built.0 < LITERAL.0 && applied.0 < LITERAL.1);

    // Assert k tuples the closure derived — memberships and property
    // assertions between constants — as triples.
    let unions = view.runner().unions().clone();
    assert_eq!(
        unions.overlap(view.instance()),
        0,
        "no overlap after the build"
    );
    let instance = view.instance();
    let rdf_type = intern("rdf:type");
    let constants = |a: triq::datalog::GroundAtom| -> Option<Vec<Symbol>> {
        a.terms.iter().map(|t| t.as_const()).collect()
    };
    let types = instance.atoms_of(intern("type")).filter_map(constants);
    let triples = instance.atoms_of(intern("triple1")).filter_map(constants);
    let derived: Vec<Vec<Symbol>> = types
        .map(|t| vec![t[0], rdf_type, t[1]])
        .take(60)
        .chain(triples.take(40))
        .collect();
    let k = derived.len();
    assert_eq!(k, 100);
    let mut delta = Delta::new();
    for t in derived {
        delta.add_insert(Fact::new(intern("triple"), t));
    }
    view.apply(&delta).unwrap();
    let overlap = unions.overlap(view.instance());
    assert!(
        0 < overlap && overlap <= k,
        "{overlap} overlapping rows for {k} facts"
    );
}
