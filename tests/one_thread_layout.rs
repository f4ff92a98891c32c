//! The regime closure's layout is pinned, not compared with itself.
//!
//! The chase once split big rounds into morsels matched on a worker
//! pool, and the differential suites compared that path with the
//! sequential one. With one path left, those comparisons are vacuous,
//! so this gate pins what the chase lays out against digests recorded
//! from the morsel-parallel engine (on a 2-core host, where every round
//! of 4,096 atoms or more went to the pool):
//!
//! * the view a session keeps for the regime's fixed rules
//!   (`τ_owl2ql_core` under the restricted chase) over a generated graph
//!   of 9,000 triples, whose first rounds each exceed 4,096 atoms;
//! * the same view after one 500-fact insert batch, one of whose rounds
//!   derives more than 4,096 atoms.
//!
//! Each digest is FNV-1a over one text line per live atom in id order:
//! the id, the atom (predicate, argument texts, nulls by number), the
//! rule index and the body ids. Any change to AtomIds, null numbering
//! or provenance moves it. It is alone in its test binary because the
//! interner is process-global: another test interning first could not
//! change the text, but keeping the binary to one test keeps the run
//! exactly as recorded.

use triq::prelude::*;
use triq::translate::regime_chase_config;

/// Atoms and digest of the closure over the generated graph, as the
/// morsel-parallel engine laid it out (219 morsel tasks).
const BUILT: (usize, u64) = (93_961, 8_688_564_001_133_575_894);
/// Atoms and digest after the insert batch, as the morsel-parallel
/// engine laid it out (21 morsel tasks in one of its five rounds).
const APPLIED: (usize, u64) = (106_861, 1_940_173_463_107_654_999);

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
fn the_regime_closure_keeps_the_layout_the_morsel_engine_recorded() {
    let runner = ChaseRunner::new(tau_owl2ql_core(), regime_chase_config()).unwrap();
    let mut view = MaterializedView::new(runner, tau_db(&graph())).unwrap();
    let built = digest(&view);
    view.apply(&insert_batch()).unwrap();
    let applied = digest(&view);
    assert_eq!(built, BUILT, "layout of the built closure");
    assert_eq!(applied, APPLIED, "layout after the insert batch");
}
