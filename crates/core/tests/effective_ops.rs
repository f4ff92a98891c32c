//! Only *effective* extensional operations count: re-inserting a fact
//! that is already there — through any mutator — must not move the
//! session's version or make a view absorb (and its answers be
//! re-extracted for) a delta that changes nothing.

use std::sync::Arc;
use triq::prelude::*;

#[test]
fn a_redundant_single_fact_insert_is_not_an_operation() {
    let engine = Engine::new();
    let q = engine
        .prepare(Sparql("SELECT ?X WHERE { ?X knows ?Y }"))
        .unwrap();
    let shared = engine.load_turtle("a knows b .").unwrap().into_shared();
    assert_eq!(shared.execute(&q).unwrap().len(), 1);
    let before = shared.snapshot();
    let deltas = engine.stats().deltas_applied;

    shared.with_writer(|session| {
        session.insert_triple("a", "knows", "b");
        session.add_fact("triple", &["a", "knows", "b"]);
        assert!(!session.remove_triple("a", "knows", "nobody"));
        assert_eq!(session.version(), before.version());
    });
    // Publishing finds nothing to extract.
    let applied = shared.apply(&Delta::new());
    assert_eq!(applied.version, before.version());
    assert_eq!(engine.stats().deltas_applied, deltas);
    assert!(Arc::ptr_eq(
        before.answers(&q).unwrap(),
        shared.snapshot().answers(&q).unwrap()
    ));

    // An effective insert still is one.
    shared.with_writer(|session| session.insert_triple("b", "knows", "c"));
    assert_eq!(shared.apply(&Delta::new()).version, before.version() + 1);
    assert_eq!(engine.stats().deltas_applied, deltas + 1);
    assert_eq!(shared.execute(&q).unwrap().len(), 2);
}
