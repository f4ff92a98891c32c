//! The engine counters must keep moving on the maintenance path: a
//! delta's resumed chase probes, and the full re-chase a null-entangled
//! delete falls back to derives and probes like any other chase run.

use triq::prelude::*;

#[test]
fn an_insert_into_a_live_closure_view_counts_its_join_probes() {
    let engine = Engine::new();
    let closure = engine
        .prepare(Datalog(
            "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
             t(?X, ?Y) -> out(?X, ?Y).",
            "out",
        ))
        .unwrap();
    let mut session = engine.session();
    for i in 0..4 {
        session.add_fact("e", &[&format!("n{i}"), &format!("n{}", i + 1)]);
    }
    assert_eq!(closure.execute(&session).unwrap().len(), 10);
    let before = engine.stats();

    session.add_fact("e", &["n4", "n5"]);
    assert_eq!(closure.execute(&session).unwrap().len(), 15);
    let after = engine.stats();
    assert_eq!(after.deltas_applied, before.deltas_applied + 1);
    assert_eq!(after.chase_runs, before.chase_runs, "no re-chase");
    assert!(
        after.join_probes > before.join_probes,
        "the delta chase probed: {} -> {}",
        before.join_probes,
        after.join_probes
    );
}

#[test]
fn a_full_rebuild_counts_the_rebuilt_chase() {
    // Deleting into an existential cone cannot be maintained
    // incrementally (the null's victims are unidentifiable): the view
    // re-chases its base from scratch.
    const KIDS: &str = "person(?X) -> exists ?Y parent(?X, ?Y).\n parent(?X, ?Y) -> haskid(?X).";
    let engine = Engine::new();
    let haskid = engine.prepare(Datalog(KIDS, "haskid")).unwrap();
    let mut session = engine.session();
    session.add_fact("person", &["alice"]);
    session.add_fact("person", &["bob"]);
    assert_eq!(haskid.execute(&session).unwrap().len(), 2);
    let before = engine.stats();

    assert!(session.remove_fact("person", &["bob"]));
    assert_eq!(haskid.execute(&session).unwrap().len(), 1);
    let after = engine.stats();

    // What the rebuild ran is exactly a first chase of the surviving
    // base, which a fresh engine measures on its own.
    let scratch = Engine::new();
    let mut survivors = scratch.session();
    survivors.add_fact("person", &["alice"]);
    let rebuilt = scratch.prepare(Datalog(KIDS, "haskid")).unwrap();
    assert_eq!(rebuilt.execute(&survivors).unwrap().len(), 1);
    let rebuilt = scratch.stats();
    assert!(rebuilt.atoms_derived > 0 && rebuilt.join_probes > 0);

    assert_eq!(after.deltas_applied, before.deltas_applied + 1);
    assert_eq!(after.chase_runs, before.chase_runs + 1);
    assert_eq!(
        after.atoms_derived,
        before.atoms_derived + rebuilt.atoms_derived
    );
    assert_eq!(after.join_probes, before.join_probes + rebuilt.join_probes);
}
