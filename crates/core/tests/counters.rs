//! The engine counters must keep moving on the maintenance path: a
//! delta's resumed chase probes, and the full re-chase a view falls back
//! to when maintenance runs out of budget derives and probes like any
//! other chase run.

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
    // Deletes are maintained, nulls or not; what still re-chases from
    // scratch is an apply that runs out of budget mid-way. The chain's
    // closure (8 edges, 36 paths, 36 answers) fits 90 atoms, but the
    // budget counts tombstones, so deleting and re-inserting a middle
    // edge soon trips it and the view recovers by rebuilding.
    const TC: &str = "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                      t(?X, ?Y) -> out(?X, ?Y).";
    let config = ChaseConfig {
        max_atoms: 90,
        ..ChaseConfig::default()
    };
    let prepare = |engine: &Engine| {
        engine
            .prepare(Datalog(TC, "out"))
            .unwrap()
            .with_config(config)
    };
    let engine = Engine::new();
    let closure = prepare(&engine);
    let mut session = engine.session();
    for i in 0..8 {
        session.add_fact("e", &[&format!("n{i}"), &format!("n{}", i + 1)]);
    }
    assert_eq!(closure.execute(&session).unwrap().len(), 36);
    let (before, after) = loop {
        let before = engine.stats();
        if before.deltas_applied == 40 {
            panic!("the budget never forced a rebuild");
        }
        if session.remove_fact("e", &["n3", "n4"]) {
            assert_eq!(closure.execute(&session).unwrap().len(), 16);
        } else {
            session.add_fact("e", &["n3", "n4"]);
            assert_eq!(closure.execute(&session).unwrap().len(), 36);
        }
        let after = engine.stats();
        if after.view_rebuilds > before.view_rebuilds {
            break (before, after);
        }
    };

    // What the rebuild ran is exactly a first chase of the same facts,
    // which a fresh engine measures on its own.
    let scratch = Engine::new();
    let survivors = scratch.load_database(session.database().clone());
    prepare(&scratch).execute(&survivors).unwrap();
    let rebuilt = scratch.stats();
    assert!(rebuilt.atoms_derived > 0 && rebuilt.join_probes > 0);

    assert_eq!(after.deltas_applied, before.deltas_applied + 1);
    assert_eq!(after.view_rebuilds, before.view_rebuilds + 1);
    assert_eq!(after.chase_runs, before.chase_runs + 1);
    assert_eq!(
        after.atoms_derived,
        before.atoms_derived + rebuilt.atoms_derived
    );
    assert_eq!(after.join_probes, before.join_probes + rebuilt.join_probes);
}
