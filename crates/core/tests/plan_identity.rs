//! A plan has one identity — its program and chase configuration, the
//! `PlanKey` — and a session has one view per plan: prepared queries
//! that compile the same plan share a view (and, per output predicate,
//! one published answer set), a changed configuration is a different
//! plan, and a view recovered from a snapshot is found under the same
//! key as a live one. (That two keys with colliding fingerprints stay
//! two plans is pinned next to the key itself, in
//! `triq_datalog::persist`'s unit tests.)

use std::sync::Arc;
use triq::persist::{decode_snapshot, encode_snapshot};
use triq::prelude::*;

const TC: &str = "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                  t(?X, ?Y) -> out(?X, ?Y).";

/// Reachability from one source: the bound constant gives the plan a
/// magic-set rewrite, so its view is demand-built.
const TC_FROM_SRC: &str = "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                           t(src, ?Y) -> out(?Y).";

fn chain(engine: &Engine, head: &str, edges: usize) -> Session {
    let mut session = engine.session();
    session.add_fact("e", &[head, "n0"]);
    for i in 0..edges {
        session.add_fact("e", &[&format!("n{i}"), &format!("n{}", i + 1)]);
    }
    session
}

#[test]
fn two_prepares_of_one_plan_share_one_view() {
    let engine = Engine::new();
    let first = engine.prepare(Datalog(TC, "out")).unwrap();
    let second = engine.prepare(Datalog(TC, "out")).unwrap();
    assert_eq!(first.fingerprint(), second.fingerprint());

    let session = chain(&engine, "a", 3);
    let answers = first.execute(&session).unwrap();
    assert_eq!(second.execute(&session).unwrap(), answers);
    assert_eq!(engine.stats().chase_runs, 1, "the second prepare hit");

    let shared = session.into_shared();
    let snap = shared.snapshot();
    assert_eq!(snap.plans(), 1);
    assert!(Arc::ptr_eq(
        snap.answers(&first).unwrap(),
        snap.answers(&second).unwrap()
    ));
    assert_eq!(shared.execute(&second).unwrap(), answers);
    assert_eq!(engine.stats().chase_runs, 1);
}

#[test]
fn two_outputs_of_one_program_share_the_view_not_the_answers() {
    const BOTH: &str = "e(?X, ?Y) -> from(?X).\n e(?X, ?Y) -> to(?Y).";
    let engine = Engine::new();
    let from = engine.prepare(Datalog(BOTH, "from")).unwrap();
    let to = engine.prepare(Datalog(BOTH, "to")).unwrap();
    let mut session = engine.session();
    session.add_fact("e", &["a", "b"]);
    let shared = session.into_shared();

    assert!(shared.execute(&from).unwrap().contains(&["a"]));
    assert!(shared.execute(&to).unwrap().contains(&["b"]));
    assert_eq!(engine.stats().chase_runs, 1, "Π(D) was chased once");
    assert_eq!(shared.snapshot().plans(), 1);

    // Both outputs are republished from the one view that absorbed the
    // delta.
    shared.apply(&Delta::new().insert("e", &["c", "d"]));
    let snap = shared.snapshot();
    let (from_now, to_now) = (
        snap.try_execute(&from).unwrap(),
        snap.try_execute(&to).unwrap(),
    );
    assert_eq!((from_now.len(), to_now.len()), (2, 2));
    assert!(from_now.contains(&["c"]) && !from_now.contains(&["d"]));
    assert!(to_now.contains(&["d"]) && !to_now.contains(&["c"]));
    assert_eq!(engine.stats().chase_runs, 1);
    assert_eq!(engine.stats().deltas_applied, 1);
}

#[test]
fn the_configuration_is_part_of_the_identity() {
    let engine = Engine::new();
    let q = engine.prepare(Datalog(TC, "out")).unwrap();
    let same = q.clone().with_config(q.config());
    let deeper = q.clone().with_config(ChaseConfig {
        max_null_depth: 9,
        ..q.config()
    });
    assert_eq!(same.fingerprint(), q.fingerprint());
    assert_ne!(deeper.fingerprint(), q.fingerprint());

    let session = chain(&engine, "a", 2);
    q.execute(&session).unwrap();
    // Same config → same plan → cache hit, no extra chase.
    same.execute(&session).unwrap();
    assert_eq!(engine.stats().chase_runs, 1);
    // A different config is a different plan with a view of its own.
    deeper.execute(&session).unwrap();
    assert_eq!(engine.stats().chase_runs, 2);
    assert_eq!(session.into_shared().snapshot().plans(), 2);
}

#[test]
fn a_demand_built_view_is_recovered_under_the_rewritten_plans_key() {
    for mode in [DemandMode::Auto, DemandMode::Force] {
        let engine = Engine::builder().demand(mode).build();
        let q = engine.prepare(Datalog(TC_FROM_SRC, "out")).unwrap();
        assert!(q.uses_demand(), "{mode}");
        let shared = chain(&engine, "src", 3).into_shared();
        let before = shared.execute(&q).unwrap();
        assert_eq!(before.len(), 4, "{mode}");
        let (bytes, _) = encode_snapshot(&shared);

        let engine2 = Engine::builder().demand(mode).build();
        let q2 = engine2.prepare(Datalog(TC_FROM_SRC, "out")).unwrap();
        let recovered = decode_snapshot(&engine2, &bytes).unwrap().into_shared();
        assert_eq!(recovered.execute(&q2).unwrap(), before, "{mode}");
        assert_eq!(engine2.stats().chase_runs, 0, "{mode}: served as stored");

        // With demand off the query is a different plan, and the stored
        // cone is not the full fixpoint it needs: it chases its own.
        let off = q2.clone().with_config(ChaseConfig {
            demand: DemandMode::Off,
            ..q2.config()
        });
        assert_eq!(recovered.execute(&off).unwrap(), before, "{mode}");
        assert_eq!(engine2.stats().chase_runs, 1, "{mode}");
    }
}

#[test]
fn the_rewritten_text_cannot_be_prepared_as_a_plain_program() {
    // A demand view is chased over D ∪ {seed} but filed under the
    // rewritten program's key. Were that text preparable as an ordinary
    // program, its view — chased over D, no seed, hence empty — would sit
    // under the same key and be served to the demand query.
    for mode in [DemandMode::Auto, DemandMode::Force] {
        let engine = Engine::builder().demand(mode).build();
        let victim = engine.prepare(Datalog(TC_FROM_SRC, "out")).unwrap();
        let rewritten = triq::datalog::demand::rewrite(victim.program(), victim.output()).unwrap();
        let text = rewritten.program.to_string();
        let collides = triq::datalog::persist::PlanKey::new(&rewritten.program, &victim.config());
        assert_eq!(Some(collides.fingerprint()), victim.demand_fingerprint());

        let attack = engine.prepare(Datalog(&text, "out")).unwrap_err();
        assert_eq!(attack.code(), "E-INVALID-PROGRAM", "{mode}");
        let as_output = engine.prepare(Datalog(TC, "~d~seed")).unwrap_err();
        assert_eq!(as_output.code(), "E-INVALID-PROGRAM", "{mode}");

        let shared = chain(&engine, "src", 1).into_shared();
        assert_eq!(shared.execute(&victim).unwrap().len(), 2, "{mode}");
    }
}

#[test]
fn reserved_facts_arriving_as_data_are_not_operations() {
    // The seed of a demand view is the view's own fact, never the
    // session's: "inserting" it and then deleting it as data used to
    // reach the live view as a real delete and leave it answering ∅.
    let engine = Engine::new();
    let q = engine.prepare(Datalog(TC_FROM_SRC, "out")).unwrap();
    assert!(q.uses_demand());
    let mut session = chain(&engine, "src", 1);
    let version = session.version();
    assert_eq!(q.execute(&session).unwrap().len(), 2);
    session.add_fact("~d~seed", &["~d~on"]);
    assert_eq!(q.execute(&session).unwrap().len(), 2);
    assert!(!session.remove_fact("~d~seed", &["~d~on"]));
    assert_eq!(q.execute(&session).unwrap().len(), 2);
    assert_eq!(session.version(), version);

    // The same through a shared session's batch path, mixed with data.
    let shared = session.into_shared();
    let mixed = Delta::new()
        .delete("~d~seed", &["~d~on"])
        .insert("~d~m~bf~t", &["n1"])
        .insert("e", &["n1", "n2"]);
    let applied = shared.apply(&mixed);
    assert_eq!((applied.inserted, applied.deleted), (1, 0));
    assert_eq!(applied.version, version + 1);
    assert_eq!(shared.execute(&q).unwrap().len(), 3);
}

#[test]
fn recovered_views_count_toward_the_one_table_bound() {
    // The view table holds at most 32 plans, recovered ones included; a
    // never-seen plan arriving at a full table clears it (coarse by
    // design), after which the evicted plans chase again.
    const BOUND: usize = 32;
    let plan = |engine: &Engine, i: usize| {
        let text = format!("e(?X, ?Y) -> out{i}(?X).");
        engine.prepare(Datalog(&text, &format!("out{i}"))).unwrap()
    };
    let engine = Engine::new();
    let session = chain(&engine, "a", 1);
    for i in 0..BOUND {
        assert_eq!(plan(&engine, i).execute(&session).unwrap().len(), 2);
    }
    assert_eq!(engine.stats().chase_runs, BOUND as u64);
    let (bytes, _) = encode_snapshot(&session.into_shared());

    let engine2 = Engine::new();
    let recovered = decode_snapshot(&engine2, &bytes).unwrap();
    for i in 0..BOUND {
        assert_eq!(plan(&engine2, i).execute(&recovered).unwrap().len(), 2);
    }
    assert_eq!(
        engine2.stats().chase_runs,
        0,
        "all {BOUND} served as stored"
    );
    plan(&engine2, BOUND).execute(&recovered).unwrap();
    assert_eq!(engine2.stats().chase_runs, 1);
    assert_eq!(plan(&engine2, 0).execute(&recovered).unwrap().len(), 2);
    assert_eq!(
        engine2.stats().chase_runs,
        2,
        "plan 0 was evicted with the rest"
    );
    assert_eq!(recovered.into_shared().snapshot().plans(), 2);
}
