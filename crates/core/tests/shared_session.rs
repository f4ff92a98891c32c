//! Concurrency tests for [`SharedSession`]: snapshot isolation, reader
//! progress during an in-flight apply, and cross-plan consistency.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use triq::persist::encode_snapshot;
use triq::prelude::*;

const TC: &str = "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                  t(?X, ?Y) -> out(?X, ?Y).";

fn chain_session(engine: &Engine, n: usize) -> Session {
    let mut session = engine.session();
    for i in 0..n {
        session.add_fact("e", &[&format!("n{i}"), &format!("n{}", i + 1)]);
    }
    session
}

#[test]
fn shared_session_is_send_sync_and_clone() {
    fn assert_send_sync<T: Send + Sync + Clone>() {}
    assert_send_sync::<SharedSession>();
}

#[test]
fn readers_see_committed_snapshots_only() {
    let engine = Engine::new();
    let q = engine.prepare(Datalog(TC, "out")).unwrap();
    let shared = chain_session(&engine, 3).into_shared();
    assert_eq!(shared.execute(&q).unwrap().len(), 6);

    // A snapshot taken now keeps answering the old state even after
    // later deltas are applied and published.
    let before = shared.snapshot();
    let v0 = before.version();
    let applied = shared.apply(&Delta::new().insert("e", &["n3", "n4"]));
    assert_eq!(applied.inserted, 1);
    assert!(applied.version > v0);
    assert_eq!(before.try_execute(&q).unwrap().len(), 6, "old snapshot");
    assert_eq!(shared.execute(&q).unwrap().len(), 10, "new snapshot");
    assert_eq!(shared.version(), applied.version);
}

#[test]
fn snapshots_are_cross_plan_consistent_mid_update() {
    // Two plans over the same data: a snapshot must answer both at the
    // SAME version, even when taken while a writer races.
    let engine = Engine::new();
    let edges = engine
        .prepare(Datalog("e(?X, ?Y) -> edge(?X, ?Y).", "edge"))
        .unwrap();
    let reach = engine.prepare(Datalog(TC, "out")).unwrap();
    let shared = chain_session(&engine, 2).into_shared();
    shared.execute(&edges).unwrap();
    shared.execute(&reach).unwrap();

    let writer = {
        let shared = shared.clone();
        thread::spawn(move || {
            for i in 2..40 {
                shared
                    .apply(&Delta::new().insert("e", &[&format!("n{i}"), &format!("n{}", i + 1)]));
            }
        })
    };
    // Readers: every snapshot must be internally consistent — the edge
    // count and the closure size must correspond to the same chain
    // length (for a chain of k edges: k edges, k·(k+1)/2 closure pairs).
    for _ in 0..200 {
        let snap = shared.snapshot();
        let (Some(e), Some(t)) = (snap.try_execute(&edges), snap.try_execute(&reach)) else {
            panic!("both plans were materialized before the writer started");
        };
        let k = e.len();
        assert_eq!(
            t.len(),
            k * (k + 1) / 2,
            "snapshot v{} mixes plan states: {k} edges but {} closure pairs",
            snap.version(),
            t.len()
        );
    }
    writer.join().unwrap();
    let final_snap = shared.snapshot();
    assert_eq!(final_snap.try_execute(&edges).unwrap().len(), 40);
}

#[test]
fn readers_progress_during_a_long_apply() {
    // The acceptance shape: readers must never be blocked for the full
    // duration of an apply — publication is a pointer swap, and reads
    // hold no lock the writer takes. A large delta keeps the writer busy
    // while reader threads keep completing reads against the previous
    // published snapshot; at least some reads must finish strictly
    // inside the apply window.
    let engine = Engine::new();
    let q = engine.prepare(Datalog(TC, "out")).unwrap();
    let shared = chain_session(&engine, 2).into_shared();
    assert_eq!(shared.execute(&q).unwrap().len(), 3);

    let applying = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let reads_during_apply = Arc::new(AtomicUsize::new(0));

    let mut readers = Vec::new();
    for _ in 0..2 {
        let shared = shared.clone();
        let q = q.clone();
        let applying = applying.clone();
        let done = done.clone();
        let reads_during_apply = reads_during_apply.clone();
        readers.push(thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                let was_applying = applying.load(Ordering::SeqCst);
                let answers = shared.execute(&q).unwrap();
                assert!(answers.len() >= 3, "never an empty or partial state");
                // A read that started and finished while the apply was
                // still in flight proves readers are not serialized
                // behind the writer.
                if was_applying && applying.load(Ordering::SeqCst) {
                    reads_during_apply.fetch_add(1, Ordering::SeqCst);
                }
                thread::yield_now();
            }
        }));
    }

    // A delta big enough that its incremental application takes real
    // time (quadratic closure growth).
    let mut big = Delta::new();
    for i in 2..220 {
        big = big.insert("e", &[&format!("n{i}"), &format!("n{}", i + 1)]);
    }
    applying.store(true, Ordering::SeqCst);
    let applied = shared.apply(&big);
    applying.store(false, Ordering::SeqCst);
    done.store(true, Ordering::SeqCst);
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(applied.inserted, 218);
    assert_eq!(shared.execute(&q).unwrap().len(), 220 * 221 / 2);
    assert!(
        reads_during_apply.load(Ordering::SeqCst) > 0,
        "no read completed during the apply window — readers are being \
         blocked for the duration of the writer's work"
    );
}

#[test]
fn first_execution_of_a_new_plan_extends_the_snapshot() {
    let engine = Engine::new();
    let q1 = engine.prepare(Datalog(TC, "out")).unwrap();
    let shared = chain_session(&engine, 2).into_shared();
    shared.execute(&q1).unwrap();
    assert_eq!(shared.snapshot().plans(), 1);
    // Preparing and executing a second plan later must not disturb the
    // first plan's published outcome (same version, map extended).
    let v = shared.version();
    let q2 = engine
        .prepare(Datalog("e(?X, ?Y) -> edge(?X, ?Y).", "edge"))
        .unwrap();
    assert_eq!(shared.execute(&q2).unwrap().len(), 2);
    let snap = shared.snapshot();
    assert_eq!(snap.version(), v);
    assert_eq!(snap.plans(), 2);
    assert!(snap.try_execute(&q1).is_some());
}

#[test]
fn apply_routes_triples_through_the_graph() {
    let engine = Engine::new();
    let shared = engine
        .load_turtle("a knows b .\n b knows c .")
        .unwrap()
        .into_shared();
    let q = engine
        .prepare(Sparql("SELECT ?X WHERE { ?X knows ?Y }"))
        .unwrap();
    assert_eq!(shared.execute(&q).unwrap().len(), 2);
    let applied = shared.apply(
        &Delta::new()
            .insert("triple", &["c", "knows", "d"])
            .delete("triple", &["a", "knows", "b"]),
    );
    assert_eq!((applied.inserted, applied.deleted), (1, 1));
    let answers = shared.execute(&q).unwrap();
    assert_eq!(answers.len(), 2);
    assert!(answers.contains(&["c"]));
    assert!(!answers.contains(&["a"]));
    // SPARQL decoding works against snapshots too.
    let snap = shared.snapshot();
    match snap.try_mappings(&q).unwrap().unwrap() {
        RegimeAnswers::Mappings(ms) => assert_eq!(ms.len(), 2),
        RegimeAnswers::Top => panic!("consistent graph"),
    }
}

#[test]
fn degraded_view_is_dropped_not_served_stale() {
    // A budget the initial state fits but the delta pushes past: the
    // view's apply fails, the plan drops out of the snapshot, and the
    // next execution reports the failure (rather than serving a stale
    // or empty fixpoint).
    let engine = Engine::builder().max_atoms(20).build();
    let q = engine.prepare(Datalog(TC, "out")).unwrap();
    let shared = chain_session(&engine, 3).into_shared();
    assert_eq!(shared.execute(&q).unwrap().len(), 6);
    let mut big = Delta::new();
    for i in 3..30 {
        big = big.insert("e", &[&format!("n{i}"), &format!("n{}", i + 1)]);
    }
    shared.apply(&big);
    assert_eq!(shared.snapshot().plans(), 0, "failed view dropped");
    let err = shared.execute(&q).unwrap_err();
    assert_eq!(err.code(), "E-RESOURCE");
}

/// 40 edges over 40 nodes, each node the source of one and the target
/// of another, so the closure joins.
fn forty_edges() -> Delta {
    let mut delta = Delta::new();
    for i in 0..40 {
        delta = delta.insert("e", &[&format!("m{i}"), &format!("m{}", (i * 7 + 3) % 40)]);
    }
    delta
}

/// Each session's `encode_snapshot` body, all taken with nothing
/// interned in between: a body starts with the process-wide interner
/// table, which tests running alongside this one grow.
fn bodies(sessions: &[SharedSession]) -> Vec<Vec<u8>> {
    let interned = || triq::common::interned_strings().len();
    loop {
        let before = interned();
        let bodies: Vec<_> = sessions.iter().map(|s| encode_snapshot(s).0).collect();
        if interned() == before {
            return bodies;
        }
    }
}

#[test]
fn one_batch_gives_one_snapshot_in_every_session() {
    // Facts reach a live view in the order the batch lists them, so the
    // view's atom ids — and the snapshot bytes — depend on the data
    // alone, never on a per-map hash seed.
    let batch = forty_edges();
    let shared: Vec<SharedSession> = (0..6)
        .map(|_| {
            let engine = Engine::new();
            let q = engine.prepare(Datalog(TC, "out")).unwrap();
            let shared = engine.session().into_shared();
            shared.execute(&q).unwrap();
            assert_eq!(shared.apply(&batch).inserted, 40);
            shared
        })
        .collect();
    let shared = bodies(&shared);
    assert!(shared.iter().all(|body| *body == shared[0]));

    // The same batch through `Session::apply_delta` before sharing.
    let plain: Vec<SharedSession> = (0..6)
        .map(|_| {
            let engine = Engine::new();
            let q = engine.prepare(Datalog(TC, "out")).unwrap();
            let mut session = engine.session();
            q.execute(&session).unwrap();
            assert_eq!(session.apply_delta(&batch), (40, 0));
            session.into_shared()
        })
        .collect();
    let plain = bodies(&plain);
    assert!(plain.iter().all(|body| *body == plain[0]));
}
