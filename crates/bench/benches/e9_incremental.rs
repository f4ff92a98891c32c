//! E9 — incremental materialization: single-fact maintenance of a live
//! chase fixpoint vs `invalidate()` + full re-chase.
//!
//! Workloads (scale `s`, graph of `25·s` nodes with ~2 random edges per
//! node, as in e6):
//!
//! * `tc/*` — transitive closure (recursive, join-heavy, ∃-free): the
//!   canonical delta-chase / DRed shape;
//! * `negation/*` — closure plus a stratified-negation stratum
//!   (`unreachable` pairs): inserts must *revoke* higher-stratum atoms
//!   (negation victims), deletes must *derive* them (un-blocked
//!   matches).
//!
//! Per workload and scale, a single pendant-edge insert+delete pair is
//! measured three ways:
//!
//! * `incremental/…` — `MaterializedView::apply` of `+e(x,n0)` then
//!   `-e(x,n0)` (the state returns to baseline every iteration);
//! * `full/…` — the same two mutations answered by two from-scratch
//!   `ChaseRunner::run` calls (what `invalidate()` + execute costs);
//! * `session/…` — the same pair through the `Session` facade
//!   (`add_fact`/`remove_fact` + `execute`), measuring the user-visible
//!   path: the write folds into the database and the maintained view
//!   absorbs it, then the execution extracts the answers.
//!
//! The driver's acceptance gate: incremental ≥ 10x faster than full at
//! scale ≥ 8 on both workloads.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triq::prelude::*;

const TC: &str = "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).";
const NEGATION: &str = "e(?X, ?Y) -> t(?X, ?Y).\n\
                        e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                        e(?X, ?Y) -> node(?X).\n\
                        e(?X, ?Y) -> node(?Y).\n\
                        node(?X), node(?Y), !t(?X, ?Y) -> unreachable(?X, ?Y).";

fn random_edges(n: usize, per_node: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for i in 0..n {
        for _ in 0..per_node {
            let j = rng.gen_range(0..n);
            db.add_fact("e", &[&format!("n{i}"), &format!("n{j}")]);
        }
    }
    db
}

fn runner(program: &str) -> ChaseRunner {
    ChaseRunner::new(
        parse_program(program).unwrap(),
        ChaseConfig {
            max_atoms: 50_000_000,
            ..ChaseConfig::default()
        },
    )
    .unwrap()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_incremental");
    group.sample_size(10);

    for (name, program) in [("tc", TC), ("negation", NEGATION)] {
        for scale in [2usize, 8] {
            let n = 25 * scale;
            let db = random_edges(n, 2, 42);
            let runner = runner(program);

            // Incremental: one insert+delete pair per iteration; the
            // view returns to the baseline state each time.
            let mut view = MaterializedView::new(runner.clone(), db.clone()).unwrap();
            let baseline = view.instance().live_len();
            group.bench_function(format!("{name}/incremental/{scale}"), |b| {
                b.iter(|| {
                    let ins = view
                        .apply(&Delta::new().insert("e", &["fresh", "n0"]))
                        .unwrap();
                    let del = view
                        .apply(&Delta::new().delete("e", &["fresh", "n0"]))
                        .unwrap();
                    assert!(ins.rebuild.is_none() && del.rebuild.is_none());
                    view.instance().live_len()
                })
            });
            assert_eq!(view.instance().live_len(), baseline, "state restored");

            // Full: the same pair as two from-scratch chases.
            let mut full_db = db.clone();
            group.bench_function(format!("{name}/full/{scale}"), |b| {
                b.iter(|| {
                    full_db.add_fact("e", &["fresh", "n0"]);
                    let a = runner.run(&full_db).unwrap().instance.live_len();
                    full_db.remove_fact("e", &["fresh", "n0"]);
                    let b_ = runner.run(&full_db).unwrap().instance.live_len();
                    a + b_
                })
            });

            // Facade: the user-visible path (database write + maintained
            // view + answer extraction).
            let engine = Engine::new();
            let prepared = engine
                .prepare((
                    parse_program(&format!("{program}\n t(?X, ?Y) -> out(?X, ?Y).")).unwrap(),
                    "out",
                ))
                .unwrap();
            let mut session = engine.load_database(db.clone());
            prepared.execute(&session).unwrap();
            group.bench_function(format!("{name}/session/{scale}"), |b| {
                b.iter(|| {
                    session.add_fact("e", &["fresh", "n0"]);
                    let grown = prepared.execute(&session).unwrap().len();
                    session.remove_fact("e", &["fresh", "n0"]);
                    let back = prepared.execute(&session).unwrap().len();
                    (grown, back)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
