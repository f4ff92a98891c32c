//! E14 — demand-driven evaluation: a selective point query under the
//! magic-sets rewrite vs the full chase.
//!
//! Workload: left-linear transitive closure over the e6/e9/e12 random
//! graph (degree 20), queried from a single source — `t(n0, ?Y)`. The
//! full chase materializes the closure of **every** node before the
//! out-rule filters it down to one source; the demand rewrite seeds the
//! magic set with `n0` and only ever derives that source's row of the
//! closure.
//!
//! * `demand/8` — the default engine, which chases the rewritten program
//!   (engine build + load + execute, like e12's `rechase`).
//! * `full/8` — the same build and load, then `ChaseRunner::run` of the
//!   original program over the same database.
//!
//! The answers are asserted identical before anything is timed, and the
//! derived-atom counts of the two runs are printed as a ratio. The
//! driver's acceptance gate: demand derives ≥ 10x fewer atoms at scale
//! 8 — asserted on the counters (they are deterministic, unlike the
//! CI container's clock).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triq::prelude::*;

/// Left-linear TC: the recursive atom carries the bound source, so the
/// magic set stays `{n0}` instead of growing along the frontier.
const TC: &str = "e(?X, ?Y) -> t(?X, ?Y).\n t(?X, ?Z), e(?Z, ?Y) -> t(?X, ?Y).\n\
                  t(n0, ?Y) -> out(?Y).";

/// Edges per node, matching e12: dense enough that the full closure is
/// ~n² while the single-source slice stays ~n.
const DEGREE: usize = 20;

fn random_edges(n: usize, seed: u64) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for i in 0..n {
        for _ in 0..DEGREE {
            let j = rng.gen_range(0..n);
            edges.push((format!("n{i}"), format!("n{j}")));
        }
    }
    edges
}

/// A fresh engine with the point query prepared and the graph loaded.
fn load(edges: &[(String, String)]) -> (Engine, PreparedQuery, Session) {
    let engine = Engine::builder().max_atoms(50_000_000).build();
    let q = engine.prepare(Datalog(TC, "out")).unwrap();
    let mut session = engine.session();
    for (x, y) in edges {
        session.add_fact("e", &[x, y]);
    }
    (engine, q, session)
}

/// The engine's own evaluation of the point query: the demand rewrite.
fn run_demand(edges: &[(String, String)]) -> (Engine, Answers) {
    let (engine, q, session) = load(edges);
    let answers = q.execute(&session).unwrap();
    (engine, answers)
}

/// The full chase of the original program over the same database, with
/// the atoms it derived.
fn run_full(edges: &[(String, String)]) -> (usize, Answers) {
    let (_, q, session) = load(edges);
    let runner = ChaseRunner::new(q.program().clone(), q.config()).unwrap();
    let outcome = runner.run(session.database()).unwrap();
    (
        outcome.stats.derived,
        Answers::from_chase(&outcome, q.output()),
    )
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_demand");
    group.sample_size(10);

    let scale = 8usize;
    let edges = random_edges(25 * scale, 42);

    let (demand_engine, demand_answers) = run_demand(&edges);
    let (full_atoms, full_answers) = run_full(&edges);
    assert_eq!(demand_answers, full_answers, "demand diverges from full");
    assert!(
        demand_engine.stats().demand_rewrites >= 1,
        "the point query must take the rewrite"
    );
    assert_eq!(demand_engine.stats().demand_fallbacks, 0);

    let demand_atoms = demand_engine.stats().atoms_derived.max(1);
    let full_atoms = full_atoms as u64;
    println!(
        "e14_demand/atoms: demand {} vs full {} → {:.1}x fewer (gate ≥ 10.0x)",
        demand_atoms,
        full_atoms,
        full_atoms as f64 / demand_atoms as f64,
    );
    assert!(
        full_atoms >= 10 * demand_atoms,
        "demand must derive ≥ 10x fewer atoms at scale {scale} \
         (demand {demand_atoms} vs full {full_atoms})"
    );

    group.bench_function(format!("demand/{scale}"), |b| {
        b.iter(|| run_demand(&edges).1.len())
    });
    group.bench_function(format!("full/{scale}"), |b| {
        b.iter(|| run_full(&edges).1.len())
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
