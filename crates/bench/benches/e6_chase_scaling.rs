//! E6b — chase-dominated scaling on the columnar relation store.
//!
//! Workloads where essentially all time is spent in the semi-naive join
//! loops (the data plane this PR rewrote):
//!
//! * `tc/{n}` — transitive closure of a random sparse graph with `n`
//!   nodes (quadratic output, join-heavy, no existentials);
//! * `negation/{n}` — closure plus a stratified-negation stratum that
//!   membership-probes every pair (borrowed-key `contains` path);
//! * `families/{k}` — `k` independent enumeration-heavy triangle joins
//!   evaluated in one stratum;
//! * `chain_join/{planner}/{scale}` — a 6-hop cycle join whose last hop
//!   closes back onto the first variable: the cost-based planner probes
//!   it with O(1) whole-tuple hashes where the greedy fallback scans
//!   posting lists, and skips the per-step candidate rescans;
//! * `star_join/{planner}/{scale}` — selective spokes into a wide hub:
//!   the planner requests an on-demand joint hash index over the bound
//!   hub columns.
//!
//! After the criterion groups, the bench prints the **planner-on vs
//! planner-off wall-clock ratio** for both join shapes at the largest
//! scale. The chain ratio carries an informational gate of ≥ 1.3x —
//! printed, not enforced, because a loaded 1-core container cannot time
//! reliably.
//!
//! Compare against the pre-refactor engine by checking this bench out on
//! the previous commit; the driver's acceptance gate is ≥ 2x on `tc` and
//! the e3 regime bench.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use triq::datalog::schedule::{self, JoinOrder, Schedule};
use triq::datalog::ChaseOutcome;
use triq::prelude::*;

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

const TC_PROGRAM: &str = "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).";

fn runner(program: &str) -> ChaseRunner {
    let p = parse_program(program).unwrap();
    ChaseRunner::new(
        p,
        ChaseConfig {
            max_atoms: 50_000_000,
            ..ChaseConfig::default()
        },
    )
    .unwrap()
}

/// `runner.run(db)` under a forced schedule.
fn run_under(schedule: Schedule, runner: &ChaseRunner, db: &Database) -> ChaseOutcome {
    let _schedule = schedule::force(schedule);
    runner.run(db).unwrap()
}

/// The schedule with join order `join_order`.
fn ordered(join_order: JoinOrder) -> Schedule {
    Schedule { join_order }
}

/// `k` independent enumeration-heavy 3-way joins in one stratum
/// (triangle detection per edge family): lots of probing, few
/// derivations.
fn family_program(k: usize) -> String {
    (0..k)
        .map(|f| format!("e{f}(?X, ?Y), e{f}(?Y, ?Z), e{f}(?Z, ?X) -> tri{f}(?X).\n"))
        .collect()
}

fn family_db(k: usize, n: usize, per_node: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(7);
    let mut db = Database::new();
    for f in 0..k {
        for i in 0..n {
            for _ in 0..per_node {
                let j = rng.gen_range(0..n);
                db.add_fact(&format!("e{f}"), &[&format!("n{i}"), &format!("n{j}")]);
            }
        }
    }
    db
}

const CHAIN_PROGRAM: &str = "r0(?A,?B), r1(?B,?C), r2(?C,?D), r3(?D,?E), r4(?E,?F), \
                             r5(?F,?A) -> out(?A).";
const STAR_PROGRAM: &str = "s1(?A), s2(?B), s3(?C), hub(?A,?B,?C,?D) -> out(?D).";

/// Six fanout-3 hop relations over `60·scale` nodes; the rule's last hop
/// closes the cycle, so its probe position is fully bound.
fn chain_db(scale: usize) -> Database {
    let n = 60 * scale;
    let mut db = Database::new();
    for k in 0..6 {
        for i in 0..n {
            for j in 0..3 {
                db.add_fact(
                    &format!("r{k}"),
                    &[&format!("n{i}"), &format!("n{}", (3 * i + j + k) % n)],
                );
            }
        }
    }
    db
}

/// A `4000·scale`-row hub with skewed columns plus selective spokes: the
/// two bound hub columns have high per-value fanout, so the planner
/// requests a joint hash index for the probe.
fn star_db(scale: usize) -> Database {
    let mut db = Database::new();
    for i in 0..4000 * scale {
        db.add_fact(
            "hub",
            &[
                &format!("a{}", i % 64),
                &format!("b{}", i % 61),
                &format!("c{}", i % 8),
                &format!("d{i}"),
            ],
        );
    }
    for i in 0..24 {
        db.add_fact("s1", &[&format!("a{i}")]);
        db.add_fact("s2", &[&format!("b{i}")]);
    }
    for i in 0..6 {
        db.add_fact("s3", &[&format!("c{i}")]);
    }
    db
}

/// Median wall-clock of `iters` runs under `schedule`.
fn median_run(schedule: Schedule, runner: &ChaseRunner, db: &Database, iters: usize) -> f64 {
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(run_under(schedule, runner, db));
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Planner-on vs planner-off ratio for one workload, printed as bench
/// output. The timing `gate` is informational — the 1-core CI container
/// cannot time reliably enough to fail the build on it — but the
/// byte-identity assertion (same atoms, same ids, same ⊤) is enforced.
/// Skipped under a CLI name filter that doesn't match, exactly like the
/// criterion benches.
fn report_ratio(name: &str, program: &str, db: &Database, gate: f64) {
    if !criterion::matches_filter(name) {
        return;
    }
    let (on, off) = (ordered(JoinOrder::CostBased), ordered(JoinOrder::Greedy));
    let runner = runner(program);
    // Answers must agree however the ratio turns out — full instance
    // equality, not just cardinality.
    let out_on = run_under(on, &runner, db);
    let out_off = run_under(off, &runner, db);
    assert_eq!(
        out_on.inconsistent, out_off.inconsistent,
        "planner changed ⊤ on {name}"
    );
    assert_eq!(
        out_on.instance.len(),
        out_off.instance.len(),
        "planner changed the atom count on {name}"
    );
    for (id, atom) in out_off.instance.iter() {
        assert_eq!(
            out_on.instance.find(&atom),
            Some(id),
            "planner changed atom {atom} on {name}"
        );
    }
    let t_on = median_run(on, &runner, db, 5);
    let t_off = median_run(off, &runner, db, 5);
    let ratio = t_off / t_on;
    println!(
        "{name}: planner-on {:.2?} vs planner-off {:.2?} → {ratio:.2}x \
         (informational gate ≥ {gate:.1}x)",
        std::time::Duration::from_secs_f64(t_on),
        std::time::Duration::from_secs_f64(t_off),
    );
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_chase_scaling");
    group.sample_size(10);

    for n in [100usize, 300] {
        let db = random_edges(n, 2, 42);
        let tc = runner(TC_PROGRAM);
        group.bench_function(format!("tc/{n}"), |b| {
            b.iter(|| tc.run(&db).unwrap().stats.derived)
        });
    }

    for n in [100usize, 200] {
        let db = random_edges(n, 2, 43);
        let neg = runner(
            "e(?X, ?Y) -> t(?X, ?Y).\n\
             e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
             e(?X, ?Y) -> node(?X).\n\
             e(?X, ?Y) -> node(?Y).\n\
             node(?X), node(?Y), !t(?X, ?Y) -> unreachable(?X, ?Y).",
        );
        group.bench_function(format!("negation/{n}"), |b| {
            b.iter(|| neg.run(&db).unwrap().stats.derived)
        });
    }

    let k = 4usize;
    let program = family_program(k);
    let db = family_db(k, 600, 12);
    let family = runner(&program);
    group.bench_function(format!("families/{k}"), |b| {
        b.iter(|| family.run(&db).unwrap().stats.derived)
    });

    for scale in [2usize, 8] {
        let db = chain_db(scale);
        let chain = runner(CHAIN_PROGRAM);
        for (label, join_order) in [
            ("planner_on", JoinOrder::CostBased),
            ("planner_off", JoinOrder::Greedy),
        ] {
            group.bench_function(format!("chain_join/{label}/{scale}"), |b| {
                b.iter(|| run_under(ordered(join_order), &chain, &db).stats.derived)
            });
        }
    }

    for scale in [2usize, 8] {
        let db = star_db(scale);
        let star = runner(STAR_PROGRAM);
        for (label, join_order) in [
            ("planner_on", JoinOrder::CostBased),
            ("planner_off", JoinOrder::Greedy),
        ] {
            group.bench_function(format!("star_join/{label}/{scale}"), |b| {
                b.iter(|| run_under(ordered(join_order), &star, &db).stats.derived)
            });
        }
    }

    group.finish();

    report_ratio("chain_join/8", CHAIN_PROGRAM, &chain_db(8), 1.3);
    report_ratio("star_join/8", STAR_PROGRAM, &star_db(8), 1.3);
}

criterion_group!(benches, bench);
criterion_main!(benches);
