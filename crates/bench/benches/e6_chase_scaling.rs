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
//! * `chain_join/{scale}` — a 6-hop cycle join whose last hop closes
//!   back onto the first variable, so its probe position is fully
//!   bound;
//! * `star_join/{scale}` — selective spokes into a wide hub whose bound
//!   columns have high single-column fanout: the greedy join scans the
//!   shortest posting list of the hub and verifies the other columns
//!   row by row.
//!
//! Compare against the pre-refactor engine by checking this bench out on
//! the previous commit; the driver's acceptance gate is ≥ 2x on `tc` and
//! the e3 regime bench.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
/// bound hub columns have high per-value fanout.
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
        group.bench_function(format!("chain_join/{scale}"), |b| {
            b.iter(|| chain.run(&db).unwrap().stats.derived)
        });
    }

    for scale in [2usize, 8] {
        let db = star_db(scale);
        let star = runner(STAR_PROGRAM);
        group.bench_function(format!("star_join/{scale}"), |b| {
            b.iter(|| star.run(&db).unwrap().stats.derived)
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
