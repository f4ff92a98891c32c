//! Differential testing of the cost-based join planner.
//!
//! The planner must be a pure accelerator: whatever join order it picks
//! (and whatever hash indexes it builds), the chase's *output* — not
//! just the answer sets, but AtomIds, provenance and null numbering —
//! must be **byte-identical** to the PR 2 greedy fallback and to a
//! deliberately bad forced-reverse order. The engine guarantees this by
//! canonicalizing the per-round apply order (matches sorted by their
//! chosen body ids), and this suite pins it:
//!
//! * random programs (including the long-chain and star-join rule
//!   shapes that actually give a planner orders to choose between) ×
//!   random databases, chased under planner-on / forced-reverse /
//!   greedy-fallback, each under the sequential and two forced-morsel
//!   schedules (default granularity plus a seed-picked extreme: morsel
//!   size 1, non-divisor 7, or a forced single worker) — instances,
//!   derivations, ⊤-classification and per-pred answers all
//!   byte-identical;
//! * random RDF graphs queried under all three SPARQL semantics (plain,
//!   J·K^U, J·K^All) through the prepared-query facade — mappings
//!   byte-identical across the three planner modes.

mod common;

use common::{
    assert_outcomes_identical, bulk_load_join_shapes, random_chain_rule, random_db, random_graph,
    random_program_shaped, random_star_rule, schema_of, ProgramShape, PREDS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triq::datalog::schedule::{force, JoinOrder, Schedule};
use triq::datalog::{chase, ChaseConfig};
use triq::prelude::*;

/// The three planner modes under test: the cost-based default, the
/// forced-reverse order, and the PR 2 adaptive greedy fallback.
const MODES: [JoinOrder; 3] = [JoinOrder::CostBased, JoinOrder::Reverse, JoinOrder::Greedy];

/// The default schedule under join order `join_order`.
fn ordered(join_order: JoinOrder) -> Schedule {
    Schedule {
        join_order,
        ..Schedule::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Planner-on ≡ forced-reverse ≡ greedy fallback, byte for byte,
    /// under both the sequential and the forced-parallel schedule.
    #[test]
    fn planner_modes_produce_byte_identical_instances(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_program_shaped(&mut rng, ProgramShape {
            allow_exists: true,
            allow_multihead: true,
            join_shapes: true,
        });
        prop_assume!(program.validate().is_ok());
        prop_assume!(triq::datalog::stratify(&program).is_ok());
        let mut db = random_db(&mut rng, &program);
        // A slice of the cases runs at *bulk* scale: the chain/star
        // predicates get loaded past the planner's drift floor and the
        // joint-index thresholds, so the stats-driven re-plan, the
        // joint/full hash-probe paths and index invalidation are pinned
        // differentially too — a handful-of-facts db never leaves the
        // build-time heuristic plans.
        if rng.gen_bool(0.15) {
            bulk_load_join_shapes(&mut rng, &program, &mut db);
        }
        let base_config = ChaseConfig { max_atoms: 100_000, ..ChaseConfig::default() };
        let baseline = {
            let _schedule = force(Schedule { join_order: JoinOrder::Greedy, ..common::sequential() });
            chase(&db, &program, base_config)
        };
        // Each planner mode runs sequentially, forced-morsel at the
        // default granularity, and forced-morsel at a seed-picked
        // extreme (size 1 / non-divisor 7 / forced single worker).
        let (morsel_size, workers) =
            [(1usize, 2usize), (7, 3), (2048, 1)][seed as usize % 3];
        let schedules = [
            (usize::MAX, 2048, 0),
            (0, 2048, 0),
            (0, morsel_size, workers),
        ];
        for join_order in MODES {
            for (parallel_threshold, morsel_size, workers) in schedules {
                let out = {
                    let _schedule = force(Schedule {
                        parallel_threshold,
                        morsel_size,
                        workers,
                        join_order,
                    });
                    chase(&db, &program, base_config)
                };
                let what = format!(
                    "{join_order:?}/par={}/morsel={morsel_size}x{workers} (seed {seed})",
                    parallel_threshold == 0
                );
                match (&baseline, &out) {
                    (Ok(baseline), Ok(out)) => {
                        assert_outcomes_identical(baseline, out, &what);
                        // Answers (the §3.2 `Q(D)`) for every predicate
                        // of the program, byte-identical too.
                        let schema = schema_of(&program);
                        let preds = PREDS
                            .iter()
                            .copied()
                            .chain(schema.iter().map(|(p, _)| p.as_str()));
                        for pred in preds {
                            prop_assert_eq!(
                                Answers::from_chase(baseline, intern(pred)),
                                Answers::from_chase(out, intern(pred)),
                                "answers diverge on {} under {}", pred, &what
                            );
                        }
                    }
                    // A resource-budget blowup must not depend on the
                    // plan either: the instances are byte-identical, so
                    // the atom budget trips at the same atom.
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!(
                        "one mode errored, the other did not ({what}): \
                         baseline {:?} vs {:?}", a.is_ok(), b.is_ok()
                    ),
                }
            }
        }
    }
}

/// At-scale determinism pin: a chain + star program over a database big
/// enough that the cost-based run *provably* takes the stats-driven
/// paths — drift-triggered planning, a joint-index build, hash-served
/// probes, and (through a maintained view growing past 2×) a re-plan —
/// while remaining byte-identical to the greedy fallback throughout.
#[test]
fn bulk_scale_run_takes_the_indexed_paths_and_stays_identical() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut program = Program::new();
    program.rules.push(random_chain_rule(&mut rng));
    program.rules.push(random_star_rule(&mut rng));
    let mut db = Database::new();
    bulk_load_join_shapes(&mut rng, &program, &mut db);
    let config = ChaseConfig {
        max_atoms: 1_000_000,
        ..ChaseConfig::default()
    };
    let cost = chase(&db, &program, config).unwrap();
    let greedy = {
        let _greedy = force(ordered(JoinOrder::Greedy));
        chase(&db, &program, config).unwrap()
    };
    assert_outcomes_identical(&greedy, &cost, "bulk CostBased vs Greedy");
    assert!(
        cost.stats.plans_compiled >= 1,
        "drift must trigger planning"
    );
    assert!(cost.stats.index_probes > 0, "hash probes must serve");
    assert!(
        cost.stats.index_builds >= 1,
        "the star hub must earn a joint index (stats: {:?})",
        cost.stats
    );
    // Re-plan on drift: a maintained view whose hub more than doubles
    // re-enters the stratum with drifted cardinalities.
    let runner = ChaseRunner::new(program.clone(), config).unwrap();
    let mut view = MaterializedView::new(runner, db.clone()).unwrap();
    let hub_arity = schema_of(&program)
        .iter()
        .find(|(p, _)| p == "hub")
        .expect("the star rule uses a hub")
        .1;
    let mut delta = Delta::new();
    for i in 0..700usize {
        let args: Vec<String> = (0..hub_arity)
            .map(|c| {
                if c + 1 == hub_arity {
                    format!("xt{i}") // the output column stays distinct
                } else {
                    match c {
                        0 => format!("ba{}", i % 16),
                        1 => format!("bb{}", i % 16),
                        _ => format!("bc{}", i % 8),
                    }
                }
            })
            .collect();
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        delta = delta.insert("hub", &refs);
    }
    let summary = view.apply(&delta).unwrap();
    let mut model = db.clone();
    common::apply_to_model(&mut model, &delta);
    assert_eq!(
        common::fact_strings(&view.database()),
        common::fact_strings(&model),
        "the view's facts diverged from the model's"
    );
    assert!(
        summary.run.replans >= 1,
        "a 2x-grown hub must re-plan on drift (summary: {summary:?})"
    );
    // And the maintained view still matches a from-scratch chase (set
    // equality — a resumed chase numbers its new atoms above the old
    // watermark, so ids legitimately differ from a scratch run).
    let scratch = view.runner().run(&model).unwrap();
    assert_eq!(
        common::ground_strings(&scratch),
        view.instance()
            .ground_part()
            .iter()
            .map(|a| a.to_string())
            .collect::<std::collections::BTreeSet<_>>(),
        "view diverged from scratch after the drifted apply"
    );
    assert_eq!(scratch.instance.live_len(), view.instance().live_len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    /// All three SPARQL regimes through the facade, unchanged by the
    /// planner mode (the regimes run the *restricted* chase, whose null
    /// invention is order-sensitive — the canonical apply order is what
    /// keeps the three modes byte-identical even there).
    #[test]
    fn sparql_regimes_agree_across_planner_modes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng);
        let patterns = [
            "{ ?X rdf:type C2 }",
            "{ ?X e2 ?Y }",
            "{ ?X e1 ?Y . ?Y rdf:type C1 }",
        ];
        let pattern = parse_pattern(patterns[rng.gen_range(0..patterns.len())]).unwrap();
        let engine = Engine::new();
        let mut session = engine.load_graph(graph);
        // A session keeps one view per plan: invalidate before each order
        // so every one of them chases.
        let mut mappings_under = |q: &PreparedQuery, join_order| {
            session.invalidate();
            let _schedule = force(ordered(join_order));
            q.mappings(&session).unwrap()
        };
        for semantics in [Semantics::Plain, Semantics::RegimeU, Semantics::RegimeAll] {
            let q = engine.prepare((&pattern, semantics)).unwrap();
            let baseline = mappings_under(&q, JoinOrder::Greedy);
            for join_order in [JoinOrder::CostBased, JoinOrder::Reverse] {
                let got = mappings_under(&q, join_order);
                prop_assert_eq!(
                    &got, &baseline,
                    "{:?} diverges under {:?} (seed {})", semantics, join_order, seed
                );
            }
        }
    }
}
