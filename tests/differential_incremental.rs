//! Differential testing of the incremental-maintenance subsystem: a
//! [`MaterializedView`] driven by random insert/delete sequences must
//! stay **byte-identical** (ground atoms, per-predicate answers, the
//! ⊤/consistent classification) to a from-scratch chase of the mutated
//! database — after every single step.
//!
//! Three angles, mirroring `differential_chase.rs`:
//!
//! * the skolem strategy on random Datalog∃,¬s,⊥ programs (existentials,
//!   negation, builtins, constraints all appear) — insert-only sequences
//!   exercise the retained-memo resume, deletes exercise DRed through
//!   labeled nulls; three quarters of the cases
//!   additionally force the morsel-parallel schedule (threshold 0,
//!   morsel sizes 1/7/2048, varying worker counts), so maintenance under
//!   DRed is pinned schedule-oblivious too;
//! * the restricted strategy on existential-free programs (where the
//!   strategies coincide definitionally);
//! * random RDF graphs mutated through the `Session` facade
//!   (`insert_triple`/`remove_triple`) under **all three** SPARQL
//!   semantics, compared against a fresh engine on the mutated graph.
//!
//! Under the skolem strategy DRed runs through labeled nulls: the skolem
//! angle also asserts that no delta falls back to a rebuild for its
//! deletion cone and that the maintained memo holds exactly the triggers
//! a from-scratch chase memoizes, and a fourth angle inserts and deletes
//! individuals under a cyclic TBox whose null chains run to the depth
//! bound. `PROPTEST_CASES` raises the case counts of both.

mod common;

use common::{ground_strings, random_fact, random_graph, random_program, schema_of, PREDS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triq::datalog::schedule::{force, Schedule};
use triq::datalog::{chase, ChaseConfig, ChaseRunner, GroundAtom, MaterializedView, RebuildReason};
use triq::prelude::*;

/// `default` cases, or more when the `PROPTEST_CASES` environment
/// variable asks for more.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .map_or(default, |n: u32| n.max(default))
}

/// A random mutation batch: 1–3 ops, deletions biased toward facts that
/// are actually present.
fn random_delta(rng: &mut StdRng, schema: &[(String, usize)], view: &MaterializedView) -> Delta {
    let mut delta = Delta::new();
    for _ in 0..rng.gen_range(1..4) {
        let delete = rng.gen_bool(0.45);
        if delete {
            let present: Vec<GroundAtom> = view.database().iter().collect();
            if !present.is_empty() && rng.gen_bool(0.8) {
                let atom = &present[rng.gen_range(0..present.len())];
                let args: Vec<Symbol> = atom.terms.iter().filter_map(|t| t.as_const()).collect();
                delta.add_delete(Fact::new(atom.pred, args));
                continue;
            }
        }
        let Some(fact) = random_fact(rng, schema) else {
            continue;
        };
        if delete {
            delta.add_delete(fact); // often absent: must be a no-op
        } else {
            delta.add_insert(fact);
        }
    }
    delta
}

/// The maintained view vs a from-scratch chase of its current base.
fn assert_view_matches_scratch(view: &MaterializedView, config: ChaseConfig, ctx: &str) {
    let scratch = chase(view.database(), view.runner().program(), config)
        .expect("scratch chase within budget");
    let maintained = view.outcome();
    assert_eq!(
        scratch.inconsistent, maintained.inconsistent,
        "⊤-classification diverged ({ctx})"
    );
    assert_eq!(
        ground_strings(&scratch),
        ground_strings(maintained),
        "ground atoms diverged ({ctx})"
    );
    for pred in PREDS {
        assert_eq!(
            Answers::from_chase(&scratch, intern(pred)),
            Answers::from_chase(maintained, intern(pred)),
            "answers diverged on {pred} ({ctx})"
        );
    }
}

fn drive(seed: u64, allow_exists: bool, strategy: ExistentialStrategy) {
    let mut rng = StdRng::seed_from_u64(seed);
    let program = random_program(&mut rng, allow_exists, true);
    if program.validate().is_err() || triq::datalog::stratify(&program).is_err() {
        return;
    }
    // A quarter of the cases maintain sequentially; the rest force the
    // morsel path at varying granularity — incremental resume and DRed
    // rederivation must be oblivious to the schedule.
    let (parallel_threshold, morsel_size, workers) = match seed % 4 {
        0 => (usize::MAX, 2048, 0),
        1 => (0, 1, 2),
        2 => (0, 7, 3),
        _ => (0, 2048, 1),
    };
    let _schedule = force(Schedule {
        parallel_threshold,
        morsel_size,
        workers,
        ..Schedule::default()
    });
    let config = ChaseConfig {
        strategy,
        max_atoms: 100_000,
        ..ChaseConfig::default()
    };
    let schema = schema_of(&program);
    let runner = ChaseRunner::new(program, config).unwrap();
    let mut db = Database::new();
    for _ in 0..rng.gen_range(0..6) {
        if let Some(f) = random_fact(&mut rng, &schema) {
            let args: Vec<&str> = f.args.iter().map(|s| s.as_str()).collect();
            db.add_fact(f.pred.as_str(), &args);
        }
    }
    let Ok(mut view) = MaterializedView::new(runner, db) else {
        return; // atom budget blown at scale zero — nothing to maintain
    };
    for step in 0..6 {
        let delta = random_delta(&mut rng, &schema, &view);
        let Ok(summary) = view.apply(&delta) else {
            return; // budget blowup mid-sequence: scratch would blow too
        };
        let ctx = format!("seed {seed}, step {step}, delta {delta:?}");
        assert_view_matches_scratch(&view, config, &ctx);
        if strategy == ExistentialStrategy::Skolem {
            // A rebuild may only recover from an exhausted budget: no
            // deletion cone, nulls or not, forces one.
            assert!(
                matches!(summary.rebuild, None | Some(RebuildReason::Budget)),
                "{:?} ({ctx})",
                summary.rebuild
            );
            let fresh = MaterializedView::new(view.runner().clone(), view.database().clone())
                .expect("scratch chase within budget");
            assert_eq!(
                view.memo_len(),
                fresh.memo_len(),
                "memoized triggers ({ctx})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(300)))]

    /// Skolem strategy, existentials allowed: insert resume + DRed
    /// through labeled nulls must track the from-scratch chase.
    #[test]
    fn maintained_view_matches_scratch_skolem(seed in any::<u64>()) {
        drive(seed, true, ExistentialStrategy::Skolem);
    }

    /// Restricted strategy on existential-free programs (the strategies
    /// coincide definitionally, so the maintained view must too).
    #[test]
    fn maintained_view_matches_scratch_restricted(seed in any::<u64>()) {
        drive(seed, false, ExistentialStrategy::Restricted);
    }
}

// ---------------------------------------------------------------------------
// The facade under the three SPARQL semantics.
// ---------------------------------------------------------------------------

fn random_triple(rng: &mut StdRng, graph: &Graph) -> (String, String, String) {
    // Mostly fresh assertions; sometimes an existing triple (so removal
    // actually hits, and insertion is sometimes redundant).
    if !graph.is_empty() && rng.gen_bool(0.5) {
        let all: Vec<&Triple> = graph.iter().collect();
        let t = all[rng.gen_range(0..all.len())];
        return (
            t.s.as_str().to_string(),
            t.p.as_str().to_string(),
            t.o.as_str().to_string(),
        );
    }
    let entities = ["ind_a", "ind_b", "ind_c"];
    let s = entities[rng.gen_range(0..entities.len())].to_string();
    if rng.gen_bool(0.4) {
        let classes = ["C1", "C2"];
        (
            s,
            "rdf:type".to_string(),
            classes[rng.gen_range(0..classes.len())].to_string(),
        )
    } else {
        let props = ["e1", "e2"];
        (
            s,
            props[rng.gen_range(0..props.len())].to_string(),
            entities[rng.gen_range(0..entities.len())].to_string(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Live-mutated sessions under plain / J·K^U / J·K^All must answer
    /// exactly like a fresh engine over the mutated graph — after every
    /// mutation, for every semantics, via the same prepared queries.
    #[test]
    fn live_sessions_match_fresh_sessions_under_all_semantics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graph = random_graph(&mut rng);
        let patterns = [
            "{ ?X rdf:type C2 }",
            "{ ?X e2 ?Y }",
            "{ ?X e1 ?Y . ?Y rdf:type C1 }",
        ];
        let pattern = parse_pattern(patterns[rng.gen_range(0..patterns.len())]).unwrap();
        let engine = Engine::new();
        let mut session = engine.load_graph(graph.clone());
        let prepared: Vec<PreparedQuery> =
            [Semantics::Plain, Semantics::RegimeU, Semantics::RegimeAll]
                .into_iter()
                .map(|sem| engine.prepare((&pattern, sem)).unwrap())
                .collect();
        for step in 0..5 {
            let (s, p, o) = random_triple(&mut rng, &graph);
            if rng.gen_bool(0.5) {
                session.insert_triple(&s, &p, &o);
                graph.insert_strs(&s, &p, &o);
            } else {
                let removed = session.remove_triple(&s, &p, &o);
                prop_assert_eq!(removed, graph.remove_strs(&s, &p, &o));
            }
            // A brand-new engine + session over the mutated graph is the
            // from-scratch oracle.
            let oracle_engine = Engine::new();
            let oracle_session = oracle_engine.load_graph(graph.clone());
            for (q, sem) in prepared
                .iter()
                .zip([Semantics::Plain, Semantics::RegimeU, Semantics::RegimeAll])
            {
                let oracle_q = oracle_engine.prepare((&pattern, sem)).unwrap();
                prop_assert_eq!(
                    q.mappings(&session).unwrap(),
                    oracle_q.mappings(&oracle_session).unwrap(),
                    "semantics {:?} diverged (seed {}, step {})",
                    sem,
                    seed,
                    step
                );
            }
        }
    }
}

/// An OWL 2 QL TBox shaped like the serving benchmark's: two properties
/// with their inverses, `∃r` restrictions for all four, a cycle `A ⊑ ∃p`,
/// `∃p⁻ ⊑ B`, `B ⊑ ∃q`, `∃q⁻ ⊑ A` (so every `A` or `B` starts a null
/// chain that runs to the depth bound), and a disjointness that random
/// data can violate (⊤).
fn cyclic_tbox() -> Graph {
    let mut g = Graph::new();
    for class in ["A", "B", "C", "D"] {
        g.insert_strs(class, "rdf:type", "owl:Class");
    }
    for (p, inv) in [("p", "pinv"), ("q", "qinv")] {
        for r in [p, inv] {
            g.insert_strs(r, "rdf:type", "owl:ObjectProperty");
        }
        g.insert_strs(p, "owl:inverseOf", inv);
        g.insert_strs(inv, "owl:inverseOf", p);
        for r in [p, inv] {
            let some = format!("some_{r}");
            g.insert_strs(&some, "rdf:type", "owl:Restriction");
            g.insert_strs(&some, "owl:onProperty", r);
            g.insert_strs(&some, "owl:someValuesFrom", "owl:Thing");
        }
    }
    for (sub, sup) in [
        ("A", "some_p"),
        ("some_pinv", "B"),
        ("B", "some_q"),
        ("some_qinv", "A"),
        ("some_p", "C"),
    ] {
        g.insert_strs(sub, "rdfs:subClassOf", sup);
    }
    g.insert_strs("C", "owl:disjointWith", "D");
    g
}

/// One random fact about `individual`.
fn random_individual_fact(rng: &mut StdRng, individual: &str) -> (String, String, String) {
    let others = ["ind_0", "ind_1", "ind_2", "ind_3"];
    let (p, o) = if rng.gen_bool(0.5) {
        ("rdf:type", ["A", "B", "C", "D"][rng.gen_range(0..4)])
    } else {
        (
            ["p", "q", "pinv"][rng.gen_range(0..3)],
            others[rng.gen_range(0..4)],
        )
    };
    (individual.to_string(), p.to_string(), o.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    /// Individuals inserted and deleted under the cyclic TBox: every
    /// regime closure carries null chains, so every delete runs DRed
    /// through nulls. Plain / J·K^U / J·K^All answers (⊤ included) must
    /// equal a fresh session's after every step.
    #[test]
    fn individuals_under_a_cyclic_tbox_match_fresh_sessions(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graph = cyclic_tbox();
        // Blank nodes reach into the null chains under J·K^All.
        let patterns = [
            "{ ?X rdf:type B }",
            "{ ?X q ?Y }",
            "{ ?X p ?Y . ?Y rdf:type B }",
            "{ ?X rdf:type C }",
            "{ ?X p _:B }",
            "{ ?X p _:B . _:B q _:C . _:C rdf:type A }",
        ];
        let pattern = parse_pattern(patterns[rng.gen_range(0..patterns.len())]).unwrap();
        let semantics = [Semantics::Plain, Semantics::RegimeU, Semantics::RegimeAll];
        let engine = Engine::new();
        let prepared: Vec<PreparedQuery> = semantics
            .iter()
            .map(|&sem| engine.prepare((&pattern, sem)).unwrap())
            .collect();
        let mut session = engine.load_graph(graph.clone());
        for step in 0..6 {
            let individual = format!("ind_{}", rng.gen_range(0..4));
            let facts: Vec<Triple> = graph
                .iter()
                .filter(|t| t.s.as_str() == individual)
                .cloned()
                .collect();
            if !facts.is_empty() && rng.gen_bool(0.5) {
                for t in facts {
                    prop_assert!(session.remove_triple(t.s.as_str(), t.p.as_str(), t.o.as_str()));
                    graph.remove_strs(t.s.as_str(), t.p.as_str(), t.o.as_str());
                }
            } else {
                for _ in 0..rng.gen_range(1..3) {
                    let (s, p, o) = random_individual_fact(&mut rng, &individual);
                    session.insert_triple(&s, &p, &o);
                    graph.insert_strs(&s, &p, &o);
                }
            }
            let oracle_engine = Engine::new();
            let oracle_session = oracle_engine.load_graph(graph.clone());
            for (q, &sem) in prepared.iter().zip(&semantics) {
                let oracle_q = oracle_engine.prepare((&pattern, sem)).unwrap();
                prop_assert_eq!(
                    q.execute(&session).unwrap(),
                    oracle_q.execute(&oracle_session).unwrap(),
                    "semantics {:?} diverged (seed {}, step {})",
                    sem,
                    seed,
                    step
                );
            }
        }
        prop_assert_eq!(engine.stats().view_rebuilds, 0);
    }
}

/// Pinned regressions: seeds that once exposed divergences (a tuple that
/// is both an EDB fact and derived must survive the deletion of its
/// recorded derivation's support — base membership needs no rule). The
/// program and delta sequence below are the minimized proptest
/// counterexample (originally seed 16452956221527249868): the step-2
/// EDB inserts of `q(c, a)` / `p(c)` deduplicate onto already-derived
/// atoms, and the step-4 deletions destroy those recorded derivations.
#[test]
fn regression_edb_and_derived_tuples_survive_support_deletion() {
    let program = triq::datalog::parse_program(
        "r(?W, ?X, ?Z), !r(?Z, ?W, ?X) -> s(?W).\n\
         p(?Z), p(?X), q(?Z, ?Y), ?Y != ?Y -> q(?Z, ?X).\n\
         r(?Y, ?W, ?W), q(?Y, ?Z), q(a, ?X) -> p(?W).\n\
         s(?X), p(?Z), r(?W, ?Y, ?W), ?W = ?Z -> q(?X, ?Y).\n\
         r(?X, ?X, ?X) -> false.",
    )
    .unwrap();
    let config = ChaseConfig {
        strategy: ExistentialStrategy::Restricted,
        max_atoms: 100_000,
        ..ChaseConfig::default()
    };
    let runner = ChaseRunner::new(program, config).unwrap();
    let mut db = Database::new();
    for (pred, args) in [
        ("q", vec!["b", "a"]),
        ("s", vec!["c"]),
        ("r", vec!["c", "a", "c"]),
        ("r", vec!["a", "a", "c"]),
        ("r", vec!["a", "c", "c"]),
    ] {
        db.add_fact(pred, &args);
    }
    let mut view = MaterializedView::new(runner, db).unwrap();
    let steps: Vec<Delta> = vec![
        Delta::new().delete("s", &["a"]),
        Delta::new()
            .insert("p", &["b"])
            .insert("q", &["a", "a"])
            .insert("p", &["a"]),
        Delta::new()
            .insert("q", &["c", "a"])
            .insert("p", &["c"])
            .delete("q", &["b", "a"]),
        Delta::new()
            .insert("s", &["c"])
            .insert("q", &["a", "a"])
            .delete("r", &["a", "c", "a"]),
        Delta::new()
            .insert("s", &["b"])
            .delete("r", &["a", "c", "c"])
            .delete("p", &["a"]),
        Delta::new()
            .insert("s", &["c"])
            .delete("r", &["a", "a", "c"]),
    ];
    for (step, delta) in steps.iter().enumerate() {
        view.apply(delta).unwrap();
        assert_view_matches_scratch(&view, config, &format!("pinned regression, step {step}"));
    }
}

/// Minimal form of the same class of bug, directly on the view.
#[test]
fn regression_edb_and_derived_minimal() {
    let config = ChaseConfig::default();
    let runner = ChaseRunner::new(
        triq::datalog::parse_program("a(?X) -> r(?X).").unwrap(),
        config,
    )
    .unwrap();
    let mut db = Database::new();
    db.add_fact("a", &["c"]);
    let mut view = MaterializedView::new(runner, db).unwrap();
    // r(c) is derived; now also assert it extensionally (dedup).
    view.apply(&Delta::new().insert("r", &["c"])).unwrap();
    // Destroying the recorded derivation must NOT delete the base fact.
    view.apply(&Delta::new().delete("a", &["c"])).unwrap();
    assert_view_matches_scratch(&view, config, "EDB+derived survives support loss");
    // Removing the base fact finally kills it.
    view.apply(&Delta::new().delete("r", &["c"])).unwrap();
    assert_view_matches_scratch(&view, config, "EDB+derived fully removed");
}
