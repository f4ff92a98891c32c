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

use common::{
    apply_to_model, fact_strings, ground_strings, random_db, random_fact, random_graph,
    random_program, schema_of, CONSTS, PREDS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triq::common::Term;
use triq::datalog::schedule::{force, Schedule};
use triq::datalog::{
    chase, Atom, Builtin, ChaseConfig, ChaseRunner, Constraint, DeltaSummary, GroundAtom,
    MaterializedView, Program, RebuildReason, Rule,
};
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
/// are actually present in `model`.
fn random_delta(rng: &mut StdRng, schema: &[(String, usize)], model: &Database) -> Delta {
    let mut delta = Delta::new();
    for _ in 0..rng.gen_range(1..4) {
        let delete = rng.gen_bool(0.45);
        if delete {
            let present: Vec<GroundAtom> = model.iter().collect();
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

/// Applies `delta` to the view and to its model database, the facts
/// kept beside the view as the oracle.
fn apply_both(
    view: &mut MaterializedView,
    model: &mut Database,
    delta: &Delta,
) -> triq::common::Result<DeltaSummary> {
    apply_to_model(model, delta);
    view.apply(delta)
}

/// The maintained view vs a from-scratch chase of the model database:
/// the view's facts are the model's, and its instance is the model's
/// chase.
fn assert_view_matches_scratch(
    view: &MaterializedView,
    model: &Database,
    config: ChaseConfig,
    ctx: &str,
) {
    assert_eq!(
        fact_strings(&view.database()),
        fact_strings(model),
        "facts diverged ({ctx})"
    );
    let scratch =
        chase(model, view.runner().program(), config).expect("scratch chase within budget");
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
    let mut model = db.clone();
    let Ok(mut view) = MaterializedView::new(runner, db) else {
        return; // atom budget blown at scale zero — nothing to maintain
    };
    for step in 0..6 {
        let delta = random_delta(&mut rng, &schema, &model);
        let Ok(summary) = apply_both(&mut view, &mut model, &delta) else {
            return; // budget blowup mid-sequence: scratch would blow too
        };
        let ctx = format!("seed {seed}, step {step}, delta {delta:?}");
        assert_view_matches_scratch(&view, &model, config, &ctx);
        if strategy == ExistentialStrategy::Skolem {
            // A rebuild may only recover from an exhausted budget: no
            // deletion cone, nulls or not, forces one.
            assert!(
                matches!(summary.rebuild, None | Some(RebuildReason::Budget)),
                "{:?} ({ctx})",
                summary.rebuild
            );
            let fresh = MaterializedView::new(view.runner().clone(), model.clone())
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
    let mut model = db.clone();
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
        apply_both(&mut view, &mut model, delta).unwrap();
        let ctx = format!("pinned regression, step {step}");
        assert_view_matches_scratch(&view, &model, config, &ctx);
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
    let mut model = db.clone();
    let mut view = MaterializedView::new(runner, db).unwrap();
    // r(c) is derived; now also assert it extensionally (dedup).
    let insert = Delta::new().insert("r", &["c"]);
    apply_both(&mut view, &mut model, &insert).unwrap();
    // Destroying the recorded derivation must NOT delete the base fact.
    let delete = Delta::new().delete("a", &["c"]);
    apply_both(&mut view, &mut model, &delete).unwrap();
    let ctx = "EDB+derived survives support loss";
    assert_view_matches_scratch(&view, &model, config, ctx);
    // Removing the base fact finally kills it.
    let delete = Delta::new().delete("r", &["c"]);
    apply_both(&mut view, &mut model, &delete).unwrap();
    assert_view_matches_scratch(&view, &model, config, "EDB+derived fully removed");
}

// ---------------------------------------------------------------------------
// Constraints under maintenance: an apply checks ⊥ semi-naively.
// ---------------------------------------------------------------------------

/// A join constraint: two or three atoms over `schema` sharing the
/// variables `X` and `Y` (and the odd constant), sometimes with
/// `X != Y`. Such a constraint can fire through any of its atoms, so an
/// incremental check must pivot on each.
fn random_join_constraint(rng: &mut StdRng, schema: &[(String, usize)]) -> Constraint {
    let var = |v: &str| Term::Var(VarId::new(v));
    let body: Vec<Atom> = (0..rng.gen_range(2..4))
        .map(|_| {
            let (pred, arity) = &schema[rng.gen_range(0..schema.len())];
            let terms = (0..*arity)
                .map(|_| match rng.gen_range(0..8) {
                    0 => Term::constant(CONSTS[rng.gen_range(0..CONSTS.len())]),
                    1..=4 => var("X"),
                    _ => var("Y"),
                })
                .collect();
            Atom::new(intern(pred), terms)
        })
        .collect();
    let mentions = |v: &str| body.iter().any(|a| a.terms.contains(&var(v)));
    let builtins = if mentions("X") && mentions("Y") && rng.gen_bool(0.3) {
        vec![Builtin::Neq(var("X"), var("Y"))]
    } else {
        vec![]
    };
    Constraint { body, builtins }
}

/// Random programs with join constraints, maintained as one view: the
/// ⊤ classification (and everything else) must match a from-scratch
/// chase after every step — inserts that make the data ⊤, deletes that
/// make it consistent again.
fn drive_constraints(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut program = random_program(&mut rng, true, true);
    let schema = schema_of(&program);
    if schema.is_empty() {
        return;
    }
    for _ in 0..rng.gen_range(1..3) {
        program
            .constraints
            .push(random_join_constraint(&mut rng, &schema));
    }
    if program.validate().is_err() || triq::datalog::stratify(&program).is_err() {
        return;
    }
    let config = ChaseConfig {
        max_atoms: 100_000,
        ..ChaseConfig::default()
    };
    let db = random_db(&mut rng, &program);
    let runner = ChaseRunner::new(program, config).unwrap();
    let mut model = db.clone();
    let Ok(mut view) = MaterializedView::new(runner, db) else {
        return;
    };
    for step in 0..8 {
        let delta = random_delta(&mut rng, &schema, &model);
        if apply_both(&mut view, &mut model, &delta).is_err() {
            return;
        }
        let ctx = format!("seed {seed}, step {step}, delta {delta:?}");
        assert_view_matches_scratch(&view, &model, config, &ctx);
    }
}

/// A layer stacked on a random program, deriving `t` from the base's
/// predicates, with a join constraint of its own over `t` and the base
/// (and the base with one half the time): the layer's ⊤ must match the
/// union chased from scratch whichever layer fires, after every step.
fn drive_stacked_constraints(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut base_program = random_program(&mut rng, true, true);
    let schema = schema_of(&base_program);
    if schema.is_empty() {
        return;
    }
    if rng.gen_bool(0.5) {
        base_program
            .constraints
            .push(random_join_constraint(&mut rng, &schema));
    }
    let t = |x: &str, y: &str| {
        Atom::new(
            intern("t"),
            vec![Term::Var(VarId::new(x)), Term::Var(VarId::new(y))],
        )
    };
    let mut derive_t = random_join_constraint(&mut rng, &schema);
    let mut own = random_join_constraint(&mut rng, &schema);
    own.body[0] = t("X", "Y");
    let layer = Program {
        rules: vec![Rule {
            body_pos: std::mem::take(&mut derive_t.body),
            body_neg: vec![],
            builtins: derive_t.builtins,
            exist_vars: vec![],
            head: vec![t("X", "Y")],
        }],
        constraints: vec![own],
    };
    let union = base_program.union(&layer);
    if union.validate().is_err() || triq::datalog::stratify(&union).is_err() {
        return;
    }
    let config = ChaseConfig {
        max_atoms: 100_000,
        ..ChaseConfig::default()
    };
    let db = random_db(&mut rng, &base_program);
    let (Ok(base_runner), Ok(layer_runner)) = (
        ChaseRunner::new(base_program, config),
        ChaseRunner::new(layer, config),
    ) else {
        return;
    };
    let mut model = db.clone();
    let Ok(mut base) = MaterializedView::new(base_runner, db) else {
        return;
    };
    let Ok(mut top) = MaterializedView::stacked(layer_runner, Database::new(), &base) else {
        return;
    };
    for step in 0..8 {
        let delta = random_delta(&mut rng, &schema, &model);
        if apply_both(&mut base, &mut model, &delta).is_err()
            || top.apply_over(&delta, &base).is_err()
        {
            return;
        }
        let ctx = format!("seed {seed}, step {step}, delta {delta:?}");
        assert_eq!(
            fact_strings(&base.database()),
            fact_strings(&model),
            "base facts diverged ({ctx})"
        );
        let own = model.select(top.runner().program().head_predicates());
        assert_eq!(
            fact_strings(&top.database()),
            fact_strings(&own),
            "layer facts diverged ({ctx})"
        );
        let scratch = chase(&model, &union, config).expect("scratch chase within budget");
        assert_eq!(
            scratch.inconsistent,
            top.outcome().inconsistent,
            "⊤-classification diverged ({ctx})"
        );
        assert_eq!(
            Answers::from_chase(&scratch, intern("t")),
            Answers::from_chase(top.outcome(), intern("t")),
            "answers diverged on t ({ctx})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(300)))]

    /// Join constraints on one maintained view track the scratch chase.
    #[test]
    fn constraints_track_scratch_under_maintenance(seed in any::<u64>()) {
        drive_constraints(seed);
    }

    /// A stacked layer's own constraints and its base's ⊤ track the
    /// union chased from scratch.
    #[test]
    fn stacked_constraints_track_scratch_under_maintenance(seed in any::<u64>()) {
        drive_stacked_constraints(seed);
    }
}

/// The pivots of a semi-naive check: a violation completed by an atom
/// that arrives *after* its partners, through each body position, and
/// one that a delete clears and a re-insert restores.
#[test]
fn a_violation_is_found_through_whichever_atom_completes_it() {
    let config = ChaseConfig::default();
    let program = triq::datalog::parse_program(
        "e(?X, ?Y) -> r(?X, ?Y).\n\
         r(?X, ?Y), r(?Y, ?Z), bad(?Z), ?X != ?Z -> false.",
    )
    .unwrap();
    let runner = ChaseRunner::new(program, config).unwrap();
    let mut model = Database::new();
    let mut view = MaterializedView::new(runner, Database::new()).unwrap();
    let steps = [
        (Delta::new().insert("e", &["a", "b"]), false),
        (Delta::new().insert("bad", &["c"]), false),
        (Delta::new().insert("e", &["b", "c"]), true),
        (Delta::new().delete("e", &["a", "b"]), false),
        (Delta::new().insert("e", &["c", "b"]), false),
        (Delta::new().insert("e", &["a", "b"]), true),
        (Delta::new().delete("bad", &["c"]), false),
        (Delta::new().insert("bad", &["c"]), true),
    ];
    for (step, (delta, top)) in steps.iter().enumerate() {
        apply_both(&mut view, &mut model, delta).unwrap();
        let ctx = format!("step {step}: {delta:?}");
        assert_eq!(view.outcome().inconsistent, *top, "{ctx}");
        assert_view_matches_scratch(&view, &model, config, &ctx);
    }
}
