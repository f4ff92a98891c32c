//! Property-based test of Theorem 5.2: for every graph pattern `P` and
//! RDF graph `G`, `JPK_G = J(P_dat, τ_db(G))K` — the direct SPARQL
//! evaluator and the Datalog translation (prepared through the
//! `Engine` facade) agree on randomly generated patterns and graphs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triq::prelude::*;
use triq::sparql::{Condition, GraphPattern, PatternTerm, TriplePattern};

const CONSTS: &[&str] = &["a", "b", "c", "d"];
const PREDS: &[&str] = &["p", "q", "r"];
const VARS: &[&str] = &["A", "B", "C", "D"];

fn random_term(rng: &mut StdRng) -> PatternTerm {
    match rng.gen_range(0..10) {
        0..=4 => PatternTerm::Var(VarId::new(VARS[rng.gen_range(0..VARS.len())])),
        5..=8 => PatternTerm::Const(intern(CONSTS[rng.gen_range(0..CONSTS.len())])),
        _ => PatternTerm::Blank(intern(["B1", "B2"][rng.gen_range(0..2)])),
    }
}

fn random_triple(rng: &mut StdRng) -> TriplePattern {
    let p = if rng.gen_bool(0.8) {
        PatternTerm::Const(intern(PREDS[rng.gen_range(0..PREDS.len())]))
    } else {
        random_term(rng)
    };
    TriplePattern::new(random_term(rng), p, random_term(rng))
}

fn random_condition(rng: &mut StdRng, vars: &[VarId], depth: usize) -> Condition {
    if depth == 0 || rng.gen_bool(0.6) {
        let v = vars[rng.gen_range(0..vars.len())];
        match rng.gen_range(0..3) {
            0 => Condition::Bound(v),
            1 => Condition::EqConst(v, intern(CONSTS[rng.gen_range(0..CONSTS.len())])),
            _ => Condition::EqVar(v, vars[rng.gen_range(0..vars.len())]),
        }
    } else {
        let a = Box::new(random_condition(rng, vars, depth - 1));
        let b = Box::new(random_condition(rng, vars, depth - 1));
        match rng.gen_range(0..3) {
            0 => Condition::Not(a),
            1 => Condition::And(a, b),
            _ => Condition::Or(a, b),
        }
    }
}

fn random_pattern(rng: &mut StdRng, depth: usize) -> GraphPattern {
    if depth == 0 || rng.gen_bool(0.35) {
        let n = rng.gen_range(1..=3);
        return GraphPattern::Basic((0..n).map(|_| random_triple(rng)).collect());
    }
    match rng.gen_range(0..5) {
        0 => GraphPattern::And(
            Box::new(random_pattern(rng, depth - 1)),
            Box::new(random_pattern(rng, depth - 1)),
        ),
        1 => GraphPattern::Union(
            Box::new(random_pattern(rng, depth - 1)),
            Box::new(random_pattern(rng, depth - 1)),
        ),
        2 => GraphPattern::Opt(
            Box::new(random_pattern(rng, depth - 1)),
            Box::new(random_pattern(rng, depth - 1)),
        ),
        3 => {
            let inner = random_pattern(rng, depth - 1);
            let vars: Vec<VarId> = inner.vars().into_iter().collect();
            if vars.is_empty() {
                inner
            } else {
                let cond = random_condition(rng, &vars, 2);
                GraphPattern::Filter(Box::new(inner), cond)
            }
        }
        _ => {
            let inner = random_pattern(rng, depth - 1);
            let vars: Vec<VarId> = inner.vars().into_iter().collect();
            if vars.is_empty() {
                inner
            } else {
                let keep: std::collections::BTreeSet<VarId> =
                    vars.iter().filter(|_| rng.gen_bool(0.6)).copied().collect();
                let keep = if keep.is_empty() {
                    vars.into_iter().take(1).collect()
                } else {
                    keep
                };
                GraphPattern::Select(keep, Box::new(inner))
            }
        }
    }
}

fn random_graph(rng: &mut StdRng) -> Graph {
    let mut g = Graph::new();
    let n = rng.gen_range(0..14);
    for _ in 0..n {
        g.insert(Triple::new(
            intern(CONSTS[rng.gen_range(0..CONSTS.len())]),
            intern(PREDS[rng.gen_range(0..PREDS.len())]),
            intern(CONSTS[rng.gen_range(0..CONSTS.len())]),
        ));
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Theorem 5.2, randomized: direct evaluation == translation.
    #[test]
    fn translation_matches_direct_evaluation(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pattern = random_pattern(&mut rng, 3);
        prop_assume!(pattern.validate().is_ok());
        let graph = random_graph(&mut rng);
        let direct = evaluate_sparql(&graph, &pattern);
        let engine = Engine::new();
        let via_datalog = engine
            .prepare((&pattern, Semantics::Plain))
            .and_then(|q| q.mappings(&engine.load_graph(graph.clone())))
            .expect("translation must succeed");
        prop_assert_eq!(
            Some(&direct), via_datalog.mappings(),
            "pattern {} on graph {:?}", pattern, graph
        );
    }

    /// Corollary 6.2, randomized: the regime translations of random
    /// patterns are TriQ-Lite 1.0 programs.
    #[test]
    fn regime_translations_are_triq_lite(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pattern = random_pattern(&mut rng, 2);
        prop_assume!(pattern.validate().is_ok());
        for translate in [translate_pattern_u, translate_pattern_all] {
            let t = translate(&pattern).expect("translation must succeed");
            let c = classify_program(&t.program);
            prop_assert!(c.is_triq_lite_1_0(), "{}: {:?}", pattern, c.violations);
        }
    }
}
