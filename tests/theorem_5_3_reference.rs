//! Theorem 5.3, randomized: `JPK^U_G` computed by the *translation*
//! (`P^U_dat` = supra-indexed operator encodings + active-domain guards +
//! ⋆-decoding) must equal the *reference semantics*: plain SPARQL
//! evaluation over the saturation of `G` (the set of entailed constant
//! triples). The two paths share only the fixed program `τ_owl2ql_core`;
//! everything else — BGP compilation, OPT/UNION/FILTER/SELECT encodings,
//! the compatible-predicate machinery, answer decoding — is independently
//! exercised.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triq::owl2ql::{random_ontology, saturate, RandomOntologySpec};
use triq::prelude::*;
use triq::sparql::{GraphPattern, PatternTerm, TriplePattern};

const VARS: &[&str] = &["A", "B", "C"];

fn random_term(rng: &mut StdRng, consts: &[Symbol]) -> PatternTerm {
    match rng.gen_range(0..10) {
        0..=4 => PatternTerm::Var(VarId::new(VARS[rng.gen_range(0..VARS.len())])),
        5..=8 => PatternTerm::Const(consts[rng.gen_range(0..consts.len())]),
        _ => PatternTerm::Blank(intern("B1")),
    }
}

fn random_pattern(rng: &mut StdRng, consts: &[Symbol], depth: usize) -> GraphPattern {
    if depth == 0 || rng.gen_bool(0.45) {
        let n = rng.gen_range(1..=2);
        return GraphPattern::Basic(
            (0..n)
                .map(|_| {
                    // Bias predicates towards constants: variable-predicate
                    // triples are legal but their joins are cartesian, which
                    // only costs time without adding coverage.
                    let p = if rng.gen_bool(0.85) {
                        PatternTerm::Const(consts[rng.gen_range(0..consts.len())])
                    } else {
                        random_term(rng, consts)
                    };
                    TriplePattern::new(random_term(rng, consts), p, random_term(rng, consts))
                })
                .collect(),
        );
    }
    let a = Box::new(random_pattern(rng, consts, depth - 1));
    let b = Box::new(random_pattern(rng, consts, depth - 1));
    match rng.gen_range(0..3) {
        0 => GraphPattern::And(a, b),
        1 => GraphPattern::Union(a, b),
        _ => GraphPattern::Opt(a, b),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn regime_translation_matches_saturation_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ontology = random_ontology(RandomOntologySpec {
            classes: 4,
            properties: 2,
            tbox_axioms: 6,
            abox_assertions: 6,
            allow_disjointness: false, // keep it consistent
            seed: rng.gen(),
        });
        let graph = ontology_to_graph(&ontology);
        // Pattern terms drawn from the graph's own vocabulary so matches
        // actually happen.
        let consts: Vec<Symbol> = {
            let mut v: Vec<Symbol> = graph.active_domain().into_iter().collect();
            v.sort();
            v.truncate(12);
            v
        };
        let pattern = random_pattern(&mut rng, &consts, 2);
        prop_assume!(pattern.validate().is_ok());

        let engine = Engine::new();
        let translated = engine
            .prepare((&pattern, Semantics::RegimeU))
            .and_then(|q| q.mappings(&engine.load_graph(graph.clone())))
            .expect("translation path");
        let saturated = saturate(&graph).expect("saturation path");
        let reference = evaluate_sparql(&saturated, &pattern);
        match translated {
            RegimeAnswers::Top => prop_assert!(false, "positive ontology cannot be ⊤"),
            RegimeAnswers::Mappings(ms) => {
                prop_assert_eq!(
                    &ms, &reference,
                    "pattern {} over ontology with {} axioms", pattern, ontology.len()
                );
            }
        }
    }
}
