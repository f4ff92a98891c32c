//! Differential testing of the columnar chase engine against the naive
//! reference evaluator (`triq::datalog::reference`).
//!
//! Random programs + random databases, three angles:
//!
//! * the skolem chase must produce the same ground atoms, the same
//!   `Answers` for every predicate, the same number of nulls and the
//!   same ⊤/consistent classification as the naive nested-loop
//!   evaluator;
//! * for existential-free programs the restricted strategy must agree
//!   too (without `∃` the strategies coincide definitionally);
//! * random RDF graphs queried under **all three semantics** (plain,
//!   J·K^U, J·K^All) through the prepared-query facade must decode to the
//!   same mappings the naive evaluator derives from the §5 translations.

mod common;

use common::{ground_strings, random_db, random_graph, random_program, PREDS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triq::datalog::reference::naive_chase;
use triq::datalog::{chase, ChaseConfig};
use triq::prelude::*;
use triq::translate::{
    decode_tuple_vars, regime_chase_config, translate_pattern, translate_pattern_all,
    translate_pattern_u,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// Columnar skolem chase ≡ naive reference.
    #[test]
    fn columnar_chase_matches_naive_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_program(&mut rng, true, false);
        prop_assume!(program.validate().is_ok());
        prop_assume!(triq::datalog::stratify(&program).is_ok());
        let db = random_db(&mut rng, &program);
        let config = ChaseConfig { max_atoms: 100_000, ..ChaseConfig::default() };
        let naive = naive_chase(&db, &program, config);
        let fast = chase(&db, &program, config);
        let (Ok(naive), Ok(fast)) = (naive, fast) else {
            return Ok(()); // budget blowups must agree too, but are rare noise here
        };
        // Same classification (⊤ or not), same ground atoms, same answers
        // for every predicate of the program.
        prop_assert_eq!(naive.inconsistent, fast.inconsistent);
        prop_assert_eq!(naive.ground_part(), ground_strings(&fast));
        for pred in PREDS {
            prop_assert_eq!(
                naive.answers(intern(pred)),
                Answers::from_chase(&fast, intern(pred)),
                "answers diverge on {} (seed {})", pred, seed
            );
        }
        prop_assert_eq!(naive.nulls, fast.stats.nulls);
    }

    /// Without existentials the restricted strategy coincides with skolem
    /// — across both the fast engine and the naive reference.
    #[test]
    fn restricted_strategy_matches_on_existential_free(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_program(&mut rng, false, false);
        prop_assume!(program.validate().is_ok());
        prop_assume!(triq::datalog::stratify(&program).is_ok());
        let db = random_db(&mut rng, &program);
        let restricted = ChaseConfig {
            strategy: ExistentialStrategy::Restricted,
            max_atoms: 100_000,
            ..ChaseConfig::default()
        };
        let naive = naive_chase(&db, &program, restricted);
        let fast = chase(&db, &program, restricted);
        let (Ok(naive), Ok(fast)) = (naive, fast) else { return Ok(()); };
        prop_assert_eq!(naive.inconsistent, fast.inconsistent);
        prop_assert_eq!(naive.ground_part(), ground_strings(&fast));
    }
}

// ---------------------------------------------------------------------------
// The three SPARQL semantics against the reference evaluator.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Plain / J·K^U / J·K^All through the facade ≡ naive evaluation of
    /// the §5 translations.
    #[test]
    fn three_semantics_match_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng);
        let patterns = [
            "{ ?X rdf:type C2 }",
            "{ ?X e2 ?Y }",
            "{ ?X e1 ?Y . ?Y rdf:type C1 }",
        ];
        let pattern = parse_pattern(patterns[rng.gen_range(0..patterns.len())]).unwrap();
        let engine = Engine::new();
        let session = engine.load_graph(graph.clone());
        let db = tau_db(&graph);
        for semantics in [Semantics::Plain, Semantics::RegimeU, Semantics::RegimeAll] {
            let translated = match semantics {
                Semantics::Plain => translate_pattern(&pattern).unwrap(),
                Semantics::RegimeU => translate_pattern_u(&pattern).unwrap(),
                Semantics::RegimeAll => translate_pattern_all(&pattern).unwrap(),
            };
            let config = match semantics {
                Semantics::Plain => ChaseConfig::default(),
                _ => regime_chase_config(),
            };
            // Reference: naive chase of the translated program over τ_db.
            let naive = naive_chase(&db, &translated.program, config).unwrap();
            let expected = match naive.answers(translated.answer_pred) {
                Answers::Top => RegimeAnswers::Top,
                Answers::Tuples(tuples) => RegimeAnswers::Mappings(
                    tuples
                        .iter()
                        .map(|t| decode_tuple_vars(t, &translated.vars))
                        .collect(),
                ),
            };
            // Fast path: the prepared-query facade.
            let got = engine
                .prepare((&pattern, semantics))
                .unwrap()
                .mappings(&session)
                .unwrap();
            prop_assert_eq!(
                &got, &expected,
                "semantics {:?} diverges (seed {})", semantics, seed
            );
        }
    }
}
