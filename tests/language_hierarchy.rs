//! The language-class inclusions the paper's §4/§6 rely on, verified on
//! randomly generated Datalog∃ programs:
//!
//! * guarded ⊆ weakly-guarded ⊆ weakly-frontier-guarded,
//! * frontier-guarded ⊆ nearly-frontier-guarded and
//!   frontier-guarded ⊆ weakly-frontier-guarded,
//! * warded ⊆ weakly-frontier-guarded, warded ⊆ minimal-interaction,
//! * plain Datalog ⊆ everything (affected(Π) = ∅, §6.3).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triq::common::Term;
use triq::datalog::{Atom, Program, Rule};
use triq::prelude::*;

fn random_program(rng: &mut StdRng) -> Program {
    let preds = ["p", "q", "r", "s"];
    // Fix one arity per predicate so the program passes arity validation.
    let arities: Vec<usize> = preds.iter().map(|_| rng.gen_range(1..4)).collect();
    let vars = ["X", "Y", "Z", "W"];
    let n_rules = rng.gen_range(1..5);
    let mut rules = Vec::new();
    for _ in 0..n_rules {
        let n_body = rng.gen_range(1..4);
        let mut body = Vec::new();
        let mut body_vars: Vec<VarId> = Vec::new();
        for _ in 0..n_body {
            let pi = rng.gen_range(0..preds.len());
            let terms: Vec<Term> = (0..arities[pi])
                .map(|_| {
                    let v = VarId::new(vars[rng.gen_range(0..vars.len())]);
                    body_vars.push(v);
                    Term::Var(v)
                })
                .collect();
            body.push(Atom::new(intern(preds[pi]), terms));
        }
        let existential = rng.gen_bool(0.5);
        let exist_var = VarId::new("E");
        let hi = rng.gen_range(0..preds.len());
        let head_terms: Vec<Term> = (0..arities[hi])
            .map(|i| {
                if existential && i == 0 {
                    Term::Var(exist_var)
                } else {
                    Term::Var(body_vars[rng.gen_range(0..body_vars.len())])
                }
            })
            .collect();
        rules.push(Rule {
            body_pos: body,
            body_neg: vec![],
            builtins: vec![],
            exist_vars: if existential { vec![exist_var] } else { vec![] },
            head: vec![Atom::new(intern(preds[hi]), head_terms)],
        });
    }
    Program {
        rules,
        constraints: vec![],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn classifier_inclusions(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_program(&mut rng);
        prop_assume!(program.validate().is_ok());
        let c = classify_program(&program);
        // Hierarchy.
        prop_assert!(!c.guarded || c.weakly_guarded, "{program}");
        prop_assert!(!c.weakly_guarded || c.weakly_frontier_guarded, "{program}");
        prop_assert!(!c.frontier_guarded || c.nearly_frontier_guarded, "{program}");
        prop_assert!(!c.frontier_guarded || c.weakly_frontier_guarded, "{program}");
        prop_assert!(!c.warded || c.weakly_frontier_guarded, "{program}");
        prop_assert!(!c.warded || c.warded_minimal_interaction, "{program}");
        // Note: guardedness does NOT imply wardedness — the guard contains
        // every body variable, so it shares harmful variables with the
        // other body atoms, violating the ward's isolation condition (2).
        // The two classes are incomparable; no assertion here.
        // Plain Datalog is everything.
        if c.plain_datalog {
            prop_assert!(c.affected.is_empty(), "{program}");
            prop_assert!(c.warded && c.weakly_guarded && c.nearly_frontier_guarded, "{program}");
        }
    }

    /// Skolem and restricted chase agree on ground atoms (they are both
    /// universal-model constructions; ground consequences coincide).
    #[test]
    fn chase_strategies_agree_on_ground_atoms(seed in any::<u64>()) {
        use triq::datalog::{chase, ChaseConfig, Database, ExistentialStrategy};
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_program(&mut rng);
        prop_assume!(program.validate().is_ok());
        let mut db = Database::new();
        let consts = ["a", "b", "c"];
        for pred in ["p", "q", "r", "s"] {
            for _ in 0..rng.gen_range(0..3) {
                // Match each predicate's arity as used in the program.
                if let Some(arity) = program.schema().get(&intern(pred)).copied() {
                    let args: Vec<&str> = (0..arity)
                        .map(|_| consts[rng.gen_range(0..consts.len())])
                        .collect();
                    db.add_fact(pred, &args);
                }
            }
        }
        let skolem = chase(&db, &program, ChaseConfig {
            strategy: ExistentialStrategy::Skolem,
            max_null_depth: 4,
            max_atoms: 200_000,
        });
        let restricted = chase(&db, &program, ChaseConfig {
            strategy: ExistentialStrategy::Restricted,
            max_null_depth: 4,
            max_atoms: 200_000,
        });
        let (Ok(skolem), Ok(restricted)) = (skolem, restricted) else {
            // Budget blowups are acceptable for random programs.
            return Ok(());
        };
        prop_assume!(!skolem.stats.truncated && !restricted.stats.truncated);
        let mut a: Vec<String> =
            skolem.instance.ground_part().iter().map(|g| g.to_string()).collect();
        let mut b: Vec<String> =
            restricted.instance.ground_part().iter().map(|g| g.to_string()).collect();
        a.sort();
        a.dedup();
        b.sort();
        b.dedup();
        prop_assert_eq!(a, b, "strategies disagree on {}", program);
    }
}
