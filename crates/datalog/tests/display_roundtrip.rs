//! Property test: `Display` for programs is parseable and round-trips
//! (print → parse → print is a fixpoint), over randomly built programs
//! with existentials, negation, builtins and constraints.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triq_common::{intern, Term, VarId};
use triq_datalog::{parse_program, Atom, Builtin, Constraint, Program, Rule};

fn build_program(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let preds = ["p", "q", "r"];
    let arities: Vec<usize> = preds.iter().map(|_| rng.gen_range(1..4)).collect();
    let vars = ["X", "Y", "Z"];
    let consts = ["a", "b", "rdf:type"];
    let term = |rng: &mut StdRng, allow_const: bool| -> Term {
        if allow_const && rng.gen_bool(0.3) {
            Term::Const(intern(consts[rng.gen_range(0..consts.len())]))
        } else {
            Term::Var(VarId::new(vars[rng.gen_range(0..vars.len())]))
        }
    };
    let atom = |rng: &mut StdRng| -> Atom {
        let i = rng.gen_range(0..preds.len());
        let terms = (0..arities[i]).map(|_| term(rng, true)).collect();
        Atom::new(intern(preds[i]), terms)
    };
    let mut rules = Vec::new();
    let mut constraints = Vec::new();
    for _ in 0..rng.gen_range(1..5) {
        let body: Vec<Atom> = (0..rng.gen_range(1..3)).map(|_| atom(&mut rng)).collect();
        let body_vars: Vec<VarId> = body.iter().flat_map(|a| a.vars()).collect();
        if body_vars.is_empty() {
            continue;
        }
        if rng.gen_bool(0.2) {
            constraints.push(Constraint {
                body,
                builtins: vec![],
            });
            continue;
        }
        let mut body_neg = Vec::new();
        if rng.gen_bool(0.3) {
            // A negated atom over bound variables only (safety).
            let i = rng.gen_range(0..preds.len());
            let terms = (0..arities[i])
                .map(|_| Term::Var(body_vars[rng.gen_range(0..body_vars.len())]))
                .collect();
            body_neg.push(Atom::new(intern(&format!("n{}", preds[i])), terms));
        }
        let builtins = if rng.gen_bool(0.3) {
            vec![Builtin::Neq(
                Term::Var(body_vars[rng.gen_range(0..body_vars.len())]),
                Term::Const(intern("a")),
            )]
        } else {
            vec![]
        };
        let existential = rng.gen_bool(0.4);
        let evar = VarId::new("E");
        let hi = rng.gen_range(0..preds.len());
        let head_terms: Vec<Term> = (0..arities[hi])
            .map(|i| {
                if existential && i == 0 {
                    Term::Var(evar)
                } else {
                    Term::Var(body_vars[rng.gen_range(0..body_vars.len())])
                }
            })
            .collect();
        rules.push(Rule {
            body_pos: body,
            body_neg,
            builtins,
            exist_vars: if existential { vec![evar] } else { vec![] },
            head: vec![Atom::new(intern(preds[hi]), head_terms)],
        });
    }
    Program { rules, constraints }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn display_parse_roundtrip(seed in any::<u64>()) {
        let program = build_program(seed);
        prop_assume!(program.validate().is_ok());
        prop_assume!(!program.rules.is_empty() || !program.constraints.is_empty());
        let printed = program.to_string();
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{printed}"));
        prop_assert_eq!(&program, &reparsed, "printed:\n{}", printed);
        // And printing again is a fixpoint.
        prop_assert_eq!(printed, reparsed.to_string());
    }
}

/// The §5 translation names a blank node's variable `?blank~B~1`;
/// persisted views store their program as text, so such names must
/// survive print → parse.
#[test]
fn generated_tilde_variable_names_roundtrip() {
    let text = "triple(?X, advisor, ?blank~B~1), triple(?X, memberOf, d), ?blank~B~1 != ?X \
                -> exists ?wild~2 out(?X, ?wild~2).";
    let program = parse_program(text).unwrap();
    let blank = VarId::new("blank~B~1");
    assert_eq!(program.rules[0].body_pos[0].terms[2], Term::Var(blank));
    assert_eq!(program.rules[0].exist_vars, vec![VarId::new("wild~2")]);
    let printed = program.to_string();
    assert!(printed.contains("?blank~B~1"), "{printed}");
    assert_eq!(parse_program(&printed).unwrap(), program);
}
