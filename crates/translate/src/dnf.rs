//! Compilation of SPARQL built-in conditions to Datalog builtins.
//!
//! The translation of `(P FILTER R)` fixes a *variant* of the sub-pattern,
//! i.e. a set `B` of bound variables (the supra-index machinery of §5.1).
//! Relative to `B`, every `bound(?X)` is statically true or false, and the
//! remaining (in)equalities become engine builtins; we compile `R` to a
//! disjunctive normal form, one Datalog rule per satisfiable disjunct.
//!
//! A DNF can be exponentially larger than its condition: `n` conjuncts
//! of two-way disjunctions expand to `2^n` disjuncts. The disjuncts are
//! counted before any is built — a product over `&&`, a sum over `||`,
//! with negation pushed to the leaves — and a condition past
//! `MAX_DISJUNCTS` is refused with `E-RESOURCE`.

use std::collections::BTreeSet;
use triq_common::{Result, Term, TriqError, VarId};
use triq_datalog::Builtin;
use triq_sparql::Condition;

/// An intermediate Boolean value: constant, or a literal.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Lit {
    True,
    False,
    B(Builtin),
}

/// Most disjuncts (so rules) one `FILTER` variant may expand to: twelve
/// conjoined two-way disjunctions, which translate in tens of
/// milliseconds.
const MAX_DISJUNCTS: u64 = 4096;

/// Compiles `condition` under bound-set `bound` into DNF: the result is a
/// list of conjunctions of builtins; the condition holds iff some
/// conjunction holds. An empty list means statically false; a list
/// containing an empty conjunction means (that disjunct is) statically
/// true. A DNF of more than `MAX_DISJUNCTS` disjuncts is refused with
/// `E-RESOURCE` before any of it is built.
pub fn compile_condition(
    condition: &Condition,
    bound: &BTreeSet<VarId>,
) -> Result<Vec<Vec<Builtin>>> {
    let disjuncts = count(condition, bound, false);
    if disjuncts > MAX_DISJUNCTS {
        return Err(TriqError::ResourceExhausted(format!(
            "a FILTER condition expands to {disjuncts} disjuncts, more than {MAX_DISJUNCTS}"
        )));
    }
    Ok(dnf(condition, bound, false))
}

/// The number of disjuncts [`dnf`] builds, saturating.
fn count(condition: &Condition, bound: &BTreeSet<VarId>, neg: bool) -> u64 {
    match condition {
        Condition::Not(inner) => count(inner, bound, !neg),
        Condition::And(a, b) if !neg => {
            count(a, bound, false).saturating_mul(count(b, bound, false))
        }
        Condition::And(a, b) => count(a, bound, true).saturating_add(count(b, bound, true)),
        Condition::Or(a, b) if !neg => {
            count(a, bound, false).saturating_add(count(b, bound, false))
        }
        Condition::Or(a, b) => count(a, bound, true).saturating_mul(count(b, bound, true)),
        atomic => match literal(atomic, bound, neg) {
            Lit::False => 0,
            Lit::True | Lit::B(_) => 1,
        },
    }
}

/// DNF of `condition` (negated if `neg`).
fn dnf(condition: &Condition, bound: &BTreeSet<VarId>, neg: bool) -> Vec<Vec<Builtin>> {
    match condition {
        Condition::Not(inner) => dnf(inner, bound, !neg),
        Condition::And(a, b) if !neg => conjoin(dnf(a, bound, false), dnf(b, bound, false)),
        Condition::And(a, b) => disjoin(dnf(a, bound, true), dnf(b, bound, true)),
        Condition::Or(a, b) if !neg => disjoin(dnf(a, bound, false), dnf(b, bound, false)),
        Condition::Or(a, b) => conjoin(dnf(a, bound, true), dnf(b, bound, true)),
        atomic => match literal(atomic, bound, neg) {
            Lit::True => vec![vec![]],
            Lit::False => vec![],
            Lit::B(b) => vec![vec![b]],
        },
    }
}

/// An atomic condition under `bound`, possibly negated. Per §3.1, an
/// atomic condition mentioning an unbound variable is false (so its
/// negation is true).
fn literal(condition: &Condition, bound: &BTreeSet<VarId>, neg: bool) -> Lit {
    let flip = |l: Lit| match (l, neg) {
        (l, false) => l,
        (Lit::True, true) => Lit::False,
        (Lit::False, true) => Lit::True,
        (Lit::B(Builtin::Eq(a, b)), true) => Lit::B(Builtin::Neq(a, b)),
        (Lit::B(Builtin::Neq(a, b)), true) => Lit::B(Builtin::Eq(a, b)),
    };
    let base = match condition {
        Condition::Bound(v) => {
            if bound.contains(v) {
                Lit::True
            } else {
                Lit::False
            }
        }
        Condition::EqConst(v, c) => {
            if bound.contains(v) {
                Lit::B(Builtin::Eq(Term::Var(*v), Term::Const(*c)))
            } else {
                Lit::False
            }
        }
        Condition::EqVar(v, w) => {
            if bound.contains(v) && bound.contains(w) {
                Lit::B(Builtin::Eq(Term::Var(*v), Term::Var(*w)))
            } else {
                Lit::False
            }
        }
        _ => unreachable!("non-atomic condition passed to literal()"),
    };
    flip(base)
}

fn conjoin(a: Vec<Vec<Builtin>>, b: Vec<Vec<Builtin>>) -> Vec<Vec<Builtin>> {
    let mut out = Vec::new();
    for x in &a {
        for y in &b {
            let mut c = x.clone();
            c.extend(y.iter().copied());
            out.push(c);
        }
    }
    out
}

fn disjoin(mut a: Vec<Vec<Builtin>>, b: Vec<Vec<Builtin>>) -> Vec<Vec<Builtin>> {
    a.extend(b);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use triq_common::intern;

    fn bset(names: &[&str]) -> BTreeSet<VarId> {
        names.iter().map(|n| VarId::new(n)).collect()
    }

    #[test]
    fn bound_is_static() {
        let c = Condition::Bound(VarId::new("X"));
        assert_eq!(compile_condition(&c, &bset(&["X"])).unwrap(), vec![vec![]]);
        assert!(compile_condition(&c, &bset(&[])).unwrap().is_empty());
        let n = Condition::Not(Box::new(c));
        assert_eq!(compile_condition(&n, &bset(&[])).unwrap(), vec![vec![]]);
    }

    #[test]
    fn equality_becomes_builtin() {
        let c = Condition::EqConst(VarId::new("X"), intern("a"));
        let d = compile_condition(&c, &bset(&["X"])).unwrap();
        assert_eq!(
            d,
            vec![vec![Builtin::Eq(
                Term::Var(VarId::new("X")),
                Term::Const(intern("a"))
            )]]
        );
        // Unbound: statically false; negated: true.
        assert!(compile_condition(&c, &bset(&[])).unwrap().is_empty());
        let neg = Condition::Not(Box::new(c));
        assert_eq!(compile_condition(&neg, &bset(&["X"])).unwrap().len(), 1);
        assert_eq!(compile_condition(&neg, &bset(&[])).unwrap()[0].len(), 0);
    }

    #[test]
    fn demorgan() {
        // !(X = a && Y = b) == X != a || Y != b.
        let c = Condition::Not(Box::new(Condition::And(
            Box::new(Condition::EqConst(VarId::new("X"), intern("a"))),
            Box::new(Condition::EqConst(VarId::new("Y"), intern("b"))),
        )));
        let d = compile_condition(&c, &bset(&["X", "Y"])).unwrap();
        assert_eq!(d.len(), 2);
        assert!(matches!(d[0][0], Builtin::Neq(..)));
    }

    #[test]
    fn or_of_ands_expands() {
        let c = Condition::And(
            Box::new(Condition::Or(
                Box::new(Condition::EqConst(VarId::new("X"), intern("a"))),
                Box::new(Condition::EqConst(VarId::new("X"), intern("b"))),
            )),
            Box::new(Condition::EqVar(VarId::new("X"), VarId::new("Y"))),
        );
        let d = compile_condition(&c, &bset(&["X", "Y"])).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].len(), 2);
    }

    /// `(?A = c0 || ?B = c0) && … && (?A = c(n-1) || ?B = c(n-1))`.
    fn conjoined_pairs(n: usize) -> Condition {
        let pair = |i: usize| {
            let c = intern(&format!("c{i}"));
            Condition::Or(
                Box::new(Condition::EqConst(VarId::new("A"), c)),
                Box::new(Condition::EqConst(VarId::new("B"), c)),
            )
        };
        (1..n).fold(pair(0), |acc, i| {
            Condition::And(Box::new(acc), Box::new(pair(i)))
        })
    }

    #[test]
    fn up_to_twelve_conjoined_pairs_expand_exactly_as_before() {
        let eq = |v: &str, i: usize| {
            Builtin::Eq(
                Term::Var(VarId::new(v)),
                Term::Const(intern(&format!("c{i}"))),
            )
        };
        for n in 1..=12 {
            let d = compile_condition(&conjoined_pairs(n), &bset(&["A", "B"])).unwrap();
            // The cross product in `conjoin`'s order: the first pair's
            // choice varies slowest, `?A` before `?B`.
            let want: Vec<Vec<Builtin>> = (0..1usize << n)
                .map(|bits| {
                    (0..n)
                        .map(|i| {
                            eq(
                                if bits >> (n - 1 - i) & 1 == 0 {
                                    "A"
                                } else {
                                    "B"
                                },
                                i,
                            )
                        })
                        .collect()
                })
                .collect();
            assert_eq!(d, want, "n = {n}");
        }
    }

    #[test]
    fn an_expansion_past_the_bound_is_refused_before_it_is_built() {
        let err = compile_condition(&conjoined_pairs(13), &bset(&["A", "B"])).unwrap_err();
        assert_eq!(err.code(), "E-RESOURCE", "{err}");
        // 2^64 disjuncts: the count saturates instead of overflowing.
        let err = compile_condition(&conjoined_pairs(70), &bset(&["A", "B"])).unwrap_err();
        assert_eq!(err.code(), "E-RESOURCE", "{err}");
        // Under negation the sums and products trade places: the
        // negated conjunction of 13 pairs is 13 disjuncts of two.
        let negated = Condition::Not(Box::new(conjoined_pairs(13)));
        let d = compile_condition(&negated, &bset(&["A", "B"])).unwrap();
        assert_eq!(d.len(), 13);
        assert!(d.iter().all(|conj| conj.len() == 2));
    }
}
