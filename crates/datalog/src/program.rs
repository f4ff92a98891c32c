//! Rules, constraints and programs (§3.2).

use crate::{Atom, Builtin};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use triq_common::{Result, Symbol, Term, TermId, TriqError, VarId};

/// A Datalog∃,¬ rule
/// `a₁, …, aₙ, ¬b₁, …, ¬bₘ → ∃?Y₁ … ∃?Yₖ c₁, …, c_r` (§3.2).
///
/// Following footnote 6 of the paper we allow several head atoms; the
/// normalization into single-head rules is available via
/// [`Rule::split_head`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// Positive body atoms `body⁺(ρ)`.
    pub body_pos: Vec<Atom>,
    /// Negated body atoms `body⁻(ρ)`.
    pub body_neg: Vec<Atom>,
    /// Built-in (in)equality literals.
    pub builtins: Vec<Builtin>,
    /// Existentially quantified head variables `?Y₁, …, ?Yₖ`.
    pub exist_vars: Vec<VarId>,
    /// Head atoms.
    pub head: Vec<Atom>,
}

impl Rule {
    /// Builds a positive single-head Datalog rule (no ∃, no ¬).
    pub fn plain(body: Vec<Atom>, head: Atom) -> Self {
        Rule {
            body_pos: body,
            body_neg: Vec::new(),
            builtins: Vec::new(),
            exist_vars: Vec::new(),
            head: vec![head],
        }
    }

    /// All variables occurring in the positive body.
    pub fn body_pos_vars(&self) -> BTreeSet<VarId> {
        self.body_pos.iter().flat_map(|a| a.vars()).collect()
    }

    /// All variables occurring in the (full) body.
    pub fn body_vars(&self) -> BTreeSet<VarId> {
        self.body_pos
            .iter()
            .chain(self.body_neg.iter())
            .flat_map(|a| a.vars())
            .collect()
    }

    /// All universally quantified variables occurring in the head
    /// (the *frontier* of the rule).
    pub fn frontier(&self) -> BTreeSet<VarId> {
        let body = self.body_pos_vars();
        self.head
            .iter()
            .flat_map(|a| a.vars())
            .filter(|v| body.contains(v))
            .collect()
    }

    /// Validates the syntactic side conditions (1)–(5) of §3.2.
    pub fn validate(&self) -> Result<()> {
        if self.body_pos.is_empty() {
            return Err(TriqError::InvalidProgram(format!(
                "rule {self} has an empty positive body (condition n ≥ 1)"
            )));
        }
        let pos_vars = self.body_pos_vars();
        for b in &self.body_neg {
            for v in b.vars() {
                if !pos_vars.contains(&v) {
                    return Err(TriqError::InvalidProgram(format!(
                        "negated atom {b} in rule {self} uses variable {v} \
                         not bound by the positive body (condition 3)"
                    )));
                }
            }
        }
        for bi in &self.builtins {
            for v in bi.vars() {
                if !pos_vars.contains(&v) {
                    return Err(TriqError::InvalidProgram(format!(
                        "builtin {bi} in rule {self} uses unbound variable {v}"
                    )));
                }
            }
        }
        for ev in &self.exist_vars {
            if pos_vars.contains(ev) || self.body_neg.iter().any(|a| a.vars().any(|v| v == *ev)) {
                return Err(TriqError::InvalidProgram(format!(
                    "existential variable {ev} of rule {self} also occurs in \
                     the body (condition 4)"
                )));
            }
        }
        for h in &self.head {
            for v in h.vars() {
                if !pos_vars.contains(&v) && !self.exist_vars.contains(&v) {
                    return Err(TriqError::InvalidProgram(format!(
                        "head variable {v} of rule {self} is neither frontier \
                         nor existential (condition 5)"
                    )));
                }
            }
            if h.terms.iter().any(|t| t.is_null()) {
                return Err(TriqError::InvalidProgram(format!(
                    "rule {self} mentions a labeled null"
                )));
            }
        }
        if self.head.is_empty() {
            return Err(TriqError::InvalidProgram(format!(
                "rule {self} has no head atom"
            )));
        }
        Ok(())
    }

    /// True iff the rule has existential head variables.
    pub fn is_existential(&self) -> bool {
        !self.exist_vars.is_empty()
    }

    /// Splits a multi-head rule into single-head rules sharing the body
    /// (only valid when no existential variable is shared between head
    /// atoms; otherwise the rule is kept intact — see footnote 6 and ref. \[12\]).
    pub fn split_head(&self) -> Vec<Rule> {
        if self.head.len() <= 1 || !self.exist_vars.is_empty() {
            return vec![self.clone()];
        }
        self.head
            .iter()
            .map(|h| Rule {
                head: vec![h.clone()],
                ..self.clone()
            })
            .collect()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            Ok(())
        };
        for a in &self.body_pos {
            sep(f)?;
            write!(f, "{a}")?;
        }
        for a in &self.body_neg {
            sep(f)?;
            write!(f, "!{a}")?;
        }
        for b in &self.builtins {
            sep(f)?;
            write!(f, "{b}")?;
        }
        f.write_str(" -> ")?;
        if !self.exist_vars.is_empty() {
            f.write_str("exists")?;
            for v in &self.exist_vars {
                write!(f, " {v}")?;
            }
            f.write_str(" ")?;
        }
        for (i, h) in self.head.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{h}")?;
        }
        Ok(())
    }
}

/// A constraint `a₁, …, aₙ → ⊥` (§3.2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Constraint {
    /// Body atoms.
    pub body: Vec<Atom>,
    /// Built-in literals.
    pub builtins: Vec<Builtin>,
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        for b in &self.builtins {
            write!(f, ", {b}")?;
        }
        f.write_str(" -> false")
    }
}

/// A Datalog∃,¬,⊥ program: a finite set of rules and constraints (§3.2).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Program {
    /// The Datalog∃,¬ rules (`ex(Π)` in the paper).
    pub rules: Vec<Rule>,
    /// The constraints.
    pub constraints: Vec<Constraint>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Builds and validates a program.
    pub fn from_rules(rules: Vec<Rule>, constraints: Vec<Constraint>) -> Result<Self> {
        let p = Program { rules, constraints };
        p.validate()?;
        Ok(p)
    }

    /// Concatenates two programs (the paper's `Π ∪ Π'`).
    pub fn union(&self, other: &Program) -> Program {
        let mut p = self.clone();
        p.rules.extend(other.rules.iter().cloned());
        p.constraints.extend(other.constraints.iter().cloned());
        p
    }

    /// Validates all rules and checks arity coherence across the program
    /// (`sch(Π)` assigns each predicate a single arity).
    pub fn validate(&self) -> Result<()> {
        for r in &self.rules {
            r.validate()?;
        }
        for c in &self.constraints {
            if c.body.is_empty() {
                return Err(TriqError::InvalidProgram(
                    "constraint with empty body".into(),
                ));
            }
        }
        let mut arities: HashMap<Symbol, usize> = HashMap::new();
        let mut check = |a: &Atom| -> Result<()> {
            match arities.insert(a.pred, a.arity()) {
                Some(prev) if prev != a.arity() => Err(TriqError::InvalidProgram(format!(
                    "predicate {} used with arities {} and {}",
                    a.pred,
                    prev,
                    a.arity()
                ))),
                _ => Ok(()),
            }
        };
        for a in self.all_atoms() {
            check(a)?;
        }
        Ok(())
    }

    /// Every atom occurring anywhere in the program.
    pub fn all_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.rules
            .iter()
            .flat_map(|r| {
                r.body_pos
                    .iter()
                    .chain(r.body_neg.iter())
                    .chain(r.head.iter())
            })
            .chain(self.constraints.iter().flat_map(|c| c.body.iter()))
    }

    /// `sch(Π)`: the predicates occurring in the program, with arities.
    pub fn schema(&self) -> HashMap<Symbol, usize> {
        self.all_atoms().map(|a| (a.pred, a.arity())).collect()
    }

    /// The predicates that occur in some rule head (IDB predicates).
    pub fn head_predicates(&self) -> BTreeSet<Symbol> {
        self.rules
            .iter()
            .flat_map(|r| r.head.iter().map(|a| a.pred))
            .collect()
    }

    /// True iff `pred` occurs in the body of some rule or constraint.
    pub fn occurs_in_body(&self, pred: Symbol) -> bool {
        self.rules
            .iter()
            .flat_map(|r| r.body_pos.iter().chain(r.body_neg.iter()))
            .chain(self.constraints.iter().flat_map(|c| c.body.iter()))
            .any(|a| a.pred == pred)
    }

    /// `ex(Π)`: the program without its constraints.
    pub fn without_constraints(&self) -> Program {
        Program {
            rules: self.rules.clone(),
            constraints: Vec::new(),
        }
    }

    /// `Π⁺`: the program without negated atoms and constraints (used by the
    /// guardedness machinery, §4.2).
    pub fn positive_part(&self) -> Program {
        Program {
            rules: self
                .rules
                .iter()
                .map(|r| Rule {
                    body_neg: Vec::new(),
                    ..r.clone()
                })
                .collect(),
            constraints: Vec::new(),
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}.")?;
        }
        for c in &self.constraints {
            writeln!(f, "{c}.")?;
        }
        Ok(())
    }
}

/// A union read: the chase reads the tuples of `pred` from the relation
/// of `from` as well as from `pred`'s own, instead of copying them with
/// the rule [`Union::rule`]. `from` holds `pred`'s columns in order,
/// except the one `fixed` pins to a constant: `type` read as
/// `triple1(x, rdf:type, y)` is `from = type, fixed = (1, rdf:type)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Union {
    /// The predicate read.
    pub pred: Symbol,
    /// Its arity.
    pub arity: usize,
    /// The predicate whose relation also holds its tuples.
    pub from: Symbol,
    /// The column `from` does not hold, and the constant there.
    pub fixed: Option<(usize, Symbol)>,
}

impl Union {
    /// The arity of `from`'s relation.
    pub fn from_arity(&self) -> usize {
        self.arity - usize::from(self.fixed.is_some())
    }

    /// The copy rule the union replaces, `from(?X0, …) → pred(?X0, …)`.
    pub fn rule(&self) -> Rule {
        let var = |i: usize| Term::Var(VarId::new(&format!("?X{i}")));
        let body: Vec<Term> = (0..self.from_arity()).map(var).collect();
        let mut head = body.clone();
        if let Some((col, k)) = self.fixed {
            head.insert(col, Term::Const(k));
        }
        Rule::plain(vec![Atom::new(self.from, body)], Atom::new(self.pred, head))
    }

    /// The union `rule` is the copy rule of, if it is one: a single
    /// positive body atom over distinct variables and a single head atom
    /// holding them in the same order, plus at most one constant, and
    /// nothing else.
    pub fn of_rule(rule: &Rule) -> Option<Union> {
        let ([body], [head]) = (&rule.body_pos[..], &rule.head[..]) else {
            return None;
        };
        let plain = rule.body_neg.is_empty()
            && rule.builtins.is_empty()
            && rule.exist_vars.is_empty()
            && body.pred != head.pred;
        let vars: Vec<VarId> = body.terms.iter().filter_map(|t| t.as_var()).collect();
        let distinct = vars.iter().collect::<BTreeSet<_>>().len() == body.terms.len();
        if !plain || !distinct {
            return None;
        }
        let mut fixed = None;
        let mut next = vars.iter();
        for (col, &t) in head.terms.iter().enumerate() {
            match t {
                Term::Var(v) if next.next() == Some(&v) => {}
                Term::Const(k) if fixed.is_none() => fixed = Some((col, k)),
                _ => return None,
            }
        }
        (next.next().is_none() && head.arity() == body.arity() + usize::from(fixed.is_some()))
            .then_some(Union {
                pred: head.pred,
                arity: head.arity(),
                from: body.pred,
                fixed,
            })
    }

    /// The tuple of `pred` that `key`, a tuple of `from`, stands for.
    pub fn widen(&self, key: &[TermId]) -> Vec<TermId> {
        let mut out = key.to_vec();
        if let Some((col, k)) = self.fixed {
            out.insert(col, TermId::from_const(k));
        }
        out
    }
}

/// The union reads a chase serves (see "The relation store" in
/// `docs/ARCHITECTURE.md`): for each union predicate, the other
/// relations of the same instance that hold its tuples. A body atom of
/// such a predicate reads its own relation and every source in turn;
/// a rule head dedups against the sources before it appends; the copy
/// rules the unions replace are never chased. Classification,
/// stratification, demand and the reference evaluator read a union as
/// its copy rule ([`Unions::complete`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Unions(Vec<Union>);

impl Unions {
    /// No union: every atom reads its own relation.
    pub fn none() -> Unions {
        Unions::default()
    }

    /// Validates a list of sources: arities of at least one column
    /// beyond the fixed one, the fixed column in range, each
    /// `(pred, from)` pair once, and no source that is itself a union
    /// predicate (or the predicate it serves).
    pub fn new(sources: Vec<Union>) -> Result<Unions> {
        for (i, u) in sources.iter().enumerate() {
            let bad = |why: &str| {
                Err(TriqError::InvalidProgram(format!(
                    "union read of {} from {}: {why}",
                    u.pred, u.from
                )))
            };
            if u.fixed.is_some_and(|(col, _)| col >= u.arity) || u.from_arity() == 0 {
                return bad("the fixed column is out of range");
            }
            if sources.iter().any(|o| o.pred == u.from) {
                return bad("a source may not be a union predicate itself");
            }
            if sources[..i]
                .iter()
                .any(|o| o.pred == u.pred && (o.from == u.from || o.arity != u.arity))
            {
                return bad("the source is listed twice or the arities disagree");
            }
        }
        Ok(Unions(sources))
    }

    /// True iff there is no union.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every source.
    pub fn iter(&self) -> impl Iterator<Item = &Union> + '_ {
        self.0.iter()
    }

    /// The sources of `pred` at `arity`, beyond its own relation.
    pub fn sources(&self, pred: Symbol, arity: usize) -> impl Iterator<Item = &Union> + '_ {
        self.0
            .iter()
            .filter(move |u| u.pred == pred && u.arity == arity)
    }

    /// The unions `pred` at `arity` is a source of.
    pub fn served_by(&self, pred: Symbol, arity: usize) -> impl Iterator<Item = &Union> + '_ {
        self.0
            .iter()
            .filter(move |u| u.from == pred && u.from_arity() == arity)
    }

    /// Whether `rule` is the copy rule of one of the unions: the chase
    /// serves it by reading, not by firing it.
    pub fn serves(&self, rule: &Rule) -> bool {
        !self.0.is_empty() && Union::of_rule(rule).is_some_and(|u| self.0.contains(&u))
    }

    /// `program` with the copy rule of every union it does not already
    /// hold appended: the literal program the unions stand for, in
    /// which each original rule keeps its index.
    pub fn complete(&self, program: &Program) -> Program {
        let mut literal = program.clone();
        for u in &self.0 {
            if !program.rules.iter().any(|r| Union::of_rule(r) == Some(*u)) {
                literal.rules.push(u.rule());
            }
        }
        literal
    }
}

/// One `@union <copy rule>.` line per source: what the served text of a
/// program appends to its rules (see `parse_served`).
impl fmt::Display for Unions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for u in &self.0 {
            writeln!(f, "@union {}.", u.rule())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triq_common::Term;

    fn v(n: u32) -> Term {
        Term::Var(VarId(n))
    }

    #[test]
    fn validate_rejects_unsafe_negation() {
        let r = Rule {
            body_pos: vec![Atom::from_parts("p", vec![v(0)])],
            body_neg: vec![Atom::from_parts("q", vec![v(1)])],
            builtins: vec![],
            exist_vars: vec![],
            head: vec![Atom::from_parts("r", vec![v(0)])],
        };
        assert!(r.validate().is_err());
    }

    #[test]
    fn validate_rejects_unbound_head_var() {
        let r = Rule::plain(
            vec![Atom::from_parts("p", vec![v(0)])],
            Atom::from_parts("q", vec![v(1)]),
        );
        assert!(r.validate().is_err());
    }

    #[test]
    fn validate_accepts_existential() {
        let r = Rule {
            body_pos: vec![Atom::from_parts("p", vec![v(0)])],
            body_neg: vec![],
            builtins: vec![],
            exist_vars: vec![VarId(1)],
            head: vec![Atom::from_parts("q", vec![v(0), v(1)])],
        };
        assert!(r.validate().is_ok());
        assert!(r.is_existential());
        assert_eq!(r.frontier(), BTreeSet::from([VarId(0)]));
    }

    #[test]
    fn program_arity_check() {
        let p = Program {
            rules: vec![
                Rule::plain(
                    vec![Atom::from_parts("p", vec![v(0)])],
                    Atom::from_parts("q", vec![v(0)]),
                ),
                Rule::plain(
                    vec![Atom::from_parts("p", vec![v(0), v(1)])],
                    Atom::from_parts("r", vec![v(0)]),
                ),
            ],
            constraints: vec![],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn split_head_shares_body() {
        let r = Rule {
            body_pos: vec![Atom::from_parts("p", vec![v(0)])],
            body_neg: vec![],
            builtins: vec![],
            exist_vars: vec![],
            head: vec![
                Atom::from_parts("q", vec![v(0)]),
                Atom::from_parts("r", vec![v(0)]),
            ],
        };
        let split = r.split_head();
        assert_eq!(split.len(), 2);
        assert_eq!(split[0].head[0].pred.as_str(), "q");
        assert_eq!(split[1].head[0].pred.as_str(), "r");
    }
}
