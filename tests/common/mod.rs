//! Shared random-input generators for the differential suites
//! (`differential_chase.rs`, `differential_incremental.rs`, …): one
//! program/database/graph generator, parameterized instead of
//! copy-pasted, so a widened rule shape or a fixed safety hole reaches
//! every harness at once.

#![allow(dead_code)] // each test binary uses a subset

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use triq::common::Term;
use triq::datalog::{Atom, Program, Rule};
use triq::prelude::*;

pub const PREDS: [&str; 4] = ["p", "q", "r", "s"];
pub const CONSTS: [&str; 3] = ["a", "b", "c"];

/// A random long-chain rule: `c0(?V0,?V1), c1(?V1,?V2), …, ck-1(?Vk-1,?Vk)
/// -> chain_out(?V0,?Vk)`, optionally *closed* into a cycle (the last
/// atom reuses `?V0`, making its probe position fully bound under any
/// sensible join order). 3–6 hops over dedicated binary predicates —
/// the shape where the join order decides how much intermediate fanout
/// the enumeration walks through.
pub fn random_chain_rule(rng: &mut StdRng) -> Rule {
    let hops = rng.gen_range(3..=6);
    let closed = rng.gen_bool(0.5);
    let var = |i: usize| VarId::new(&format!("V{i}"));
    let mut body = Vec::new();
    for k in 0..hops {
        let to = if closed && k == hops - 1 {
            var(0)
        } else {
            var(k + 1)
        };
        body.push(Atom::new(
            intern(&format!("c{k}")),
            vec![Term::Var(var(k)), Term::Var(to)],
        ));
    }
    let head_to = if closed { var(0) } else { var(hops) };
    Rule {
        body_pos: body,
        body_neg: vec![],
        builtins: vec![],
        exist_vars: vec![],
        head: vec![Atom::new(
            intern("chain_out"),
            vec![Term::Var(var(0)), Term::Var(head_to)],
        )],
    }
}

/// A random star-join rule: 2–3 unary spokes bind distinct columns of a
/// wide `hub` predicate — the shape where multi-column hub probes have
/// high single-column fanout.
pub fn random_star_rule(rng: &mut StdRng) -> Rule {
    let spokes = rng.gen_range(2..=3);
    let arity = spokes + 1;
    let var = |i: usize| VarId::new(&format!("S{i}"));
    let mut body: Vec<Atom> = (0..spokes)
        .map(|k| Atom::new(intern(&format!("sp{k}")), vec![Term::Var(var(k))]))
        .collect();
    let hub_terms: Vec<Term> = (0..arity).map(|i| Term::Var(var(i))).collect();
    let hub = Atom::new(intern("hub"), hub_terms);
    // The hub's position in the body must not matter: sometimes first,
    // sometimes last.
    if rng.gen_bool(0.5) {
        body.insert(0, hub);
    } else {
        body.push(hub);
    }
    Rule {
        body_pos: body,
        body_neg: vec![],
        builtins: vec![],
        exist_vars: vec![],
        head: vec![Atom::new(intern("star_out"), vec![Term::Var(var(spokes))])],
    }
}

/// Knobs for [`random_program_shaped`].
#[derive(Clone, Copy, Debug)]
pub struct ProgramShape {
    /// Allow existential rules.
    pub allow_exists: bool,
    /// Allow two-headed rules.
    pub allow_multihead: bool,
    /// Mix in long-chain and star-join rules (the join-order stressors).
    pub join_shapes: bool,
}

/// [`random_program`] plus, with `join_shapes`, a chain and/or star rule
/// appended — programs whose body lengths actually give the join orders
/// to choose between.
pub fn random_program_shaped(rng: &mut StdRng, shape: ProgramShape) -> Program {
    let mut program = random_program(rng, shape.allow_exists, shape.allow_multihead);
    if shape.join_shapes {
        if rng.gen_bool(0.7) {
            program.rules.push(random_chain_rule(rng));
        }
        if rng.gen_bool(0.7) {
            program.rules.push(random_star_rule(rng));
        }
    }
    program
}

/// Fills the chain (`c*`) and star (`hub`/`sp*`) predicates of
/// `program` with a few dozen joinable rows: the handful of facts
/// [`random_db`] draws almost never completes a 3–6 atom body. Small
/// enough for the naive reference's nested loops.
pub fn load_join_shapes(rng: &mut StdRng, program: &Program, db: &mut Database) {
    let is_chain_hop =
        |p: &str| p.len() >= 2 && p.starts_with('c') && p[1..].chars().all(|c| c.is_ascii_digit());
    for (pred, arity) in schema_of(program) {
        if is_chain_hop(&pred) && arity == 2 {
            // Fanout-2 hops over an 8-node pool.
            for i in 0..8 {
                for j in 0..2 {
                    let to = (2 * i + j + rng.gen_range(0..2)) % 8;
                    db.add_fact(&pred, &[&format!("bn{i}"), &format!("bn{to}")]);
                }
            }
        } else if pred == "hub" {
            // 24 rows: every spoke-bound column over a 4-value pool, the
            // last (the star's output) distinct.
            for i in 0..24usize {
                let args: Vec<String> = (0..arity)
                    .map(|c| match c + 1 == arity {
                        true => format!("bt{i}"),
                        false => format!("b{c}v{}", (i + rng.gen_range(0..2)) % 4),
                    })
                    .collect();
                let refs: Vec<&str> = args.iter().map(String::as_str).collect();
                db.add_fact(&pred, &refs);
            }
        } else if let Some(k) = pred.strip_prefix("sp").filter(|_| arity == 1) {
            // Spoke `spk` binds hub column k: three of its four values.
            for v in 0..3 {
                db.add_fact(&pred, &[&format!("b{k}v{v}")]);
            }
        }
    }
}

/// A random Datalog∃,¬s,⊥ program: joins, constants, negation, builtins,
/// existentials and constraints all appear. With `allow_multihead`,
/// rules may carry a second head atom — multi-head rules are *lifted* to
/// the max of their head strata, the shape that forces the incremental
/// maintenance sweep to re-enter earlier strata.
pub fn random_program(rng: &mut StdRng, allow_exists: bool, allow_multihead: bool) -> Program {
    let arities: Vec<usize> = PREDS.iter().map(|_| rng.gen_range(1..4)).collect();
    let vars = ["X", "Y", "Z", "W"];
    let mut rules = Vec::new();
    for _ in 0..rng.gen_range(1..5) {
        let n_body = rng.gen_range(1..4);
        let mut body = Vec::new();
        let mut body_vars: Vec<VarId> = Vec::new();
        for _ in 0..n_body {
            let pi = rng.gen_range(0..PREDS.len());
            let terms: Vec<Term> = (0..arities[pi])
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        Term::constant(CONSTS[rng.gen_range(0..CONSTS.len())])
                    } else {
                        let v = VarId::new(vars[rng.gen_range(0..vars.len())]);
                        body_vars.push(v);
                        Term::Var(v)
                    }
                })
                .collect();
            body.push(Atom::new(intern(PREDS[pi]), terms));
        }
        if body_vars.is_empty() {
            continue; // unsafe rule shapes are not the point here
        }
        // Optional negated atom over body variables only (safety).
        let mut body_neg = Vec::new();
        if rng.gen_bool(0.3) {
            let pi = rng.gen_range(0..PREDS.len());
            let terms: Vec<Term> = (0..arities[pi])
                .map(|_| Term::Var(body_vars[rng.gen_range(0..body_vars.len())]))
                .collect();
            body_neg.push(Atom::new(intern(PREDS[pi]), terms));
        }
        // Optional built-in between two body variables.
        let mut builtins = Vec::new();
        if rng.gen_bool(0.3) && body_vars.len() >= 2 {
            let x = Term::Var(body_vars[rng.gen_range(0..body_vars.len())]);
            let y = Term::Var(body_vars[rng.gen_range(0..body_vars.len())]);
            builtins.push(if rng.gen_bool(0.5) {
                triq::datalog::Builtin::Neq(x, y)
            } else {
                triq::datalog::Builtin::Eq(x, y)
            });
        }
        let existential = allow_exists && rng.gen_bool(0.35);
        let exist_var = VarId::new("E");
        let head_atom = |rng: &mut StdRng| {
            let hi = rng.gen_range(0..PREDS.len());
            let terms: Vec<Term> = (0..arities[hi])
                .map(|i| {
                    if existential && i == 0 {
                        Term::Var(exist_var)
                    } else {
                        Term::Var(body_vars[rng.gen_range(0..body_vars.len())])
                    }
                })
                .collect();
            Atom::new(intern(PREDS[hi]), terms)
        };
        let mut head = vec![head_atom(rng)];
        if allow_multihead && rng.gen_bool(0.3) {
            head.push(head_atom(rng));
        }
        rules.push(Rule {
            body_pos: body,
            body_neg,
            builtins,
            exist_vars: if existential { vec![exist_var] } else { vec![] },
            head,
        });
    }
    let mut constraints = Vec::new();
    if rng.gen_bool(0.3) {
        // One random single-atom constraint: chance to classify as ⊤.
        let pi = rng.gen_range(0..PREDS.len());
        let v = VarId::new("X");
        let terms: Vec<Term> = (0..arities[pi]).map(|_| Term::Var(v)).collect();
        constraints.push(triq::datalog::Constraint {
            body: vec![Atom::new(intern(PREDS[pi]), terms)],
            builtins: vec![],
        });
    }
    Program { rules, constraints }
}

/// The program's schema as a sorted list (deterministic across runs —
/// `Program::schema()` is a `HashMap`).
pub fn schema_of(program: &Program) -> Vec<(String, usize)> {
    let mut schema: Vec<(String, usize)> = program
        .schema()
        .iter()
        .map(|(p, a)| (p.as_str().to_string(), *a))
        .collect();
    schema.sort();
    schema
}

/// A random fact over the program's schema.
pub fn random_fact(rng: &mut StdRng, schema: &[(String, usize)]) -> Option<Fact> {
    if schema.is_empty() {
        return None;
    }
    let (pred, arity) = &schema[rng.gen_range(0..schema.len())];
    let args: Vec<&str> = (0..*arity)
        .map(|_| CONSTS[rng.gen_range(0..CONSTS.len())])
        .collect();
    Some(Fact::from_strs(pred, &args))
}

/// A random database over the program's schema.
pub fn random_db(rng: &mut StdRng, program: &Program) -> Database {
    let mut db = Database::new();
    let schema = schema_of(program);
    for _ in 0..rng.gen_range(0..8) {
        if let Some(f) = random_fact(rng, &schema) {
            let args: Vec<&str> = f.args.iter().map(|s| s.as_str()).collect();
            db.add_fact(f.pred.as_str(), &args);
        }
    }
    db
}

/// A random RDF graph with occasional ontology scaffolding (subclass /
/// subproperty / disjointness axioms) plus assertions.
pub fn random_graph(rng: &mut StdRng) -> Graph {
    let entities = ["ind_a", "ind_b", "ind_c"];
    let classes = ["C1", "C2"];
    let props = ["e1", "e2"];
    let mut g = Graph::new();
    if rng.gen_bool(0.7) {
        g.insert_strs("C1", "rdfs:subClassOf", "C2");
    }
    if rng.gen_bool(0.5) {
        g.insert_strs("e1", "rdfs:subPropertyOf", "e2");
    }
    if rng.gen_bool(0.2) {
        g.insert_strs("C1", "owl:disjointWith", "C2");
    }
    for _ in 0..rng.gen_range(1..6) {
        let s = entities[rng.gen_range(0..entities.len())];
        if rng.gen_bool(0.4) {
            g.insert_strs(s, "rdf:type", classes[rng.gen_range(0..classes.len())]);
        } else {
            let p = props[rng.gen_range(0..props.len())];
            let o = entities[rng.gen_range(0..entities.len())];
            g.insert_strs(s, p, o);
        }
    }
    g
}

/// Byte-level equality of two chase outcomes: same ⊤-classification,
/// same ids for the same atoms, same provenance.
pub fn assert_outcomes_identical(
    base: &triq::datalog::ChaseOutcome,
    other: &triq::datalog::ChaseOutcome,
    what: &str,
) {
    assert_eq!(base.inconsistent, other.inconsistent, "⊤ diverges: {what}");
    assert_eq!(base.instance.len(), other.instance.len(), "len: {what}");
    for (id, atom) in base.instance.iter() {
        assert_eq!(
            other.instance.find(&atom),
            Some(id),
            "atom {atom} has a different id: {what}"
        );
        assert_eq!(
            other.instance.derivation(id),
            base.instance.derivation(id),
            "provenance of {atom} diverges: {what}"
        );
    }
}

/// The ground atoms of a chase outcome, printable and order-free.
pub fn ground_strings(outcome: &triq::datalog::ChaseOutcome) -> BTreeSet<String> {
    outcome
        .instance
        .ground_part()
        .iter()
        .map(|a| a.to_string())
        .collect()
}

/// Applies `delta` to a model database the way a view applies it:
/// deletes first, then inserts. The model is the oracle of what a
/// maintained view's facts are.
pub fn apply_to_model(model: &mut Database, delta: &Delta) {
    for f in &delta.deletes {
        model.remove_row(f.pred, &f.args);
    }
    for f in &delta.inserts {
        model.add_row(f.pred, &f.args);
    }
}

/// The facts of a database, printable and order-free.
pub fn fact_strings(db: &Database) -> BTreeSet<String> {
    db.iter().map(|a| a.to_string()).collect()
}
