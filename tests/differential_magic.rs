//! Differential testing of the demand-driven (magic-sets) rewrite.
//!
//! The rewrite must be a pure accelerator: for every program and every
//! query — fully bound, partially bound or unbound — chasing
//! `demand::rewrite`'s program over `D ∪ {seed}` must produce exactly
//! the same `Answers` as the full chase of the program over `D`, and so
//! must the facade's default execution.
//! Where the rewrite cannot preserve the
//! semantics (existential derivers, rewrites that break stratification,
//! unbound queries) it must *decline* — visibly, via the
//! `demand_fallbacks` counter — and serve the full chase instead of a
//! wrong answer.
//!
//! * random Datalog∃,¬s,⊥ programs × random point queries (a fresh
//!   `dmout` rule whose body randomly binds positions to constants —
//!   sometimes constants that exist in no fact) × random databases:
//!   answers identical between the rewrite and the full chase;
//! * random RDF graphs under all three SPARQL regimes (plain, J·K^U,
//!   J·K^All): answers identical between the rewrite and the full chase;
//! * deterministic regression seeds for the paths that once carried
//!   bugs elsewhere: negation under demand, the existential-deriver
//!   fallback, and the fallback/rewrites counters themselves.

mod common;

use common::{random_graph, random_program_shaped, schema_of, ProgramShape, CONSTS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triq::common::Term;
use triq::datalog::{demand, Atom, ChaseConfig, ChaseOutcome, Rule};
use triq::prelude::*;

/// The output predicate every generated point query derives into. Must
/// not collide with the generator's predicate pools.
const OUT: &str = "dmout";

/// Appends a random point-query rule `p(t1, …, tk) -> dmout(vars…)` to
/// `program`: each body position is independently a constant (sometimes
/// one that occurs in no generated fact, so the demanded set can be
/// empty) or a fresh variable. A body with no variables keeps a marker
/// head (`dmout(hit)`), making it a fully-bound boolean query.
fn append_point_query(rng: &mut StdRng, program: &mut Program) {
    let schema = schema_of(program);
    let (pred, arity) = schema[rng.gen_range(0..schema.len())].clone();
    let mut terms = Vec::new();
    let mut head_terms = Vec::new();
    for i in 0..arity {
        if rng.gen_bool(0.4) {
            let c = if rng.gen_bool(0.15) {
                "zz" // never generated by the fact pool
            } else {
                CONSTS[rng.gen_range(0..CONSTS.len())]
            };
            terms.push(Term::constant(c));
        } else {
            let v = VarId::new(&format!("Q{i}"));
            terms.push(Term::Var(v));
            head_terms.push(Term::Var(v));
        }
    }
    if head_terms.is_empty() {
        head_terms.push(Term::constant("hit"));
    }
    program.rules.push(Rule {
        body_pos: vec![Atom::new(intern(&pred), terms)],
        body_neg: vec![],
        builtins: vec![],
        exist_vars: vec![],
        head: vec![Atom::new(intern(OUT), head_terms)],
    });
}

/// The answers of a chase, `None` when it blew its resource budget
/// (which the demand side may legitimately do at a different point than
/// the full chase: adorned copies multiply the rule set). Any other
/// error surfaces.
fn within_budget(outcome: Result<ChaseOutcome, TriqError>, output: Symbol) -> Option<Answers> {
    match outcome {
        Ok(outcome) => Some(Answers::from_chase(&outcome, output)),
        Err(e) if e.code() == "E-RESOURCE" => None,
        Err(e) => panic!("chase failed: {e}"),
    }
}

/// The reference: `query`'s program chased in full over `db`.
fn full_answers(query: &PreparedQuery, db: &Database, config: ChaseConfig) -> Option<Answers> {
    let runner = ChaseRunner::new(query.program().clone(), config).unwrap();
    within_budget(runner.run(db), query.output())
}

/// `demand::rewrite` of `query`'s program chased over `db ∪ {seed}` —
/// with no fallback, so a failing demand build surfaces. When the
/// rewrite declines, the full chase is what evaluation means.
fn rewrite_answers(query: &PreparedQuery, db: &Database, config: ChaseConfig) -> Option<Answers> {
    let Ok(rewritten) = demand::rewrite(query.program(), query.output()) else {
        return full_answers(query, db, config);
    };
    let mut db = db.clone();
    db.add_row(rewritten.seed.pred, &rewritten.seed.args);
    let runner = ChaseRunner::new(rewritten.program, config).unwrap();
    within_budget(runner.run(&db), query.output())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Rewrite ≡ full chase ≡ facade on random programs × random point
    /// queries × random databases.
    #[test]
    fn demand_force_matches_demand_off(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let join_shapes = rng.gen_bool(0.3);
        let mut program = random_program_shaped(&mut rng, ProgramShape {
            allow_exists: true,
            allow_multihead: true,
            join_shapes,
        });
        append_point_query(&mut rng, &mut program);
        prop_assume!(program.validate().is_ok());
        prop_assume!(triq::datalog::stratify(&program).is_ok());
        let text = program.to_string();

        let engine = Engine::new();
        let prepared = engine.prepare(Datalog(&text, OUT)).unwrap();
        let mut session = engine.session();
        let schema = schema_of(&program);
        for _ in 0..rng.gen_range(0..10) {
            if let Some(f) = common::random_fact(&mut rng, &schema) {
                let args: Vec<&str> = f.args.iter().map(|s| s.as_str()).collect();
                session.add_fact(f.pred.as_str(), &args);
            }
        }

        let base = ChaseConfig { max_atoms: 100_000, ..prepared.config() };
        let db = session.database();
        let off = full_answers(&prepared, db, base);
        let force = rewrite_answers(&prepared, db, base);
        if let (Some(off), Some(force)) = (&off, force) {
            prop_assert_eq!(&force, off, "answers diverge (seed {})", seed);
        }
        // The facade's default execution: the session holds no view, so
        // it chases the attached rewrite, if any.
        let auto = prepared.clone().with_config(base).execute(&session).ok();
        if let (Some(off), Some(auto)) = (off, auto) {
            prop_assert_eq!(&auto, &off, "facade diverges (seed {})", seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    /// All three SPARQL regimes, unchanged by the rewrite and through
    /// the facade — including bound-subject patterns, the shape the
    /// rewrite exists for.
    #[test]
    fn sparql_regimes_agree_with_demand_forced(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng);
        let patterns = [
            "{ ?X rdf:type C2 }",
            "{ ?X e2 ?Y }",
            "{ ind_a e2 ?Y }",
            "{ ?X e1 ?Y . ?Y rdf:type C1 }",
        ];
        let pattern = parse_pattern(patterns[rng.gen_range(0..patterns.len())]).unwrap();
        let engine = Engine::new();
        let session = engine.load_graph(graph);
        for semantics in [Semantics::Plain, Semantics::RegimeU, Semantics::RegimeAll] {
            let q = engine.prepare((&pattern, semantics)).unwrap();
            let db = session.database();
            let off = full_answers(&q, db, q.config()).unwrap();
            let force = rewrite_answers(&q, db, q.config()).unwrap();
            prop_assert_eq!(
                &force, &off,
                "{:?} diverges under the rewrite (seed {})", semantics, seed
            );
            let auto = q.execute(&session).unwrap();
            prop_assert_eq!(
                &auto, &off,
                "{:?} diverges through the facade (seed {})", semantics, seed
            );
        }
    }
}

/// Negation under demand, pinned deterministically: a stratified program
/// whose demanded predicate sits above a negated one. The rewrite must
/// keep the negated predicate in the full set (or re-stratify) and the
/// answers must match the full chase exactly — including the tuples that
/// exist *because* something is absent.
#[test]
fn negation_under_demand_regression() {
    let text = "b(?X) -> r(?X).\n\
                r(?X), !f(?X) -> p(?X).\n\
                g(?X, ?Y), p(?X) -> t(?X, ?Y).\n\
                t(a, ?Y) -> dmout(?Y).";
    let engine = Engine::new();
    let prepared = engine.prepare(Datalog(text, OUT)).unwrap();
    let mut session = engine.session();
    for x in ["a", "b", "c"] {
        session.add_fact("b", &[x]);
    }
    session.add_fact("f", &["b"]); // knocks p(b) out via negation
    session.add_fact("g", &["a", "p"]);
    session.add_fact("g", &["a", "q"]);
    session.add_fact("g", &["b", "r"]);
    let config = prepared.config();
    let off = full_answers(&prepared, session.database(), config).unwrap();
    let force = rewrite_answers(&prepared, session.database(), config).unwrap();
    assert_eq!(force, off);
    assert_eq!(prepared.execute(&session).unwrap(), off);
    assert_eq!(off.len(), 2, "p(a) holds, so both g(a, _) rows survive");
}

/// A rewrite that would break stratification must decline (fall back to
/// the full chase) rather than produce a cyclic program — and still
/// answer correctly. The magic predicate for `q` would depend on `p`
/// through the out-rule body while `p` depends on `!q`.
#[test]
fn unstratifiable_rewrite_falls_back_and_stays_correct() {
    let text = "b(?X), !q(?X) -> p(?X).\n\
                f(?X) -> q(?X).\n\
                d(?X), p(?X), e(?X, ?Z), q(?Z) -> dmout(?X, ?Z).";
    let engine = Engine::new();
    let before = engine.stats().demand_fallbacks;
    let prepared = engine.prepare(Datalog(text, OUT)).unwrap();
    assert!(
        !prepared.uses_demand(),
        "the rewrite must decline when re-stratification fails"
    );
    assert!(
        engine.stats().demand_fallbacks > before,
        "a declined rewrite must be visible in demand_fallbacks"
    );
    let mut session = engine.session();
    session.add_fact("b", &["a"]);
    session.add_fact("b", &["c"]);
    session.add_fact("f", &["c"]);
    session.add_fact("d", &["a"]);
    session.add_fact("e", &["a", "c"]);
    let config = prepared.config();
    let off = full_answers(&prepared, session.database(), config).unwrap();
    let force = rewrite_answers(&prepared, session.database(), config).unwrap();
    assert_eq!(force, off);
    assert_eq!(prepared.execute(&session).unwrap(), off);
    assert!(off.contains(&["a", "c"]));
}

/// Existential derivers force the global fallback: demanding a predicate
/// whose rules invent nulls would change which nulls exist, so the
/// rewrite declines and the full chase serves the answers.
#[test]
fn existential_deriver_fallback_regression() {
    let text = "person(?X) -> exists ?D dept(?X, ?D).\n\
                dept(?X, ?D) -> hasdept(?X).\n\
                hasdept(a) -> dmout(yes).";
    let engine = Engine::new();
    let before = engine.stats().demand_fallbacks;
    let prepared = engine.prepare(Datalog(text, OUT)).unwrap();
    assert!(!prepared.uses_demand());
    assert!(engine.stats().demand_fallbacks > before);
    let mut session = engine.session();
    session.add_fact("person", &["a"]);
    session.add_fact("person", &["b"]);
    let config = prepared.config();
    let off = full_answers(&prepared, session.database(), config).unwrap();
    let force = rewrite_answers(&prepared, session.database(), config).unwrap();
    assert_eq!(force, off);
    assert_eq!(prepared.execute(&session).unwrap(), off);
    assert!(off.contains(&["yes"]));
}

/// The happy path's counters: a demandable point query under the default
/// `Auto` mode gets a rewrite at prepare time (`demand_rewrites`), its
/// execution chases the rewritten program, and the answers match the
/// full chase of the same plan.
#[test]
fn auto_mode_rewrites_and_counts() {
    let text = "e(?X, ?Y) -> t(?X, ?Y).\n\
                t(?X, ?Z), e(?Z, ?Y) -> t(?X, ?Y).\n\
                t(n0, ?Y) -> dmout(?Y).";
    let engine = Engine::new();
    let prepared = engine.prepare(Datalog(text, OUT)).unwrap();
    assert!(
        prepared.uses_demand(),
        "a bound TC query must get a rewrite"
    );
    assert!(engine.stats().demand_rewrites >= 1);
    assert_ne!(
        prepared.demand_fingerprint(),
        Some(prepared.fingerprint()),
        "the rewritten plan must have its own durable identity"
    );
    let mut session = engine.session();
    // Two components: only n0's is reachable from the query constant.
    for i in 0..6 {
        session.add_fact("e", &[&format!("n{i}"), &format!("n{}", i + 1)]);
        session.add_fact("e", &[&format!("m{i}"), &format!("m{}", i + 1)]);
    }
    let auto = prepared.execute(&session).unwrap();
    let off = full_answers(&prepared, session.database(), prepared.config()).unwrap();
    assert_eq!(auto, off);
    assert_eq!(auto.len(), 6, "n1..n6 are reachable from n0");
}
