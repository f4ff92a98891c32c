//! `adom` read as a constant test, against the literal rule 16.
//!
//! A session serves `τ_owl2ql_core` with `adom` read as "is a constant"
//! instead of chasing rule 16, when no rule library mentions `adom`,
//! `triple1`, `type` or a TBox predicate and no position of `triple` is
//! affected (see "The served regime closure" in `docs/ARCHITECTURE.md`).
//! This suite pins the argument and both branches on random ontologies
//! (`random_ontology`, disjointness included) with meta-modelling
//! triples mixed in:
//!
//! * in the *literal* closure of τ and a library whose rules hold only
//!   constants and derive `triple`, the constants of the `triple1` and
//!   `type` atoms are exactly the `adom` relation;
//! * an engine with that library serves the constant test, and one whose
//!   library has an ∃ rule deriving `triple`, or reads `adom`, keeps
//!   rule 16 in its served text; each answers random basic graph
//!   patterns under J·K^U and J·K^All as the literal program does,
//!   after the build and after a random write;
//! * a raw `type(a, C)` fact naming an `a` no triple holds is outside
//!   §5: the served form counts `a` as in the domain, the literal one
//!   does not.
//!
//! `PROPTEST_CASES` raises the case count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use triq::datalog::ChaseRunner;
use triq::owl2ql::{random_ontology, RandomOntologySpec};
use triq::prelude::*;
use triq::sparql::{GraphPattern, PatternTerm, TriplePattern};
use triq::translate::{decode_tuple_vars, regime_chase_config};

/// `default` cases, or more when the `PROPTEST_CASES` environment
/// variable asks for more.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .map_or(default, |n: u32| n.max(default))
}

/// Rules over `triple` alone that hold only constants: the constant
/// test stays exact.
const CONSTANT_LIBRARY: &str = "triple(?X, knows, ?Y) -> triple(?Y, knows, ?X).\n\
                                triple(?X, rdf:type, ?C) -> triple(?C, hasMember, ?X).";
/// An ∃ rule deriving `triple`: `triple[3]` is affected.
const NULL_LIBRARY: &str = "triple(?X, rdf:type, ?C) -> exists ?Z triple(?X, seenWith, ?Z).";
/// A rule reading `adom`.
const ADOM_LIBRARY: &str = "adom(?X), triple(?X, knows, ?Y) -> triple(?Y, knownBy, ?X).";

/// How a case makes `rdf:type` take part in the TBox, as in
/// `differential_regime_served.rs`.
const META_KINDS: usize = 5;

fn meta_triples(kind: usize) -> Vec<[&'static str; 3]> {
    match kind {
        0 => vec![["prop0", "rdfs:subPropertyOf", "rdf:type"]],
        1 => vec![["prop1", "owl:inverseOf", "rdf:type"]],
        2 => vec![
            ["rdf:type", "rdf:type", "owl:ObjectProperty"],
            ["rdf:type", "rdfs:subPropertyOf", "typeAlias"],
        ],
        3 => vec![
            ["rtype", "rdf:type", "owl:Restriction"],
            ["rtype", "owl:onProperty", "rdf:type"],
            ["rtype", "owl:someValuesFrom", "owl:Thing"],
            ["class0", "rdfs:subClassOf", "rtype"],
        ],
        _ => vec![],
    }
}

fn random_graph(rng: &mut StdRng) -> Graph {
    let ontology = random_ontology(RandomOntologySpec {
        classes: 4,
        properties: 3,
        tbox_axioms: 6,
        abox_assertions: 8,
        allow_disjointness: rng.gen_bool(0.3),
        seed: rng.gen(),
    });
    let mut graph = ontology_to_graph(&ontology);
    for [s, p, o] in meta_triples(rng.gen_range(0..=META_KINDS)) {
        graph.insert_strs(s, p, o);
    }
    let ind = |rng: &mut StdRng| format!("ind{}", rng.gen_range(0..6));
    for _ in 0..3 {
        graph.insert_strs(&ind(rng), "knows", &ind(rng));
    }
    graph
}

fn random_term(rng: &mut StdRng, consts: &[Symbol]) -> PatternTerm {
    match rng.gen_range(0..10) {
        0..=4 => PatternTerm::Var(VarId::new(["A", "B", "C"][rng.gen_range(0..3)])),
        5..=7 => PatternTerm::Const(consts[rng.gen_range(0..consts.len())]),
        _ => PatternTerm::Blank(intern(["B1", "B2"][rng.gen_range(0..2)])),
    }
}

/// A basic graph pattern of one or two triples, whose predicates are
/// mostly constants and often `rdf:type`.
fn random_bgp(rng: &mut StdRng, consts: &[Symbol]) -> GraphPattern {
    GraphPattern::Basic(
        (0..rng.gen_range(1..=2))
            .map(|_| {
                let p = match rng.gen_range(0..10) {
                    0..=3 => PatternTerm::Const(intern("rdf:type")),
                    4..=8 => PatternTerm::Const(consts[rng.gen_range(0..consts.len())]),
                    _ => random_term(rng, consts),
                };
                TriplePattern::new(random_term(rng, consts), p, random_term(rng, consts))
            })
            .collect(),
    )
}

/// The answers of a prepared query's literal program, chased from
/// scratch over the session's facts.
fn literal_answers(query: &PreparedQuery, session: &Session) -> RegimeAnswers {
    let runner = ChaseRunner::new(query.program().clone(), regime_chase_config()).unwrap();
    let outcome = runner.run(session.database()).unwrap();
    match Answers::from_chase(&outcome, query.output()) {
        Answers::Top => RegimeAnswers::Top,
        Answers::Tuples(tuples) => RegimeAnswers::Mappings(
            tuples
                .iter()
                .map(|t| decode_tuple_vars(t, query.vars().unwrap()))
                .collect(),
        ),
    }
}

fn engine_with(library: &str) -> Engine {
    Engine::builder()
        .library(parse_program(library).unwrap())
        .build()
}

/// One case: the argument on the literal closure, then three engines
/// against the literal program.
fn constant_test_is_exact(seed: u64) -> std::result::Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = random_graph(&mut rng);
    let library = parse_program(CONSTANT_LIBRARY).unwrap();
    let literal = ChaseRunner::new(library.union(&tau_owl2ql_core()), regime_chase_config())
        .unwrap()
        .run(&tau_db(&graph))
        .unwrap();
    let constants = |pred: &str| -> BTreeSet<Symbol> {
        literal
            .instance
            .atoms_of(intern(pred))
            .flat_map(|a| a.terms.to_vec())
            .filter_map(|t| match t {
                Term::Const(c) => Some(c),
                _ => None,
            })
            .collect()
    };
    let mut read = constants("triple1");
    read.extend(constants("type"));
    prop_assert_eq!(read, constants("adom"), "consts(triple1, type) = adom");

    let consts: Vec<Symbol> = {
        let mut v: Vec<Symbol> = graph.active_domain().into_iter().collect();
        v.sort();
        v
    };
    let mut patterns = vec![parse_pattern("{ ?A ?B ?C }").unwrap()];
    patterns.extend((0..2).map(|_| random_bgp(&mut rng, &consts)));
    patterns.retain(|p| p.validate().is_ok());
    let write = {
        let t = graph
            .iter()
            .nth(rng.gen_range(0..graph.len()))
            .copied()
            .unwrap();
        let ind = format!("ind{}", rng.gen_range(0..6));
        Delta::new()
            .delete("triple", &[t.s.as_str(), t.p.as_str(), t.o.as_str()])
            .insert(
                "triple",
                &[
                    &ind,
                    "rdf:type",
                    consts[rng.gen_range(0..consts.len())].as_str(),
                ],
            )
    };
    for (text, constant) in [
        (CONSTANT_LIBRARY, true),
        (NULL_LIBRARY, false),
        (ADOM_LIBRARY, false),
    ] {
        let engine = engine_with(text);
        let mut session = engine.load_graph(graph.clone());
        let mut queries = Vec::new();
        for pattern in &patterns {
            for semantics in [Semantics::RegimeU, Semantics::RegimeAll] {
                let query = engine.prepare((pattern, semantics)).unwrap();
                prop_assert_eq!(
                    query.served_text().contains("\n@constant adom.\n"),
                    constant,
                    "the served text of {}",
                    text
                );
                queries.push(query);
            }
        }
        for step in ["the build", "a write"] {
            for query in &queries {
                prop_assert_eq!(
                    query.mappings(&session).unwrap(),
                    literal_answers(query, &session),
                    "{} after {}",
                    text,
                    step
                );
            }
            session.apply_delta(&write);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    #[test]
    fn adom_is_a_constant_test_exactly_where_it_is_served(seed in any::<u64>()) {
        constant_test_is_exact(seed)?;
    }
}

/// A raw `type` fact is outside §5's `τ_db(G)`: its subject is in no
/// triple, so the literal rule 16 keeps it out of `adom` and out of the
/// answers, while the constant test lets it in.
#[test]
fn a_raw_type_fact_outside_every_triple_is_in_the_served_domain_only() {
    let engine = Engine::new();
    let mut session = engine.load_turtle("x rdf:type C .\n").unwrap();
    session.add_fact("type", &["lonely", "C"]);
    let query = engine
        .prepare((
            parse_pattern("{ ?X rdf:type C }").unwrap(),
            Semantics::RegimeU,
        ))
        .unwrap();
    assert!(query.served_text().ends_with("\n@constant adom.\n"));
    let names = |answers: RegimeAnswers| match answers {
        RegimeAnswers::Top => panic!("no constraint fires"),
        RegimeAnswers::Mappings(m) => m
            .iter()
            .map(|mu| mu.get(VarId::new("X")).unwrap().as_str())
            .collect::<BTreeSet<_>>(),
    };
    let served = names(query.mappings(&session).unwrap());
    let literal = names(literal_answers(&query, &session));
    assert_eq!(served, BTreeSet::from(["lonely", "x"]));
    assert_eq!(literal, BTreeSet::from(["x"]));
}
