//! The served regime closure against the literal one.
//!
//! A session serves `τ_owl2ql_core` through its union reads
//! (`tau_owl2ql_unions`): `triple1` atoms read `triple`, `type` as
//! `triple1(x, rdf:type, y)` and `triple1`'s own rows, and the two copy
//! rules are never chased. This suite checks that the served form gives
//! the literal program's answers and ⊤, under J·K^U and J·K^All, on
//! random ontologies (`random_ontology`, disjointness included) with
//! meta-modelling triples mixed in — a property that is a sub-property
//! or an inverse of `rdf:type`, `rdf:type` declared a property with a
//! super-property, or an existential restriction on `rdf:type` — and
//! basic graph patterns: `{ ?A ?B ?C }`, which reads every constant
//! `triple1` tuple, and random ones over variables, blank nodes and the
//! graph's constants. The random writes insert new assertions and
//! triples the closure derives but the graph lacks, and delete triples
//! of the graph — those derived ones included — so a source of the
//! union may hold a tuple a rule derives too and then lose it.
//!
//! Three evaluations are compared after the build and after every
//! random insert and delete of triples:
//!
//! * the literal translated program, maintained as one view;
//! * the same program served with its unions, maintained as one view;
//! * the engine facade, which stacks the pattern's rules on its served
//!   regime view.
//!
//! `PROPTEST_CASES` raises the case count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triq::datalog::{ChaseRunner, MaterializedView};
use triq::owl2ql::{random_ontology, RandomOntologySpec};
use triq::prelude::*;
use triq::sparql::{GraphPattern, PatternTerm, TriplePattern};
use triq::translate::{decode_tuple_vars, regime_chase_config, TranslatedPattern};

/// `default` cases, or more when the `PROPTEST_CASES` environment
/// variable asks for more.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .map_or(default, |n: u32| n.max(default))
}

const VARS: &[&str] = &["A", "B", "C"];

/// How a case makes `rdf:type` take part in the TBox: the served form
/// must keep the literal program's behaviour for each. One kind per
/// case, so that no two of them close a cycle of sub-properties through
/// `rdf:type`, and `rdf:type`'s super-property is one no restriction
/// names: either would make every class declaration an assertion
/// between individuals, whose existential chains grow a closure of
/// 60 triples past 700,000 atoms.
const META_KINDS: usize = 5;

fn meta_triples(kind: usize) -> Vec<[String; 3]> {
    let t = |s: &str, p: &str, o: &str| [s.to_string(), p.to_string(), o.to_string()];
    match kind {
        0 => vec![t("prop0", "rdfs:subPropertyOf", "rdf:type")],
        1 => vec![t("prop1", "owl:inverseOf", "rdf:type")],
        2 => vec![
            t("rdf:type", "rdf:type", "owl:ObjectProperty"),
            t("rdf:type", "rdfs:subPropertyOf", "typeAlias"),
        ],
        3 => vec![
            t("rtype", "rdf:type", "owl:Restriction"),
            t("rtype", "owl:onProperty", "rdf:type"),
            t("rtype", "owl:someValuesFrom", "owl:Thing"),
            t("class0", "rdfs:subClassOf", "rtype"),
        ],
        _ => vec![],
    }
}

fn random_graph(rng: &mut StdRng, meta: usize) -> Graph {
    let ontology = random_ontology(RandomOntologySpec {
        classes: 4,
        properties: 3,
        tbox_axioms: 6,
        abox_assertions: 8,
        allow_disjointness: rng.gen_bool(0.3),
        seed: rng.gen(),
    });
    let mut graph = ontology_to_graph(&ontology);
    for [s, p, o] in meta_triples(meta) {
        graph.insert_strs(&s, &p, &o);
    }
    graph
}

fn random_term(rng: &mut StdRng, consts: &[Symbol]) -> PatternTerm {
    match rng.gen_range(0..10) {
        0..=4 => PatternTerm::Var(VarId::new(VARS[rng.gen_range(0..VARS.len())])),
        5..=7 => PatternTerm::Const(consts[rng.gen_range(0..consts.len())]),
        _ => PatternTerm::Blank(intern(["B1", "B2"][rng.gen_range(0..2)])),
    }
}

/// A basic graph pattern of one to three triples, whose predicates are
/// mostly constants and often `rdf:type`.
fn random_bgp(rng: &mut StdRng, consts: &[Symbol]) -> GraphPattern {
    let n = rng.gen_range(1..=3);
    GraphPattern::Basic(
        (0..n)
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

/// A triple to insert: an assertion about a possibly new individual, or
/// one of the case's meta-modelling triples.
fn random_triple(rng: &mut StdRng, consts: &[Symbol], meta: usize) -> [String; 3] {
    let ind = |rng: &mut StdRng| format!("ind{}", rng.gen_range(0..12));
    let pick = |rng: &mut StdRng| consts[rng.gen_range(0..consts.len())].to_string();
    match rng.gen_range(0..10) {
        0..=3 => [ind(rng), "rdf:type".into(), pick(rng)],
        4..=7 => [ind(rng), pick(rng), ind(rng)],
        _ => {
            let mut triples = meta_triples(meta);
            match triples.len() {
                0 => [ind(rng), "rdf:type".into(), pick(rng)],
                n => triples.swap_remove(rng.gen_range(0..n)),
            }
        }
    }
}

/// A batch of one to three triples to insert or delete; deletes favour
/// triples the graph holds, the TBox's included.
///
/// Some inserts are triples the closure derives but the graph does not
/// hold (`derived`): the union's `triple` source then holds a tuple a
/// rule derives too, and such a triple is deleted again later
/// (`shadowing`), which must leave the tuple derived.
fn random_delta(
    rng: &mut StdRng,
    graph: &Graph,
    consts: &[Symbol],
    meta: usize,
    derived: &[[String; 3]],
    shadowing: &mut Vec<[String; 3]>,
) -> Vec<(bool, [String; 3])> {
    let present: Vec<Triple> = graph.iter().copied().collect();
    (0..rng.gen_range(1..=3))
        .map(|_| match rng.gen_range(0..10) {
            0..=3 if !present.is_empty() => {
                let t = &present[rng.gen_range(0..present.len())];
                (false, [t.s.to_string(), t.p.to_string(), t.o.to_string()])
            }
            4..=5 if !shadowing.is_empty() => {
                let i = rng.gen_range(0..shadowing.len());
                (false, shadowing.swap_remove(i))
            }
            6..=7 if !derived.is_empty() => {
                let t = derived[rng.gen_range(0..derived.len())].clone();
                shadowing.push(t.clone());
                (true, t)
            }
            _ => (true, random_triple(rng, consts, meta)),
        })
        .collect()
}

/// The constant `triple1` tuples of a literal closure that `graph` does
/// not hold, as triples.
fn derived_triples(view: &MaterializedView, graph: &Graph) -> Vec<[String; 3]> {
    view.instance()
        .atoms_of(intern("triple1"))
        .filter_map(|a| match a.terms[..] {
            [Term::Const(s), Term::Const(p), Term::Const(o)] => Some(Triple { s, p, o }),
            _ => None,
        })
        .filter(|t| !graph.contains(t))
        .map(|t| [t.s.to_string(), t.p.to_string(), t.o.to_string()])
        .collect()
}

/// The answers a maintained view of a translated program holds.
fn answers(view: &MaterializedView, t: &TranslatedPattern) -> RegimeAnswers {
    match Answers::from_chase(view.outcome(), t.answer_pred) {
        Answers::Top => RegimeAnswers::Top,
        Answers::Tuples(tuples) => RegimeAnswers::Mappings(
            tuples
                .iter()
                .map(|tuple| decode_tuple_vars(tuple, &t.vars))
                .collect(),
        ),
    }
}

/// One pattern under one semantics, evaluated three ways over a graph
/// that a delta sequence keeps changing.
struct Evaluations {
    translated: TranslatedPattern,
    literal: MaterializedView,
    served: MaterializedView,
    prepared: PreparedQuery,
}

impl Evaluations {
    fn new(engine: &Engine, pattern: &GraphPattern, semantics: Semantics, graph: &Graph) -> Self {
        let translated = match semantics {
            Semantics::RegimeU => translate_pattern_u(pattern),
            _ => translate_pattern_all(pattern),
        }
        .unwrap();
        let config = regime_chase_config();
        let literal = ChaseRunner::new(translated.program.clone(), config).unwrap();
        let served =
            ChaseRunner::with_unions(translated.program.clone(), translated.unions(), config)
                .unwrap();
        Evaluations {
            literal: MaterializedView::new(literal, tau_db(graph)).unwrap(),
            served: MaterializedView::new(served, tau_db(graph)).unwrap(),
            prepared: engine.prepare((pattern, semantics)).unwrap(),
            translated,
        }
    }

    fn apply(&mut self, delta: &Delta) {
        self.literal.apply(delta).unwrap();
        self.served.apply(delta).unwrap();
    }

    fn check(&self, session: &Session, what: &str) -> std::result::Result<(), TestCaseError> {
        let want = answers(&self.literal, &self.translated);
        prop_assert_eq!(
            &answers(&self.served, &self.translated),
            &want,
            "served view {}",
            what
        );
        prop_assert_eq!(
            &self.prepared.mappings(session).unwrap(),
            &want,
            "facade {}",
            what
        );
        Ok(())
    }
}

/// One case: a random graph, the pattern matching every triple and two
/// random patterns under both regime semantics, then four random
/// deltas.
fn served_matches_literal(seed: u64) -> std::result::Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let meta = rng.gen_range(0..=META_KINDS);
    let mut graph = random_graph(&mut rng, meta);
    let consts: Vec<Symbol> = {
        let mut v: Vec<Symbol> = graph.active_domain().into_iter().collect();
        v.sort();
        v
    };
    let engine = Engine::new();
    let mut session = engine.load_graph(graph.clone());
    // Every triple the closure holds, then two random patterns.
    let mut patterns = vec![parse_pattern("{ ?A ?B ?C }").unwrap()];
    patterns.extend((0..2).map(|_| random_bgp(&mut rng, &consts)));
    let mut evaluations: Vec<Evaluations> = Vec::new();
    for pattern in patterns.iter().filter(|p| p.validate().is_ok()) {
        for semantics in [Semantics::RegimeU, Semantics::RegimeAll] {
            evaluations.push(Evaluations::new(&engine, pattern, semantics, &graph));
        }
    }
    for e in &evaluations {
        e.check(&session, "after the build")?;
    }
    let mut shadowing = Vec::new();
    for step in 0..4 {
        let derived = derived_triples(&evaluations[0].literal, &graph);
        let ops = random_delta(&mut rng, &graph, &consts, meta, &derived, &mut shadowing);
        // One batch everywhere: its deletes apply before its inserts.
        let mut delta = Delta::new();
        for (insert, [s, p, o]) in &ops {
            delta = match insert {
                true => delta.insert("triple", &[s, p, o]),
                false => delta.delete("triple", &[s, p, o]),
            };
        }
        session.apply_delta(&delta);
        for (_, [s, p, o]) in ops.iter().filter(|(insert, _)| !insert) {
            graph.remove_strs(s, p, o);
        }
        for (_, [s, p, o]) in ops.iter().filter(|(insert, _)| *insert) {
            graph.insert_strs(s, p, o);
        }
        for e in &mut evaluations {
            e.apply(&delta);
            e.check(&session, &format!("after delta {step}: {ops:?}"))?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    #[test]
    fn the_served_closure_answers_like_the_literal_program(seed in any::<u64>()) {
        served_matches_literal(seed)?;
    }
}
