//! Differential testing of layered plans: random graphs with ontology
//! axioms, random SPARQL patterns under plain / J·K^U / J·K^All and
//! random Datalog queries, over engines with random rule libraries —
//! followed by random insert/delete sequences. After every step, the
//! answers the facade maintains (⊤ included) must equal
//! `ChaseRunner::run` of the plan's whole program from scratch.
//!
//! The libraries include negation and a rule that feeds `triple`, and
//! some queries derive `triple` themselves, so both kinds of plans
//! occur: layered ones (a layer of the query's own rules stacked on one
//! shared view of the engine's fixed rules — the libraries, plus
//! `τ_owl2ql_core` under a regime) and monolithic ones (a query that
//! derives a predicate the fixed rules mention is chased whole).
//!
//! What this pins is answers and ⊤. The AtomIds of a layered plan are
//! no longer those of the monolithic chase — its rows live in its own
//! layer, numbered there, and its provenance names atoms of the shared
//! base — so no id or provenance is compared here
//! (`differential_incremental.rs` pins those for single views).

mod common;

use common::random_graph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triq::datalog::{ChaseRunner, GroundAtom};
use triq::prelude::*;

/// Rule libraries an engine may carry: one feeding `triple`, one with
/// negation, one deriving a predicate queries read.
const LIBRARIES: [&str; 3] = [
    "triple(?X, e1, ?Y) -> triple(?Y, e2, ?X).",
    "triple(?X, rdf:type, C1), !triple(?X, rdf:type, C2) -> only_c1(?X).",
    "triple(?X, e1, ?Y), triple(?Y, e1, ?Z) -> triple(?X, e1_2, ?Z).\n\
     triple(?X, rdf:type, C2) -> typed(?X).",
];

const PATTERNS: [&str; 6] = [
    "{ ?X rdf:type C2 }",
    "{ ?X e2 ?Y }",
    "{ ?X e1 ?Y . ?Y rdf:type C1 }",
    "{ ?X rdf:type C1 } OPTIONAL { ?X e1 ?Y }",
    "{ ?X e1 ?Y } UNION { ?X e1_2 ?Y }",
    "{ ?X e1 _:B }",
];

/// Datalog queries `(program, output)`: layered over any library, one
/// with negation over the base, one deriving `triple` (monolithic
/// whenever the fixed rules mention it), one inventing nulls in its own
/// layer, and one served by the base view itself.
const DATALOG: [(&str, &str); 5] = [
    ("triple(?X, e1, ?Y) -> out(?X, ?Y).", "out"),
    (
        "triple(?X, rdf:type, C1), !triple(?X, rdf:type, C2) -> out(?X).\n\
         typed(?X) -> out(?X).",
        "out",
    ),
    (
        "triple(?X, e2, ?Y) -> triple(?Y, e1, ?X).\n triple(?X, e1, ?Y) -> out(?X).",
        "out",
    ),
    (
        "triple(?X, e1, ?Y) -> exists ?Z w(?X, ?Z).\n\
         w(?X, ?Z), !only_c1(?X) -> out(?X).",
        "out",
    ),
    ("", "only_c1"),
];

fn random_query(rng: &mut StdRng, engine: &Engine) -> PreparedQuery {
    if rng.gen_bool(0.3) {
        let (program, output) = DATALOG[rng.gen_range(0..DATALOG.len())];
        return engine.prepare(Datalog(program, output)).unwrap();
    }
    let pattern = parse_pattern(PATTERNS[rng.gen_range(0..PATTERNS.len())]).unwrap();
    let semantics = [Semantics::Plain, Semantics::RegimeU, Semantics::RegimeAll];
    engine
        .prepare((pattern, semantics[rng.gen_range(0..3)]))
        .unwrap()
}

/// A random mutation batch of 1–3 triples, deletions biased toward
/// triples that are present.
fn random_delta(rng: &mut StdRng, db: &Database) -> Delta {
    let entities = ["ind_a", "ind_b", "ind_c"];
    let mut delta = Delta::new();
    for _ in 0..rng.gen_range(1..4) {
        let present: Vec<GroundAtom> = db.iter().collect();
        if rng.gen_bool(0.45) && !present.is_empty() {
            let atom = &present[rng.gen_range(0..present.len())];
            let args: Vec<Symbol> = atom.terms.iter().filter_map(|t| t.as_const()).collect();
            delta.add_delete(Fact::new(atom.pred, args));
            continue;
        }
        let s = entities[rng.gen_range(0..3)];
        let (p, o) = if rng.gen_bool(0.4) {
            ("rdf:type", ["C1", "C2"][rng.gen_range(0..2)])
        } else {
            (
                ["e1", "e2"][rng.gen_range(0..2)],
                entities[rng.gen_range(0..3)],
            )
        };
        delta = delta.insert("triple", &[s, p, o]);
    }
    delta
}

/// The plan's whole program chased from scratch over `db`.
fn scratch(q: &PreparedQuery, db: &Database) -> Answers {
    let outcome = ChaseRunner::new(q.program().clone(), q.config())
        .unwrap()
        .run(db)
        .unwrap();
    Answers::from_chase(&outcome, q.output())
}

fn drive(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = Engine::builder();
    for lib in LIBRARIES {
        if rng.gen_bool(0.4) {
            builder = builder.library(parse_program(lib).unwrap());
        }
    }
    let engine = builder.build();
    let queries: Vec<PreparedQuery> = (0..rng.gen_range(2..5))
        .map(|_| random_query(&mut rng, &engine))
        .collect();
    // Half the cases maintain through the published snapshots of a
    // shared session, half through a plain one.
    let mut live = Live::new(engine.load_graph(random_graph(&mut rng)), seed % 2 == 1);
    for step in 0..6 {
        let db = live.database();
        for q in &queries {
            assert_eq!(
                live.execute(q),
                scratch(q, &db),
                "seed {seed}, step {step}, query {q:?}:\n{}",
                q.program()
            );
        }
        live.apply(&random_delta(&mut rng, &db));
    }
}

/// A session maintained directly or behind a [`SharedSession`].
enum Live {
    Plain(Box<Session>),
    Shared(SharedSession),
}

impl Live {
    fn new(session: Session, shared: bool) -> Live {
        match shared {
            true => Live::Shared(session.into_shared()),
            false => Live::Plain(Box::new(session)),
        }
    }

    fn database(&self) -> Database {
        match self {
            Live::Plain(s) => s.database().clone(),
            Live::Shared(s) => s.with_writer(|s| s.database().clone()),
        }
    }

    fn execute(&self, q: &PreparedQuery) -> Answers {
        match self {
            Live::Plain(s) => q.execute(s).unwrap(),
            Live::Shared(s) => s.execute(q).unwrap(),
        }
    }

    fn apply(&mut self, delta: &Delta) {
        match self {
            Live::Plain(s) => {
                s.apply_delta(delta);
            }
            Live::Shared(s) => {
                s.apply(delta);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn maintained_layered_and_monolithic_plans_match_the_whole_chase(seed in any::<u64>()) {
        drive(seed);
    }
}
