//! The §2 `owl:sameAs` rule libraries: [`same_as_regime_library`] for
//! the entailment regimes (install it with
//! [`EngineBuilder::library`](crate::api::EngineBuilder::library)) and
//! [`materialize_same_as`] for plain semantics.

use triq_common::Result;
use triq_datalog::{ChaseConfig, Program};
use triq_owl2ql::tau_db;
use triq_rdf::Graph;

/// The §2 `owl:sameAs` rule library: symmetry, transitivity and
/// substitution in subject/object positions. The library closes `triple1`
/// (the saturated predicate used by the regimes); for plain semantics,
/// materialize the closure into the graph with [`materialize_same_as`]
/// instead.
pub fn same_as_regime_library() -> Program {
    triq_datalog::parse_program(
        "triple1(?X, owl:sameAs, ?Y) -> triple1(?Y, owl:sameAs, ?X).\n\
         triple1(?X, owl:sameAs, ?Y), triple1(?Y, owl:sameAs, ?Z) -> \
            triple1(?X, owl:sameAs, ?Z).\n\
         triple1(?X1, owl:sameAs, ?X2), triple1(?X1, ?U, ?Y) -> triple1(?X2, ?U, ?Y).\n\
         triple1(?X1, owl:sameAs, ?X2), triple1(?Y, ?U, ?X1) -> triple1(?Y, ?U, ?X2).",
    )
    .expect("sameAs library is well-formed")
}

/// The `owl:sameAs` library for plain semantics: closes a `same` relation
/// and rewrites `triple` matches through it into `triple1`… plain mode
/// matches `triple`, so this library *extends* `triple` via an auxiliary
/// predicate is not possible without recursion through the EDB — instead,
/// apply [`materialize_same_as`] to the graph up front.
pub fn materialize_same_as(graph: &Graph) -> Result<Graph> {
    let program = triq_datalog::parse_program(
        "triple(?X, owl:sameAs, ?Y) -> same(?X, ?Y).\n\
         same(?X, ?Y) -> same(?Y, ?X).\n\
         same(?X, ?Y), same(?Y, ?Z) -> same(?X, ?Z).\n\
         triple(?S, ?P, ?O) -> closed(?S, ?P, ?O).\n\
         closed(?S, ?P, ?O), same(?S, ?S2) -> closed(?S2, ?P, ?O).\n\
         closed(?S, ?P, ?O), same(?O, ?O2) -> closed(?S, ?P, ?O2).",
    )
    .expect("sameAs materialization program is well-formed");
    let outcome = triq_datalog::chase(&tau_db(graph), &program, ChaseConfig::default())?;
    let mut out = graph.clone();
    for atom in outcome.instance.atoms_of(triq_common::intern("closed")) {
        if let (Some(s), Some(p), Some(o)) = (
            atom.terms[0].as_const(),
            atom.terms[1].as_const(),
            atom.terms[2].as_const(),
        ) {
            out.insert(triq_rdf::Triple::new(s, p, o));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Engine, Semantics};
    use triq_rdf::parse_turtle;
    use triq_sparql::parse_pattern;

    const G4: &str = "dbUllman is_author_of \"The Complete Book\" .\n\
                      dbUllman owl:sameAs yagoUllman .\n\
                      yagoUllman name \"Jeffrey Ullman\" .";
    const AUTHORS: &str = "{ ?Y is_author_of ?Z . ?Y name ?X }";

    /// §2's G4: retrieving authors through owl:sameAs.
    #[test]
    fn g4_same_as_materialization() {
        let g4 = parse_turtle(G4).unwrap();
        let engine = Engine::new();
        let authors = engine.prepare(parse_pattern(AUTHORS).unwrap()).unwrap();
        // Without the library: empty (as §2 observes).
        let session = engine.load_graph(g4.clone());
        assert!(authors.bindings_of(&session, "X").unwrap().is_empty());
        // With materialized sameAs closure: Ullman is found.
        let session = engine.load_graph(materialize_same_as(&g4).unwrap());
        let names = authors.bindings_of(&session, "X").unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].as_str(), "Jeffrey Ullman");
    }

    /// The same effect via the regime library on triple1.
    #[test]
    fn g4_same_as_regime_library() {
        let engine = Engine::builder().library(same_as_regime_library()).build();
        let session = engine.load_graph(parse_turtle(G4).unwrap());
        let authors = engine
            .prepare((parse_pattern(AUTHORS).unwrap(), Semantics::RegimeU))
            .unwrap();
        let names = authors.bindings_of(&session, "X").unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].as_str(), "Jeffrey Ullman");
    }
}
