//! OWL 2 QL core — the DL-Lite_R fragment of §5.2 — as a concrete
//! ontology layer: axioms, the Table 1 RDF representation (both
//! directions), the fixed Datalog∃,¬s,⊥ program `τ_owl2ql_core` encoding
//! the direct-semantics entailment regime, and an entailment/consistency
//! oracle built on the chase.

mod entailment;
mod functional_syntax;
mod generator;
mod ontology;
mod rdf_mapping;
mod rules;

pub use entailment::{entails, is_consistent, saturate, EntailmentOracle};
pub use functional_syntax::parse_functional;
pub use generator::{chain_ontology, random_ontology, university_ontology, RandomOntologySpec};
pub use ontology::{Axiom, BasicClass, BasicProperty, Ontology};
pub use rdf_mapping::{
    basic_class_uri, basic_property_uri, ontology_from_graph, ontology_to_graph,
};
pub use rules::{adom_pred, tau_db, tau_owl2ql_core, tau_owl2ql_unions, triple1_pred};
