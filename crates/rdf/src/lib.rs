//! RDF substrate: triples, an indexed graph store, a Turtle-lite
//! parser/writer and synthetic workload generators.
//!
//! Per §3.1 of the paper, an *RDF triple* is an element of U × U × U and an
//! *RDF graph* is a finite set of RDF triples (blank nodes and literals are
//! folded into U; see footnote 5 of the paper). [`Graph`] is the concrete
//! store used by the SPARQL evaluator and by the `triple(·,·,·)` database
//! bridge into the Datalog engine (the paper's τ_db, §5.1).

mod generator;
mod graph;
mod parser;
pub mod vocab;
mod writer;

pub use generator::{
    chain_ontology_graph, random_graph, transport_graph, university_graph, TransportSpec,
    UniversitySpec,
};
pub use graph::{Graph, Triple};
pub use parser::{parse_turtle, parse_turtle_parallel};
pub use writer::to_turtle;

pub use triq_common::{intern, Symbol};
