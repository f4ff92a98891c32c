//! SPARQL graph patterns with the algebraic semantics of Pérez et al.
//! (§3.1 of the paper): basic graph patterns, `AND`, `UNION`, `OPT`,
//! `FILTER` and `SELECT`, evaluated over [`triq_rdf::Graph`]s to sets of
//! mappings, plus `SELECT` / `CONSTRUCT` query wrappers and a parser for a
//! SPARQL-style concrete syntax.

mod algebra;
mod condition;
mod eval;
mod mapping;
mod parser;
pub mod paths;
mod query;

pub use algebra::{GraphPattern, PatternTerm, TriplePattern};
pub use condition::Condition;
pub use eval::evaluate;
pub use mapping::{join, left_outer_join, minus, union, Mapping, MappingSet};
pub use parser::{parse_construct, parse_pattern, parse_select, MAX_NESTING};
pub use paths::{parse_path, PropertyPath};
pub use query::{ConstructQuery, SelectQuery};

pub use triq_common::{Symbol, VarId};
