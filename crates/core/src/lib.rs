//! # TriQ — expressive languages for querying the Semantic Web
//!
//! A from-scratch Rust implementation of
//! *Expressive Languages for Querying the Semantic Web* (Arenas, Gottlob,
//! Pieris; PODS 2014 / ACM TODS 2018): the query languages **TriQ 1.0**
//! (weakly-frontier-guarded Datalog∃,¬s,⊥) and **TriQ-Lite 1.0** (warded
//! Datalog∃,¬sg,⊥), the SPARQL → Datalog translations of §5 including the
//! OWL 2 QL core direct-semantics entailment regime, and every substrate
//! they need: an RDF store, a SPARQL algebra engine, a Datalog∃,¬s,⊥
//! chase engine with proof trees and the §6.3 `ProofTree` decision
//! procedure, and an OWL 2 QL core ontology layer.
//!
//! ## Quick start
//!
//! Everything goes through one lifecycle: build an [`Engine`], **prepare**
//! a query once (parse → translate → classify → stratify → compile), open
//! a [`Session`] per dataset, and **execute** the prepared query as often
//! as you like — against any number of sessions. Execution runs on a
//! columnar, fully interned chase engine (see `docs/ARCHITECTURE.md` at
//! the repository root for the crate layering, the `TermId` interning
//! boundary and the chase data flow).
//!
//! ```
//! use triq::prelude::*;
//!
//! let engine = Engine::new();
//!
//! // An RDF graph (§2 of the paper) loaded into a session; τ_db runs once.
//! let session = engine.load_turtle(
//!     "dbUllman is_author_of \"The Complete Book\" .\n\
//!      dbUllman name \"Jeffrey Ullman\" .",
//! )?;
//!
//! // Prepare a SPARQL query…
//! let authors = engine.prepare(Sparql(
//!     "SELECT ?X WHERE { ?Y is_author_of ?Z . ?Y name ?X }",
//! ))?;
//! assert_eq!(authors.bindings_of(&session, "X")?[0].as_str(), "Jeffrey Ullman");
//!
//! // …or a TriQ-Lite 1.0 rule program over triple(·,·,·) — same session,
//! // same engine, prepared once and reusable across sessions.
//! let rules = engine.prepare(Datalog(
//!     "triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> query(?X).",
//!     "query",
//! ))?;
//! assert!(rules.execute(&session)?.contains(&["Jeffrey Ullman"]));
//!
//! // Large result sets can stream instead of materializing:
//! assert_eq!(rules.execute_iter(&session)?.count(), 1);
//! # Ok::<(), TriqError>(())
//! ```
//!
//! Sessions are **live**: inserting or removing facts does not discard
//! the materialization. Each prepared query's chase fixpoint is
//! maintained incrementally — insertions resume the semi-naive chase
//! from the new facts, deletions use delete-and-rederive (DRed) over
//! the recorded provenance — so a mutation costs work proportional to
//! the change, not to the dataset ([`Session::invalidate`] remains the
//! explicit full-rebuild escape hatch):
//!
//! ```
//! use triq::prelude::*;
//!
//! let engine = Engine::new();
//! let reach = engine.prepare(Datalog(
//!     "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
//!      t(?X, ?Y) -> query(?X, ?Y).",
//!     "query",
//! ))?;
//! let mut session = engine.session();
//! session.add_fact("e", &["a", "b"]);
//! session.add_fact("e", &["b", "c"]);
//! assert!(reach.execute(&session)?.contains(&["a", "c"]));
//!
//! // Live updates: absorbed by the maintained view, no re-chase.
//! session.add_fact("e", &["c", "d"]);
//! assert!(reach.execute(&session)?.contains(&["a", "d"]));
//! session.remove_fact("e", &["b", "c"]);
//! assert!(!reach.execute(&session)?.contains(&["a", "d"]));
//! assert!(engine.stats().deltas_applied >= 2);
//! // The chase's join reports through the same counters: candidate
//! // tuples probed, and rows screened by the vectorized column kernels
//! // (see the "Join order" section of docs/ARCHITECTURE.md). A db this
//! // tiny never fills a kernel scan, so that one does not tick yet.
//! let stats = engine.stats();
//! assert!(stats.join_probes > 0);
//! let _ = stats.kernel_filter_rows;
//! # Ok::<(), TriqError>(())
//! ```
//!
//! SPARQL queries evaluate under any of the three semantics of §3.1 /
//! §5.2 / §5.3 — pass a [`Semantics`] when preparing, or set an
//! engine-wide default via [`EngineBuilder::default_semantics`]:
//!
//! ```
//! use triq::prelude::*;
//!
//! let engine = Engine::new();
//! let pattern = parse_pattern("{ ?X eats _:B }")?;
//! let q = engine.prepare((pattern, Semantics::RegimeAll))?;
//! # Ok::<(), TriqError>(())
//! ```
//!
//! The crate-level types [`TriqQuery`] and [`TriqLiteQuery`] enforce the
//! paper's language membership (Definition 4.2 / Definition 6.1) at
//! construction time and plug into [`Engine::prepare`] like every other
//! query form.
//!
//! For concurrent serving, [`Session::into_shared`] yields a
//! [`SharedSession`]: N reader threads execute lock-free against
//! atomically published fixpoint snapshots while a single writer
//! applies deltas (snapshot isolation — see the "Serving layer" section
//! of `docs/ARCHITECTURE.md`). The HTTP service built on it lives in
//! the `triq-server` crate, together with the `triq-cli` binary
//! (`triq-cli serve`, wire format in `docs/PROTOCOL.md`).

pub mod api;
pub mod engine;
pub mod persist;
mod triq_lang;

pub use api::{
    AppliedDelta, Datalog, Engine, EngineBuilder, EngineStats, IntoQuery, PreparedQuery, QuerySpec,
    Semantics, Session, SessionSnapshot, SharedSession, Sparql,
};
pub use triq_lang::{TriqLiteQuery, TriqQuery};

/// Re-export: shared term model.
pub use triq_common as common;
/// Re-export: Datalog∃,¬s,⊥ engine.
pub use triq_datalog as datalog;
/// Re-export: observability (recorder trait, telemetry, Prometheus
/// exposition).
pub use triq_obs as obs;
/// Re-export: OWL 2 QL core ontology layer.
pub use triq_owl2ql as owl2ql;
/// Re-export: RDF substrate.
pub use triq_rdf as rdf;
/// Re-export: SPARQL algebra.
pub use triq_sparql as sparql;
/// Re-export: SPARQL → Datalog translations.
pub use triq_translate as translate;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::api::{
        AppliedDelta, Datalog, Engine, EngineBuilder, EngineStats, IntoQuery, PreparedQuery,
        QuerySpec, Semantics, Session, SessionSnapshot, SharedSession, Sparql,
    };
    pub use crate::{TriqLiteQuery, TriqQuery};
    pub use triq_common::json::Json;
    pub use triq_common::{intern, Delta, Fact, NullId, Symbol, Term, TriqError, VarId};
    pub use triq_datalog::{
        classify_program, parse_atom, parse_program, parse_query, AnswerIter, Answers, ChaseConfig,
        ChaseRunner, Database, DemandFallback, ExistentialStrategy, MaterializedView, Program,
        Query,
    };
    pub use triq_owl2ql::{
        ontology_from_graph, ontology_to_graph, parse_functional, tau_db, tau_owl2ql_core,
        tau_owl2ql_unions, Axiom, BasicClass, BasicProperty, EntailmentOracle, Ontology,
    };
    pub use triq_rdf::{parse_turtle, parse_turtle_parallel, to_turtle, Graph, Triple};
    pub use triq_sparql::{
        evaluate as evaluate_sparql, parse_construct, parse_pattern, parse_select,
    };
    pub use triq_translate::{
        translate_pattern, translate_pattern_all, translate_pattern_u, RegimeAnswers,
    };
}
