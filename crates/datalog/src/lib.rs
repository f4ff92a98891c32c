//! Datalog∃,¬s,⊥ — the rule language underlying TriQ 1.0 and TriQ-Lite 1.0
//! (§3.2, §4, §6 of the paper).
//!
//! This crate implements, from scratch:
//!
//! * the syntax of Datalog with existential quantification in rule heads,
//!   stratified negation, built-in (in)equality and constraints (⊥), with a
//!   text parser whose concrete syntax mirrors the paper's rules;
//! * stratification (§3.2) and the stratified chase pipeline
//!   `S₀, …, S_ℓ`;
//! * the *affected positions* analysis and the harmless / harmful /
//!   dangerous variable classification (§4.1);
//! * deciders for every language class the paper discusses: guarded,
//!   weakly-guarded, frontier-guarded, nearly-frontier-guarded,
//!   weakly-frontier-guarded (TriQ 1.0), warded (TriQ-Lite 1.0) and warded
//!   with minimal interaction (§6.4), plus the grounded-negation check;
//! * chase procedures with provenance: a skolem (semi-oblivious) chase with
//!   null-depth bounding and a restricted chase, both with step budgets;
//! * proof trees in the sense of Definition 6.11 (Figure 1) and the
//!   alternating `ProofTree` decision procedure of §6.3, realized as a
//!   memoized least fixpoint;
//! * the paper's example programs: the k-clique query of Example 4.3, the
//!   alternating-Turing-machine program of Theorem 6.15 (together with a
//!   direct ATM simulator used for cross-validation), the UGCP
//!   instrumentation of §6.2 and the program-expressive-power witness of
//!   Theorem 7.1.

#![warn(missing_docs)]

pub mod atm;
mod atom;
pub mod builders;
mod chase;
mod classify;
pub mod demand;
mod eval;
pub mod incremental;
mod instance;
pub mod kernels;
mod parser;
pub mod pep;
pub mod persist;
mod positions;
mod program;
mod proof;
mod prooftree;
pub mod reference;
mod stratify;
pub mod transform;
pub mod ugcp;

pub use atom::{Atom, Builtin};
pub use chase::{
    chase, chase_stratified, ChaseConfig, ChaseOutcome, ChaseRunner, ChaseStats,
    ExistentialStrategy,
};
pub use classify::{
    classify_program, rule_variable_classes, LanguageClass, ProgramClassification, RuleClasses,
};
pub use demand::{DemandFallback, DemandProgram};
pub use eval::{AnswerIter, Answers, Query};
pub use incremental::{DeltaSummary, MaintenanceStats, MaterializedView, RebuildReason};
pub use instance::{
    AtomId, Database, Derivation, GroundAtom, Instance, InstanceMark, Relation, Renumbering,
};
pub use parser::{parse_atom, parse_program, parse_query, parse_served};
pub use positions::{affected_positions, Pos, PositionSet};
pub use program::{Constraint, Fixed, Program, Rule, Union, Unions};
pub use proof::{proof_tree, render_proof_tree, DependencyIndex, ProofNode, ProofTree};
pub use prooftree::{
    eliminate_negation, prooftree_decide, prooftree_decide_with_negation, single_head_normal_form,
    ProofTreeConfig,
};
pub use stratify::{stratify, stratify_run_count, Stratification};

pub use triq_common::{
    intern, Delta, Fact, NullId, Result, Symbol, Term, TermId, TriqError, VarId,
};
