//! SPARQL → Datalog translations (§5 of the paper):
//!
//! * [`translate_pattern`] — the plain translation `P_dat = (τ_bgp(P) ∪
//!   τ_opr(P) ∪ τ_out(P), answer_P)` of Theorem 5.2, evaluating graph
//!   patterns over `τ_db(G)`;
//! * [`translate_pattern_u`] — `P^U_dat` (Theorem 5.3): the OWL 2 QL core
//!   direct-semantics entailment regime, obtained by routing basic graph
//!   patterns through `triple1` with active-domain guards and prepending
//!   the fixed program `τ_owl2ql_core`;
//! * [`translate_pattern_all`] — `P^All_dat` (§5.3): the same without the
//!   active-domain restriction on blank nodes.
//!
//! Unbound variables in answers (from `OPT`/`UNION`) are represented by
//! the special constant ⋆ ([`star`]); [`decode_answers`] converts answer
//! tuples back into SPARQL mappings, realizing the correspondence
//! `J(P_dat, τ_db(G))K` of §5.1.

mod answers;
mod dnf;
mod translator;

pub use answers::{decode_answers, decode_tuple, decode_tuple_vars, RegimeAnswers};
pub use dnf::compile_condition;
pub use translator::{
    regime_chase_config, star, translate_pattern, translate_pattern_all, translate_pattern_u, Mode,
    TranslatedPattern,
};
