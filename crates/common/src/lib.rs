//! Shared term model for the TriQ workspace.
//!
//! The paper (§3) assumes pairwise-disjoint infinite countable sets:
//! **U** (URIs / constants), **B** (blank nodes / labeled nulls) and
//! **V** (variables, written with a leading `?`). This crate provides the
//! concrete realization used by every other crate:
//!
//! * [`Symbol`] — an interned constant from **U** (also used for literals,
//!   which the paper folds into URIs; see footnote 5 of the paper),
//! * [`NullId`] — a labeled null from **B**,
//! * [`VarId`] — a variable from **V**,
//! * [`Term`] — the disjoint union of the above,
//! * [`TermId`] — a packed `u32` over the *ground* terms (constants,
//!   literals and nulls), the row element of the columnar relation store.
//!
//! Interning is global and append-only: a [`Symbol`] is a stable `u32` valid
//! for the lifetime of the process, and resolving a symbol to its string is
//! lock-free after interning (strings are leaked into a `&'static str`
//! arena). This makes terms `Copy`, 8 bytes, hashable without touching
//! string data — the representation recommended by the performance guide
//! for database engines.

#![warn(missing_docs)]

pub mod codec;
pub mod deadline;
mod delta;
mod error;
mod interner;
pub mod json;
mod term;
mod termid;

pub use delta::{Delta, Fact};
pub use error::{Result, TriqError};
pub use interner::{intern, interned_strings, resolve, Symbol};
pub use term::{NullId, Term, VarId};
pub use termid::TermId;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_deduplicated() {
        let a = intern("http://example.org/a");
        let b = intern("http://example.org/a");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "http://example.org/a");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        assert_ne!(intern("x"), intern("y"));
    }

    #[test]
    fn term_is_small() {
        assert!(std::mem::size_of::<Term>() <= 8);
    }
}
