//! Mutation batches for incremental maintenance.
//!
//! A [`Delta`] describes a change to the *extensional* data (database
//! facts / RDF triples bridged through `τ_db`) as two fact lists. It is
//! deliberately defined here in `triq-common` — below the rule and store
//! layers — so the facade (`triq::Session`), the incremental subsystem
//! (`triq_datalog::incremental`) and tooling (`triq-cli update`) all
//! speak the same type without depending on each other.

use crate::{intern, Symbol};
use std::collections::HashMap;
use std::fmt;

/// A ground fact over constants only: `pred(args…)`. This is the unit of
/// extensional change — labeled nulls and variables never appear in a
/// delta (they exist only inside materialized instances).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Fact {
    /// The predicate.
    pub pred: Symbol,
    /// The constant argument tuple.
    pub args: Vec<Symbol>,
}

impl Fact {
    /// Builds a fact from already-interned symbols.
    pub fn new(pred: Symbol, args: Vec<Symbol>) -> Fact {
        Fact { pred, args }
    }

    /// Interns strings into a fact.
    pub fn from_strs(pred: &str, args: &[&str]) -> Fact {
        Fact {
            pred: intern(pred),
            args: args.iter().map(|a| intern(a)).collect(),
        }
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(")")
    }
}

/// A batch of extensional insertions and deletions, applied atomically by
/// the incremental maintenance machinery.
///
/// Facts listed in `deletes` are removed **before** `inserts` are added,
/// so a fact appearing in both lists ends up present. Inserting a fact
/// that is already stored and deleting one that is absent are both
/// no-ops — a delta describes the *target* change, not a transition that
/// must be exactly realizable.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Delta {
    /// Facts to add.
    pub inserts: Vec<Fact>,
    /// Facts to remove.
    pub deletes: Vec<Fact>,
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Queues an insertion (builder style).
    pub fn insert(mut self, pred: &str, args: &[&str]) -> Delta {
        self.add_insert(Fact::from_strs(pred, args));
        self
    }

    /// Queues a deletion (builder style).
    pub fn delete(mut self, pred: &str, args: &[&str]) -> Delta {
        self.add_delete(Fact::from_strs(pred, args));
        self
    }

    /// Queues an insertion.
    pub fn add_insert(&mut self, fact: Fact) {
        self.inserts.push(fact);
    }

    /// Queues a deletion.
    pub fn add_delete(&mut self, fact: Fact) {
        self.deletes.push(fact);
    }

    /// True iff the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Nets a sequence of deltas into one: per fact, the last operation
    /// in arrival order wins (each delta's deletes precede its inserts).
    /// Facts keep the order in which they first arrived, so the result
    /// depends on the input only.
    pub fn net<'a>(deltas: impl IntoIterator<Item = &'a Delta>) -> Delta {
        let mut order: Vec<(&Fact, bool)> = Vec::new();
        let mut last: HashMap<&Fact, usize> = HashMap::new();
        for d in deltas {
            let ops = d.deletes.iter().map(|f| (f, false));
            for (fact, insert) in ops.chain(d.inserts.iter().map(|f| (f, true))) {
                match last.get(fact) {
                    Some(&i) => order[i].1 = insert,
                    None => {
                        last.insert(fact, order.len());
                        order.push((fact, insert));
                    }
                }
            }
        }
        let mut net = Delta::new();
        for (fact, insert) in order {
            if insert {
                net.add_insert(fact.clone());
            } else {
                net.add_delete(fact.clone());
            }
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netting_last_op_wins_across_deltas() {
        let d1 = Delta::new().insert("p", &["a"]).delete("p", &["b"]);
        let d2 = Delta::new().delete("p", &["a"]).insert("p", &["c"]);
        let net = Delta::net([&d1, &d2]);
        // d1's delete of p(b) was noted first; p(a)'s last op (d2's
        // delete) overwrote its earlier insert in place.
        assert_eq!(
            net.deletes,
            vec![Fact::from_strs("p", &["b"]), Fact::from_strs("p", &["a"])]
        );
        assert_eq!(net.inserts, vec![Fact::from_strs("p", &["c"])]);
    }

    #[test]
    fn builder_and_display() {
        let d = Delta::new()
            .insert("e", &["a", "b"])
            .delete("e", &["b", "c"]);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.inserts[0].to_string(), "e(a, b)");
        assert_eq!(d.deletes[0], Fact::from_strs("e", &["b", "c"]));
        assert!(Delta::new().is_empty());
    }
}
