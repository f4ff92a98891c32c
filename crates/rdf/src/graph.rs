//! The RDF graph store.

use std::collections::{HashMap, HashSet};
use std::fmt;
use triq_common::{intern, Symbol};

/// An RDF triple (s, p, o) ∈ U × U × U (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject.
    pub s: Symbol,
    /// Predicate.
    pub p: Symbol,
    /// Object.
    pub o: Symbol,
}

impl Triple {
    /// Builds a triple from three already-interned symbols.
    pub fn new(s: Symbol, p: Symbol, o: Symbol) -> Self {
        Triple { s, p, o }
    }

    /// Interns three strings into a triple.
    pub fn from_strs(s: &str, p: &str, o: &str) -> Self {
        Triple::new(intern(s), intern(p), intern(o))
    }
}

impl fmt::Debug for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.s, self.p, self.o)
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.s, self.p, self.o)
    }
}

/// A finite set of RDF triples with subject/predicate/object indexes.
///
/// Insertion keeps a deterministic order (`triples` preserves first-insert
/// order) so query results and serializations are reproducible; membership
/// and pattern matching go through hash indexes.
#[derive(Default, Clone)]
pub struct Graph {
    triples: Vec<Triple>,
    set: HashSet<Triple>,
    by_s: HashMap<Symbol, Vec<u32>>,
    by_p: HashMap<Symbol, Vec<u32>>,
    by_o: HashMap<Symbol, Vec<u32>>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Builds a graph from an iterator of triples.
    pub fn from_triples<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut g = Graph::new();
        for t in iter {
            g.insert(t);
        }
        g
    }

    /// Inserts a triple; returns `true` if it was not already present.
    pub fn insert(&mut self, t: Triple) -> bool {
        if !self.set.insert(t) {
            return false;
        }
        let idx = self.triples.len() as u32;
        self.triples.push(t);
        self.by_s.entry(t.s).or_default().push(idx);
        self.by_p.entry(t.p).or_default().push(idx);
        self.by_o.entry(t.o).or_default().push(idx);
        true
    }

    /// Inserts a triple built from three strings.
    pub fn insert_strs(&mut self, s: &str, p: &str, o: &str) -> bool {
        self.insert(Triple::from_strs(s, p, o))
    }

    /// Removes a triple; returns `true` if it was present. Removal keeps
    /// the insertion-order determinism of iteration; the position
    /// indexes are rebuilt, so this is O(|G|) — fine for interactive
    /// single-triple mutation.
    pub fn remove(&mut self, t: &Triple) -> bool {
        if !self.set.remove(t) {
            return false;
        }
        self.triples.retain(|x| x != t);
        self.by_s.clear();
        self.by_p.clear();
        self.by_o.clear();
        for (i, t) in self.triples.iter().enumerate() {
            self.by_s.entry(t.s).or_default().push(i as u32);
            self.by_p.entry(t.p).or_default().push(i as u32);
            self.by_o.entry(t.o).or_default().push(i as u32);
        }
        true
    }

    /// Removes a triple built from three strings.
    pub fn remove_strs(&mut self, s: &str, p: &str, o: &str) -> bool {
        self.remove(&Triple::from_strs(s, p, o))
    }

    /// Membership test.
    pub fn contains(&self, t: &Triple) -> bool {
        self.set.contains(t)
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True iff the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// All triples, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Triple> + '_ {
        self.triples.iter()
    }

    /// All constants mentioned anywhere in the graph (the active domain).
    pub fn active_domain(&self) -> HashSet<Symbol> {
        let mut dom = HashSet::with_capacity(self.triples.len());
        for t in &self.triples {
            dom.insert(t.s);
            dom.insert(t.p);
            dom.insert(t.o);
        }
        dom
    }

    /// Matches a triple pattern where `None` components are wildcards.
    ///
    /// Chooses the most selective available index, then filters.
    pub fn matching(&self, s: Option<Symbol>, p: Option<Symbol>, o: Option<Symbol>) -> Vec<Triple> {
        let candidates: &[u32] = match (s, p, o) {
            (Some(s), _, _) => self.by_s.get(&s).map(Vec::as_slice).unwrap_or(&[]),
            (None, _, Some(o)) => self.by_o.get(&o).map(Vec::as_slice).unwrap_or(&[]),
            (None, Some(p), None) => self.by_p.get(&p).map(Vec::as_slice).unwrap_or(&[]),
            (None, None, None) => {
                return self.triples.clone();
            }
        };
        candidates
            .iter()
            .map(|&i| self.triples[i as usize])
            .filter(|t| {
                s.is_none_or(|x| t.s == x)
                    && p.is_none_or(|x| t.p == x)
                    && o.is_none_or(|x| t.o == x)
            })
            .collect()
    }

    /// Set-union with another graph.
    pub fn extend_from(&mut self, other: &Graph) {
        for t in other.iter() {
            self.insert(*t);
        }
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.triples.iter()).finish()
    }
}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        Graph::from_triples(iter)
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.set == other.set
    }
}

impl Eq for Graph {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert_strs("dbUllman", "is_author_of", "The Complete Book");
        g.insert_strs("dbUllman", "name", "Jeffrey Ullman");
        g.insert_strs("dbAho", "is_coauthor_of", "dbUllman");
        g.insert_strs("dbAho", "name", "Alfred Aho");
        g
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = sample();
        assert_eq!(g.len(), 4);
        assert!(!g.insert_strs("dbAho", "name", "Alfred Aho"));
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn remove_unlinks_and_reindexes() {
        let mut g = sample();
        assert!(g.remove_strs("dbUllman", "name", "Jeffrey Ullman"));
        assert!(!g.remove_strs("dbUllman", "name", "Jeffrey Ullman"));
        assert_eq!(g.len(), 3);
        assert!(!g.contains(&Triple::from_strs("dbUllman", "name", "Jeffrey Ullman")));
        // Indexes reflect the removal; insertion order is preserved.
        assert_eq!(g.matching(Some(intern("dbUllman")), None, None).len(), 1);
        assert_eq!(g.matching(None, Some(intern("name")), None).len(), 1);
        let order: Vec<&Triple> = g.iter().collect();
        assert_eq!(order[0].p, intern("is_author_of"));
        // Re-insertion works and appends at the end.
        assert!(g.insert_strs("dbUllman", "name", "Jeffrey Ullman"));
        assert_eq!(g.len(), 4);
        assert_eq!(g.matching(None, Some(intern("name")), None).len(), 2);
    }

    #[test]
    fn matching_with_indexes() {
        let g = sample();
        assert_eq!(g.matching(Some(intern("dbUllman")), None, None).len(), 2);
        assert_eq!(g.matching(None, Some(intern("name")), None).len(), 2);
        assert_eq!(
            g.matching(None, None, Some(intern("dbUllman"))),
            vec![Triple::from_strs("dbAho", "is_coauthor_of", "dbUllman")]
        );
        assert_eq!(
            g.matching(Some(intern("dbAho")), Some(intern("name")), None)
                .len(),
            1
        );
        assert_eq!(g.matching(None, None, None).len(), 4);
        assert!(g.matching(Some(intern("nobody")), None, None).is_empty());
    }

    #[test]
    fn active_domain_collects_all_positions() {
        let g = sample();
        let dom = g.active_domain();
        assert!(dom.contains(&intern("dbAho")));
        assert!(dom.contains(&intern("name")));
        assert!(dom.contains(&intern("The Complete Book")));
        assert_eq!(dom.len(), 8);
    }

    #[test]
    fn graph_equality_ignores_order() {
        let g1 = sample();
        let mut g2 = Graph::new();
        g2.insert_strs("dbAho", "name", "Alfred Aho");
        g2.insert_strs("dbAho", "is_coauthor_of", "dbUllman");
        g2.insert_strs("dbUllman", "name", "Jeffrey Ullman");
        g2.insert_strs("dbUllman", "is_author_of", "The Complete Book");
        assert_eq!(g1, g2);
    }
}
