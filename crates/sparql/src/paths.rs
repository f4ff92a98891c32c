//! SPARQL 1.1 property paths — the navigation mechanism the paper's §1
//! credits to SPARQL 1.1 and §2 shows insufficient for the transport
//! query (which must navigate *two* dimensions simultaneously).
//!
//! Grammar (concrete syntax accepted by [`parse_path`]):
//!
//! ```text
//! path     := sequence ('|' sequence)*
//! sequence := step ('/' step)*
//! step     := atom | atom '*' | atom '+' | atom '?'
//! atom     := iri | '^' atom | '(' path ')'
//! ```

use crate::parser::{too_deep, MAX_NESTING};
use crate::Symbol;
use std::collections::{BTreeSet, HashSet, VecDeque};
use triq_common::{intern, Result, TriqError};
use triq_rdf::Graph;

/// A SPARQL 1.1 property path expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PropertyPath {
    /// A predicate IRI.
    Iri(Symbol),
    /// `^p`: inverse.
    Inverse(Box<PropertyPath>),
    /// `p / q`: sequence.
    Seq(Box<PropertyPath>, Box<PropertyPath>),
    /// `p | q`: alternative.
    Alt(Box<PropertyPath>, Box<PropertyPath>),
    /// `p*`: zero or more.
    ZeroOrMore(Box<PropertyPath>),
    /// `p+`: one or more.
    OneOrMore(Box<PropertyPath>),
    /// `p?`: zero or one.
    ZeroOrOne(Box<PropertyPath>),
}

impl std::fmt::Display for PropertyPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PropertyPath::Iri(p) => write!(f, "{p}"),
            PropertyPath::Inverse(p) => write!(f, "^({p})"),
            PropertyPath::Seq(a, b) => write!(f, "({a}/{b})"),
            PropertyPath::Alt(a, b) => write!(f, "({a}|{b})"),
            PropertyPath::ZeroOrMore(p) => write!(f, "({p})*"),
            PropertyPath::OneOrMore(p) => write!(f, "({p})+"),
            PropertyPath::ZeroOrOne(p) => write!(f, "({p})?"),
        }
    }
}

impl PropertyPath {
    /// All nodes reachable from `from` along the path.
    pub fn reachable(&self, graph: &Graph, from: Symbol) -> BTreeSet<Symbol> {
        match self {
            PropertyPath::Iri(p) => graph
                .matching(Some(from), Some(*p), None)
                .into_iter()
                .map(|t| t.o)
                .collect(),
            PropertyPath::Inverse(p) => {
                // Evaluate the inverse by scanning incoming edges.
                let mut out = BTreeSet::new();
                for candidate in inverse_candidates(graph, p, from) {
                    if p.reachable(graph, candidate).contains(&from) {
                        out.insert(candidate);
                    }
                }
                out
            }
            PropertyPath::Seq(a, b) => {
                let mut out = BTreeSet::new();
                for mid in a.reachable(graph, from) {
                    out.extend(b.reachable(graph, mid));
                }
                out
            }
            PropertyPath::Alt(a, b) => {
                let mut out = a.reachable(graph, from);
                out.extend(b.reachable(graph, from));
                out
            }
            PropertyPath::ZeroOrMore(p) => closure(graph, p, from, true),
            PropertyPath::OneOrMore(p) => closure(graph, p, from, false),
            PropertyPath::ZeroOrOne(p) => {
                let mut out = p.reachable(graph, from);
                out.insert(from);
                out
            }
        }
    }

    /// All (x, y) pairs over the active domain with `x path y`.
    pub fn all_pairs(&self, graph: &Graph) -> BTreeSet<(Symbol, Symbol)> {
        let mut out = BTreeSet::new();
        for x in graph.active_domain() {
            for y in self.reachable(graph, x) {
                out.insert((x, y));
            }
        }
        out
    }
}

/// Subjects that might reach `target` through `p` — an overapproximation
/// (the whole active domain) refined by the caller.
fn inverse_candidates(graph: &Graph, _p: &PropertyPath, _target: Symbol) -> Vec<Symbol> {
    graph.active_domain().into_iter().collect()
}

/// BFS closure of a path step.
fn closure(
    graph: &Graph,
    step: &PropertyPath,
    from: Symbol,
    include_self: bool,
) -> BTreeSet<Symbol> {
    let mut seen: HashSet<Symbol> = HashSet::new();
    let mut out = BTreeSet::new();
    let mut queue = VecDeque::new();
    if include_self {
        out.insert(from);
    }
    seen.insert(from);
    queue.push_back(from);
    while let Some(node) = queue.pop_front() {
        for next in step.reachable(graph, node) {
            out.insert(next);
            if seen.insert(next) {
                queue.push_back(next);
            }
        }
    }
    out
}

// --- parser ----------------------------------------------------------------

fn err(message: impl Into<String>) -> TriqError {
    TriqError::Parse {
        what: "property-path",
        message: message.into(),
    }
}

struct PathParser<'a> {
    input: &'a str,
    pos: usize,
    /// Nesting levels currently open (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> PathParser<'a> {
    fn skip_ws(&mut self) {
        let rest = &self.input[self.pos..];
        self.pos += rest.len() - rest.trim_start().len();
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.input[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// A path with its height: the operator nodes on its longest path
    /// to an IRI.
    fn path(&mut self) -> Result<(PropertyPath, usize)> {
        let (mut left, mut height) = self.sequence()?;
        while self.peek() == Some('|') {
            self.bump();
            let (right, h) = self.sequence()?;
            left = PropertyPath::Alt(Box::new(left), Box::new(right));
            height = over(height.max(h))?;
        }
        Ok((left, height))
    }

    fn sequence(&mut self) -> Result<(PropertyPath, usize)> {
        let (mut left, mut height) = self.step()?;
        while self.peek() == Some('/') {
            self.bump();
            let (right, h) = self.step()?;
            left = PropertyPath::Seq(Box::new(left), Box::new(right));
            height = over(height.max(h))?;
        }
        Ok((left, height))
    }

    /// Runs `inner` one nesting level deeper, refusing past
    /// [`MAX_NESTING`].
    fn nested<T>(&mut self, inner: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(too_deep("property-path"));
        }
        self.depth += 1;
        let result = inner(self);
        self.depth -= 1;
        result
    }

    fn step(&mut self) -> Result<(PropertyPath, usize)> {
        let (mut atom, mut height) = self.atom()?;
        loop {
            let wrap = match self.peek() {
                Some('*') => PropertyPath::ZeroOrMore,
                Some('+') => PropertyPath::OneOrMore,
                Some('?') => PropertyPath::ZeroOrOne,
                _ => return Ok((atom, height)),
            };
            self.bump();
            atom = wrap(Box::new(atom));
            height = over(height)?;
        }
    }

    fn atom(&mut self) -> Result<(PropertyPath, usize)> {
        match self.peek() {
            Some('^') => {
                self.bump();
                self.nested(|p| {
                    let (inner, h) = p.atom()?;
                    Ok((PropertyPath::Inverse(Box::new(inner)), over(h)?))
                })
            }
            Some('(') => {
                self.bump();
                self.nested(|p| {
                    let inner = p.path()?;
                    if p.bump() != Some(')') {
                        return Err(err("expected ')'"));
                    }
                    Ok(inner)
                })
            }
            Some(c) if c.is_alphanumeric() || c == '_' => {
                self.skip_ws();
                let rest = &self.input[self.pos..];
                let end = rest
                    .find(|ch: char| !(ch.is_alphanumeric() || matches!(ch, '_' | ':' | '~')))
                    .unwrap_or(rest.len());
                let name = &rest[..end];
                self.pos += end;
                Ok((PropertyPath::Iri(intern(name)), 0))
            }
            other => Err(err(format!("unexpected {other:?} in path"))),
        }
    }
}

/// The height of a node over a child of height `child`, refused past
/// [`MAX_NESTING`].
fn over(child: usize) -> Result<usize> {
    if child == MAX_NESTING {
        return Err(too_deep("property-path"));
    }
    Ok(child + 1)
}

/// Parses a property-path expression, e.g. `partOf+ | (knows/^knows)*`.
pub fn parse_path(input: &str) -> Result<PropertyPath> {
    let mut p = PathParser {
        input,
        pos: 0,
        depth: 0,
    };
    let (path, _) = p.path()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(err(format!("trailing input at byte {}", p.pos)));
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triq_rdf::parse_turtle;

    fn g() -> Graph {
        parse_turtle(
            "a knows b .\n\
             b knows c .\n\
             c knows d .\n\
             a likes c .\n\
             d mentors a .",
        )
        .unwrap()
    }

    fn names(set: &BTreeSet<Symbol>) -> Vec<&'static str> {
        set.iter().map(|s| s.as_str()).collect()
    }

    #[test]
    fn single_iri_and_sequence() {
        let g = g();
        let p = parse_path("knows").unwrap();
        assert_eq!(names(&p.reachable(&g, intern("a"))), vec!["b"]);
        let p = parse_path("knows/knows").unwrap();
        assert_eq!(names(&p.reachable(&g, intern("a"))), vec!["c"]);
    }

    #[test]
    fn closures() {
        let g = g();
        let plus = parse_path("knows+").unwrap();
        assert_eq!(names(&plus.reachable(&g, intern("a"))), vec!["b", "c", "d"]);
        let star = parse_path("knows*").unwrap();
        assert_eq!(
            names(&star.reachable(&g, intern("a"))),
            vec!["a", "b", "c", "d"]
        );
        let opt = parse_path("knows?").unwrap();
        assert_eq!(names(&opt.reachable(&g, intern("a"))), vec!["a", "b"]);
    }

    #[test]
    fn alternatives_and_inverse() {
        let g = g();
        let p = parse_path("knows|likes").unwrap();
        assert_eq!(names(&p.reachable(&g, intern("a"))), vec!["b", "c"]);
        let inv = parse_path("^knows").unwrap();
        assert_eq!(names(&inv.reachable(&g, intern("b"))), vec!["a"]);
        // Cycle through inverse: a -mentors⁻- d? d mentors a, so ^mentors
        // from a yields d.
        let p = parse_path("^mentors").unwrap();
        assert_eq!(names(&p.reachable(&g, intern("a"))), vec!["d"]);
    }

    #[test]
    fn nested_expression() {
        let g = g();
        let p = parse_path("(knows/knows)|(likes)").unwrap();
        assert_eq!(names(&p.reachable(&g, intern("a"))), vec!["c"]);
        let p = parse_path("(knows|likes)+").unwrap();
        assert_eq!(names(&p.reachable(&g, intern("a"))), vec!["b", "c", "d"]);
    }

    #[test]
    fn all_pairs() {
        let g = g();
        let p = parse_path("knows+").unwrap();
        let pairs = p.all_pairs(&g);
        assert!(pairs.contains(&(intern("a"), intern("d"))));
        assert!(!pairs.contains(&(intern("d"), intern("a"))));
        assert_eq!(pairs.len(), 6);
    }

    /// §2's point: property paths CAN follow `partOf+` and CAN follow a
    /// *fixed* service predicate, but cannot express "follow edges whose
    /// LABEL is itself partOf-connected to transportService" — the edge
    /// label would have to be existentially coupled to a second navigation.
    /// We demonstrate the under-approximation: the best property-path
    /// rewriting (enumerating the service predicates seen in the data as
    /// alternatives) is data-dependent, while the TriQ-Lite query is fixed.
    #[test]
    fn transport_query_is_beyond_fixed_paths() {
        let g = parse_turtle(
            "TheAirline partOf transportService .\n\
             A311 partOf TheAirline .\n\
             Oxford A311 London .\n\
             R1 partOf Rail .\n\
             Rail partOf transportService .\n\
             London R1 Madrid .",
        )
        .unwrap();
        // A fixed path using one known service works only for that service:
        let p = parse_path("A311").unwrap();
        assert_eq!(names(&p.reachable(&g, intern("Oxford"))), vec!["London"]);
        // …but no fixed path reaches Madrid from Oxford: the connecting
        // edge labels (A311, R1) are not fixed vocabulary.
        let attempts = ["A311+", "A311/A311", "(A311|partOf)+"];
        for src in attempts {
            let p = parse_path(src).unwrap();
            assert!(
                !p.reachable(&g, intern("Oxford"))
                    .contains(&intern("Madrid")),
                "{src} should not solve the transport query"
            );
        }
        // The data-dependent rewriting (enumerate ALL service labels) does:
        let p = parse_path("(A311|R1)+").unwrap();
        assert!(p
            .reachable(&g, intern("Oxford"))
            .contains(&intern("Madrid")));
        // …but it is not a single fixed query, which is the paper's point.
    }

    #[test]
    fn paths_nest_up_to_the_limit() {
        let too_deep = |r: Result<PropertyPath>| matches!(r, Err(TriqError::Parse { message, .. }) if message.contains("nested deeper"));
        let parens = |n: usize| format!("{}knows{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_path(&parens(MAX_NESTING)).is_ok());
        assert!(too_deep(parse_path(&parens(MAX_NESTING + 1))));
        assert!(too_deep(parse_path(&parens(10_000))));
        let inverses = |n: usize| format!("{}knows", "^".repeat(n));
        assert!(parse_path(&inverses(MAX_NESTING)).is_ok());
        assert!(too_deep(parse_path(&inverses(MAX_NESTING + 1))));
        let stars = |n: usize| format!("knows{}", "*".repeat(n));
        assert!(parse_path(&stars(MAX_NESTING)).is_ok());
        assert!(too_deep(parse_path(&stars(MAX_NESTING + 1))));
        assert!(too_deep(parse_path(&stars(10_000))));
        // n steps make a chain of n − 1 `/` nodes.
        let steps = |n: usize| vec!["knows"; n].join("/");
        assert!(parse_path(&steps(MAX_NESTING + 1)).is_ok());
        assert!(too_deep(parse_path(&steps(MAX_NESTING + 2))));
        assert!(too_deep(parse_path(&steps(10_000))));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_path("").is_err());
        assert!(parse_path("(a").is_err());
        assert!(parse_path("a//b").is_err());
        assert!(parse_path("a b").is_err());
    }
}
