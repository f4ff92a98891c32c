//! A parser for a SPARQL-style concrete syntax covering the §3.1 algebra:
//!
//! ```text
//! SELECT ?X WHERE { ?Y is_author_of ?Z . ?Y name ?X }
//! { ?X name ?Y } OPTIONAL { ?X phone ?Z }
//! { P1 } UNION { P2 }
//! { ?X name ?N } FILTER (?N = "Alfred Aho" && bound(?X))
//! { SELECT ?X WHERE { ... } }
//! CONSTRUCT { ?X name_author ?Z } WHERE { ?Y is_author_of ?Z . ?Y name ?X }
//! ```
//!
//! Variables are `?X`, blank nodes `_:B`, everything else (bare words,
//! `pre:name`, quoted strings) is a constant.

use crate::algebra::{GraphPattern, PatternTerm, TriplePattern};
use crate::condition::Condition;
use crate::query::{ConstructQuery, SelectQuery};
use std::collections::BTreeSet;
use triq_common::{intern, Result, TriqError, VarId};

fn err(message: impl Into<String>) -> TriqError {
    TriqError::Parse {
        what: "sparql",
        message: message.into(),
    }
}

/// How deeply a request may nest. Two depths are bounded by it: the
/// parser's own — `{ }` groups and, inside a `FILTER`, parentheses and
/// `!`s count one level each — and the height of the tree it builds,
/// where every operator node counts (`UNION`, `OPTIONAL`, `AND` or
/// adjacency, `FILTER`, a sub-`SELECT`, `!`, `&&`, `||`). Property paths
/// bound the same two depths. Each level is a frame of the parser or of
/// a later walk of the tree, so unbounded nesting would overflow the
/// thread's stack and abort the process; past this many levels the
/// parser refuses with `E-PARSE`.
pub const MAX_NESTING: usize = 256;

/// A parsed subtree with its height: the operator nodes on its longest
/// path to a leaf (a triple block or an atomic condition is 0).
type Tree<T> = (T, usize);

/// The height of a new operator node over children of heights `a` and
/// `b`, refused past [`MAX_NESTING`]: a chain like `… UNION … UNION …`
/// is parsed by a loop, but every later walk descends it recursively.
fn over(a: usize, b: usize) -> Result<usize> {
    let height = a.max(b) + 1;
    if height > MAX_NESTING {
        return Err(too_deep("sparql"));
    }
    Ok(height)
}

/// The refusal for input nested deeper than [`MAX_NESTING`].
pub(crate) fn too_deep(what: &'static str) -> TriqError {
    TriqError::Parse {
        what,
        message: format!("nested deeper than {MAX_NESTING} levels"),
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Word(String),
    Var(String),
    Blank(String),
    Str(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Dot,
    Eq,
    AndAnd,
    OrOr,
    Bang,
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let mut toks = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        match c {
            '#' => {
                for (_, ch) in chars.by_ref() {
                    if ch == '\n' {
                        break;
                    }
                }
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '{' => {
                chars.next();
                toks.push(Tok::LBrace);
            }
            '}' => {
                chars.next();
                toks.push(Tok::RBrace);
            }
            '(' => {
                chars.next();
                toks.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                toks.push(Tok::RParen);
            }
            '.' => {
                chars.next();
                toks.push(Tok::Dot);
            }
            '=' => {
                chars.next();
                toks.push(Tok::Eq);
            }
            '!' => {
                chars.next();
                toks.push(Tok::Bang);
            }
            '&' => {
                chars.next();
                match chars.next() {
                    Some((_, '&')) => toks.push(Tok::AndAnd),
                    _ => return Err(err(format!("stray '&' at byte {i}"))),
                }
            }
            '|' => {
                chars.next();
                match chars.next() {
                    Some((_, '|')) => toks.push(Tok::OrOr),
                    _ => return Err(err(format!("stray '|' at byte {i}"))),
                }
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some((_, '"')) => break,
                        Some((_, '\\')) => match chars.next() {
                            Some((_, 'n')) => s.push('\n'),
                            Some((_, 't')) => s.push('\t'),
                            Some((_, other)) => s.push(other),
                            None => return Err(err("dangling escape")),
                        },
                        Some((_, other)) => s.push(other),
                        None => return Err(err("unterminated string")),
                    }
                }
                toks.push(Tok::Str(s));
            }
            '?' => {
                chars.next();
                let mut name = String::new();
                while let Some(&(_, ch)) = chars.peek() {
                    if ch.is_alphanumeric() || ch == '_' {
                        name.push(ch);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if name.is_empty() {
                    return Err(err(format!("empty variable name at byte {i}")));
                }
                toks.push(Tok::Var(name));
            }
            '_' if matches!(chars.clone().nth(1), Some((_, ':'))) => {
                chars.next();
                chars.next();
                let mut name = String::new();
                while let Some(&(_, ch)) = chars.peek() {
                    if ch.is_alphanumeric() || ch == '_' {
                        name.push(ch);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if name.is_empty() {
                    return Err(err("empty blank node label"));
                }
                toks.push(Tok::Blank(name));
            }
            c if c.is_alphanumeric() || c == '_' || c == '~' => {
                let mut name = String::new();
                while let Some(&(_, ch)) = chars.peek() {
                    if ch.is_alphanumeric() || matches!(ch, '_' | ':' | '/' | '\'' | '~') {
                        name.push(ch);
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Word(name));
            }
            other => return Err(err(format!("unexpected character {other:?} at byte {i}"))),
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Nesting levels currently open (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Parser> {
        Ok(Parser {
            toks: lex(input)?,
            pos: 0,
            depth: 0,
        })
    }

    /// Runs `inner` one nesting level deeper, refusing past
    /// [`MAX_NESTING`].
    fn nested<T>(&mut self, inner: impl FnOnce(&mut Parser) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(too_deep("sparql"));
        }
        self.depth += 1;
        let result = inner(self);
        self.depth -= 1;
        result
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: Tok) -> Result<()> {
        match self.next() {
            Some(t) if t == tok => Ok(()),
            other => Err(err(format!("expected {tok:?}, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(err(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn term(&mut self) -> Result<PatternTerm> {
        match self.next() {
            Some(Tok::Var(v)) => Ok(PatternTerm::Var(VarId::new(&v))),
            Some(Tok::Blank(b)) => Ok(PatternTerm::Blank(intern(&b))),
            Some(Tok::Word(w)) => Ok(PatternTerm::Const(intern(&w))),
            Some(Tok::Str(s)) => Ok(PatternTerm::Const(intern(&s))),
            other => Err(err(format!("expected a term, found {other:?}"))),
        }
    }

    fn triple(&mut self) -> Result<TriplePattern> {
        let s = self.term()?;
        // `a` sugar in predicate position.
        let p = if self.peek_keyword("a") {
            self.next();
            PatternTerm::Const(intern("rdf:type"))
        } else {
            self.term()?
        };
        let o = self.term()?;
        Ok(TriplePattern::new(s, p, o))
    }

    /// A group `{ ... }` or a combinator expression at the current level.
    fn pattern_expr(&mut self) -> Result<Tree<GraphPattern>> {
        let unit = self.pattern_unit()?;
        self.continue_expr(unit, true)
    }

    /// A unit: `{ ... }` (group, possibly a sub-SELECT) or a bare BGP.
    fn pattern_unit(&mut self) -> Result<Tree<GraphPattern>> {
        if self.peek() == Some(&Tok::LBrace) {
            self.next();
            self.nested(|p| {
                let inner = if p.peek_keyword("SELECT") {
                    let (q, h) = p.select_query()?;
                    (
                        GraphPattern::Select(q.vars, Box::new(q.pattern)),
                        over(h, 0)?,
                    )
                } else {
                    p.group_body()?
                };
                p.expect(Tok::RBrace)?;
                Ok(inner)
            })
        } else {
            // Bare triple block.
            Ok((self.triple_block()?, 0))
        }
    }

    fn triple_block(&mut self) -> Result<GraphPattern> {
        let mut triples = vec![self.triple()?];
        while self.peek() == Some(&Tok::Dot) {
            self.next();
            // Allow a trailing dot before '}' or a combinator keyword.
            match self.peek() {
                Some(Tok::Var(_) | Tok::Word(_) | Tok::Str(_) | Tok::Blank(_))
                    if !self.peek_combinator() =>
                {
                    triples.push(self.triple()?)
                }
                _ => break,
            }
        }
        Ok(GraphPattern::Basic(triples))
    }

    fn peek_combinator(&self) -> bool {
        ["UNION", "OPTIONAL", "OPT", "AND", "FILTER", "SELECT"]
            .iter()
            .any(|k| self.peek_keyword(k))
    }

    /// The inside of a `{ ... }` group: triples and nested sub-patterns
    /// combined left-associatively (adjacency = AND).
    fn group_body(&mut self) -> Result<Tree<GraphPattern>> {
        let mut current: Option<Tree<GraphPattern>> = None;
        let attach = |cur: Option<Tree<GraphPattern>>, (new, h): Tree<GraphPattern>| match cur {
            None => Ok((new, h)),
            Some((c, hc)) => Ok((GraphPattern::And(Box::new(c), Box::new(new)), over(hc, h)?)),
        };
        loop {
            match self.peek() {
                None | Some(Tok::RBrace) => {
                    return current.ok_or_else(|| err("empty group pattern"));
                }
                Some(Tok::Dot) => {
                    self.next();
                }
                Some(Tok::LBrace) => {
                    let unit = self.pattern_unit()?;
                    current = Some(attach(current, unit)?);
                }
                Some(Tok::Word(w))
                    if ["UNION", "OPTIONAL", "OPT", "AND", "FILTER"]
                        .iter()
                        .any(|k| w.eq_ignore_ascii_case(k)) =>
                {
                    let lhs = current.ok_or_else(|| err(format!("{w} without a left operand")))?;
                    current = Some(self.combine(lhs, true)?);
                }
                Some(Tok::Word(w)) if w.eq_ignore_ascii_case("SELECT") => {
                    let (q, h) = self.select_query()?;
                    let select = GraphPattern::Select(q.vars, Box::new(q.pattern));
                    current = Some(attach(current, (select, over(h, 0)?))?);
                }
                _ => {
                    let block = self.triple_block()?;
                    current = Some(attach(current, (block, 0))?);
                }
            }
        }
    }

    /// Applies the combinator at the current token (`UNION`,
    /// `OPTIONAL`/`OPT`, `FILTER` and, where `and` allows it, `AND`) to
    /// `lhs` and its right operand.
    fn combine(&mut self, (lhs, hl): Tree<GraphPattern>, and: bool) -> Result<Tree<GraphPattern>> {
        let make: fn(Box<GraphPattern>, Box<GraphPattern>) -> GraphPattern =
            if self.peek_keyword("UNION") {
                GraphPattern::Union
            } else if self.peek_keyword("OPTIONAL") || self.peek_keyword("OPT") {
                GraphPattern::Opt
            } else if and && self.peek_keyword("AND") {
                GraphPattern::And
            } else {
                self.expect_keyword("FILTER")?;
                self.expect(Tok::LParen)?;
                let (cond, hc) = self.condition()?;
                self.expect(Tok::RParen)?;
                return Ok((GraphPattern::Filter(Box::new(lhs), cond), over(hl, hc)?));
            };
        self.next();
        let (rhs, hr) = self.pattern_unit()?;
        Ok((make(Box::new(lhs), Box::new(rhs)), over(hl, hr)?))
    }

    // --- conditions: ! binds tightest, then &&, then || ------------------
    fn condition(&mut self) -> Result<Tree<Condition>> {
        let (mut left, mut hl) = self.condition_and()?;
        while self.peek() == Some(&Tok::OrOr) {
            self.next();
            let (right, hr) = self.condition_and()?;
            left = Condition::Or(Box::new(left), Box::new(right));
            hl = over(hl, hr)?;
        }
        Ok((left, hl))
    }

    fn condition_and(&mut self) -> Result<Tree<Condition>> {
        let (mut left, mut hl) = self.condition_atom()?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.next();
            let (right, hr) = self.condition_atom()?;
            left = Condition::And(Box::new(left), Box::new(right));
            hl = over(hl, hr)?;
        }
        Ok((left, hl))
    }

    fn condition_atom(&mut self) -> Result<Tree<Condition>> {
        match self.next() {
            Some(Tok::Bang) => self.nested(|p| {
                let (inner, h) = p.condition_atom()?;
                Ok((Condition::Not(Box::new(inner)), over(h, 0)?))
            }),
            Some(Tok::LParen) => self.nested(|p| {
                let c = p.condition()?;
                p.expect(Tok::RParen)?;
                Ok(c)
            }),
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case("bound") => {
                self.expect(Tok::LParen)?;
                let v = match self.next() {
                    Some(Tok::Var(v)) => VarId::new(&v),
                    other => return Err(err(format!("bound() expects a variable, got {other:?}"))),
                };
                self.expect(Tok::RParen)?;
                Ok((Condition::Bound(v), 0))
            }
            Some(Tok::Var(v)) => {
                self.expect(Tok::Eq)?;
                let lhs = VarId::new(&v);
                let cond = match self.next() {
                    Some(Tok::Var(w)) => Condition::EqVar(lhs, VarId::new(&w)),
                    Some(Tok::Word(c)) => Condition::EqConst(lhs, intern(&c)),
                    Some(Tok::Str(c)) => Condition::EqConst(lhs, intern(&c)),
                    other => return Err(err(format!("expected term after '=', got {other:?}"))),
                };
                Ok((cond, 0))
            }
            other => Err(err(format!("expected condition, found {other:?}"))),
        }
    }

    /// `SELECT ?X … WHERE …`, with the height of its pattern.
    fn select_query(&mut self) -> Result<Tree<SelectQuery>> {
        self.expect_keyword("SELECT")?;
        let mut vars: BTreeSet<VarId> = BTreeSet::new();
        while let Some(Tok::Var(_)) = self.peek() {
            if let Some(Tok::Var(v)) = self.next() {
                vars.insert(VarId::new(&v));
            }
        }
        if vars.is_empty() {
            return Err(err("SELECT needs at least one variable"));
        }
        self.expect_keyword("WHERE")?;
        let unit = self.pattern_unit()?;
        // Allow trailing FILTER etc. after the WHERE group.
        let (pattern, h) = self.continue_expr(unit, false)?;
        Ok((SelectQuery { vars, pattern }, h))
    }

    /// Applies combinators to `current` while the next token is one
    /// (`AND` only where `and` allows it).
    fn continue_expr(
        &mut self,
        mut current: Tree<GraphPattern>,
        and: bool,
    ) -> Result<Tree<GraphPattern>> {
        while self.peek_keyword("UNION")
            || self.peek_keyword("OPTIONAL")
            || self.peek_keyword("OPT")
            || self.peek_keyword("FILTER")
            || (and && self.peek_keyword("AND"))
        {
            current = self.combine(current, and)?;
        }
        Ok(current)
    }
}

/// Parses a graph-pattern expression.
pub fn parse_pattern(input: &str) -> Result<GraphPattern> {
    let mut p = Parser::new(input)?;
    let (pattern, _) = p.pattern_expr()?;
    if p.peek().is_some() {
        return Err(err(format!("trailing input: {:?}", p.peek())));
    }
    pattern.validate()?;
    Ok(pattern)
}

/// Parses `SELECT ?X ... WHERE { ... }`.
pub fn parse_select(input: &str) -> Result<SelectQuery> {
    let mut p = Parser::new(input)?;
    let (q, _) = p.select_query()?;
    if p.peek().is_some() {
        return Err(err(format!("trailing input: {:?}", p.peek())));
    }
    q.pattern.validate()?;
    Ok(q)
}

/// Parses `CONSTRUCT { template } WHERE { ... }`.
pub fn parse_construct(input: &str) -> Result<ConstructQuery> {
    let mut p = Parser::new(input)?;
    p.expect_keyword("CONSTRUCT")?;
    p.expect(Tok::LBrace)?;
    let mut template = vec![p.triple()?];
    while p.peek() == Some(&Tok::Dot) {
        p.next();
        if p.peek() == Some(&Tok::RBrace) {
            break;
        }
        template.push(p.triple()?);
    }
    p.expect(Tok::RBrace)?;
    p.expect_keyword("WHERE")?;
    let unit = p.pattern_unit()?;
    let (pattern, _) = p.continue_expr(unit, false)?;
    if p.peek().is_some() {
        return Err(err(format!("trailing input: {:?}", p.peek())));
    }
    pattern.validate()?;
    Ok(ConstructQuery { template, pattern })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_select() {
        let q = parse_select("SELECT ?X WHERE { ?Y is_author_of ?Z . ?Y name ?X }").unwrap();
        assert_eq!(q.vars.len(), 1);
        match &q.pattern {
            GraphPattern::Basic(ts) => assert_eq!(ts.len(), 2),
            other => panic!("expected BGP, got {other}"),
        }
    }

    #[test]
    fn parses_union_and_optional() {
        let p = parse_pattern("{ ?A p ?B } UNION { ?A q ?B } OPTIONAL { ?B r ?C }").unwrap();
        match p {
            GraphPattern::Opt(inner, _) => match *inner {
                GraphPattern::Union(..) => {}
                other => panic!("expected UNION, got {other}"),
            },
            other => panic!("expected OPT at top, got {other}"),
        }
    }

    #[test]
    fn parses_nested_groups_with_inline_optional() {
        let p =
            parse_pattern("{ { ?X name ?Y OPTIONAL { ?X phone ?Z } } AND { ?Z c ?W } }").unwrap();
        match p {
            GraphPattern::And(l, _) => match *l {
                GraphPattern::Opt(..) => {}
                other => panic!("expected OPT on the left, got {other}"),
            },
            other => panic!("expected AND, got {other}"),
        }
    }

    #[test]
    fn parses_filters_with_precedence() {
        let p = parse_pattern("{ ?X p ?Y } FILTER (bound(?X) && !bound(?Y) || ?X = ?Y)").unwrap();
        let GraphPattern::Filter(_, cond) = p else {
            panic!("expected FILTER");
        };
        // || at the top.
        assert!(matches!(cond, Condition::Or(..)));
    }

    #[test]
    fn parses_construct_with_blank() {
        // Query (4) of §2.
        let q = parse_construct(
            "CONSTRUCT { ?X is_author_of _:B . ?Y is_author_of _:B } \
             WHERE { ?X is_coauthor_of ?Y }",
        )
        .unwrap();
        assert_eq!(q.template.len(), 2);
        assert!(matches!(q.template[0].o, PatternTerm::Blank(_)));
    }

    #[test]
    fn parses_subselect() {
        let p = parse_pattern("{ SELECT ?X WHERE { ?X p ?Y } }").unwrap();
        assert!(matches!(p, GraphPattern::Select(..)));
        assert_eq!(p.vars().len(), 1);
    }

    #[test]
    fn rejects_bad_filter_scope_and_garbage() {
        assert!(parse_pattern("{ ?X p ?Y } FILTER (bound(?Z))").is_err());
        assert!(parse_pattern("{ }").is_err());
        assert!(parse_pattern("{ ?X p }").is_err());
        assert!(parse_select("SELECT WHERE { ?X p ?Y }").is_err());
    }

    fn refused_as_too_deep(result: Result<impl std::fmt::Debug>) -> bool {
        matches!(result, Err(TriqError::Parse { message, .. }) if message.contains("nested deeper"))
    }

    #[test]
    fn groups_nest_up_to_the_limit() {
        let nested = |n: usize| {
            format!(
                "SELECT ?X WHERE {}?X p ?Y{}",
                "{ ".repeat(n),
                " }".repeat(n)
            )
        };
        assert!(parse_select(&nested(MAX_NESTING)).is_ok());
        assert!(refused_as_too_deep(parse_select(&nested(MAX_NESTING + 1))));
        // Far past the limit: refused, not a stack overflow.
        assert!(refused_as_too_deep(parse_select(&nested(10_000))));
    }

    #[test]
    fn filter_parentheses_and_negations_nest_up_to_the_limit() {
        let parens = |n: usize| {
            format!(
                "{{ ?X p ?Y }} FILTER ({}?X = a{})",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        assert!(parse_pattern(&parens(MAX_NESTING)).is_ok());
        assert!(refused_as_too_deep(parse_pattern(&parens(MAX_NESTING + 1))));
        assert!(refused_as_too_deep(parse_pattern(&parens(10_000))));
        // Each `!` is a node of the tree, and so is the FILTER above them.
        let bangs = |n: usize| format!("{{ ?X p ?Y }} FILTER ({}bound(?X))", "!".repeat(n));
        assert!(parse_pattern(&bangs(MAX_NESTING - 1)).is_ok());
        assert!(refused_as_too_deep(parse_pattern(&bangs(MAX_NESTING))));
        assert!(refused_as_too_deep(parse_pattern(&bangs(10_000))));
    }

    #[test]
    fn operator_chains_are_bounded_by_the_height_they_build() {
        // n operands make a left-deep chain of n − 1 operator nodes.
        let union = |n: usize| {
            format!(
                "SELECT ?X WHERE {{ ?X p ?Y }}{}",
                " UNION { ?X p ?Y }".repeat(n - 1)
            )
        };
        assert!(parse_select(&union(MAX_NESTING + 1)).is_ok());
        assert!(refused_as_too_deep(parse_select(&union(MAX_NESTING + 2))));
        assert!(refused_as_too_deep(parse_select(&union(10_000))));
        let siblings = |n: usize| format!("{{ {}}}", "{ ?X p ?Y } ".repeat(n));
        assert!(parse_pattern(&siblings(MAX_NESTING + 1)).is_ok());
        assert!(refused_as_too_deep(parse_pattern(&siblings(
            MAX_NESTING + 2
        ))));
        let or = |n: usize| format!("{{ ?X p ?Y }} FILTER ({})", vec!["?X = a"; n].join(" || "));
        // The FILTER node sits on top of the chain.
        assert!(parse_pattern(&or(MAX_NESTING)).is_ok());
        assert!(refused_as_too_deep(parse_pattern(&or(MAX_NESTING + 1))));
        assert!(refused_as_too_deep(parse_pattern(&or(10_000))));
    }

    #[test]
    fn a_keyword_in_predicate_position() {
        let p = parse_pattern("{ ?X a owl:Class }").unwrap();
        let GraphPattern::Basic(ts) = p else { panic!() };
        assert_eq!(ts[0].p, PatternTerm::Const(intern("rdf:type")));
    }
}
