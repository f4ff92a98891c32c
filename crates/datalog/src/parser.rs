//! Text syntax for Datalog∃,¬s,⊥ programs, mirroring the paper's notation.
//!
//! ```text
//! # §2: recursive transport query
//! triple(?X, partOf, transportService) -> ts(?X).
//! triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
//! ts(?T), triple(?X, ?T, ?Y) -> query(?X, ?Y).
//! ts(?T), triple(?X, ?T, ?Z), query(?Z, ?Y) -> query(?X, ?Y).
//!
//! # existentials, negation, builtins and constraints:
//! subj(?X) -> exists ?Y bn(?X, ?Y).
//! less(?X, ?Y), !not_min(?X) -> zero(?X).
//! p(?X, ?Y), ?X != ?Y -> q(?X).
//! type(?X, ?Y), type(?X, ?Z), disj(?Y, ?Z) -> false.
//! ```
//!
//! * Variables start with `?`; everything else is a constant (bare word or
//!   `"quoted string"`).
//! * `!atom` is stratified negation; `false` as the head forms a constraint.
//! * `exists ?Y1 ?Y2 ...` before the head lists existential variables.
//! * Rules may have several head atoms separated by commas (footnote 6).
//! * `#` starts a line comment; each rule ends with `.`.

use crate::{Atom, Builtin, Constraint, Program, Rule};
use triq_common::{intern, Result, Term, TriqError, VarId};

fn err(message: impl Into<String>) -> TriqError {
    TriqError::Parse {
        what: "datalog",
        message: message.into(),
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Var(String),
    Str(String),
    LParen,
    RParen,
    Comma,
    Bang,
    Arrow,
    Dot,
    Eq,
    Neq,
    Exists,
    False,
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let mut toks = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        match c {
            '#' => {
                // A comment runs to the end of the line, where "line"
                // must include CR-only endings: stopping at '\n' alone
                // silently swallowed the rest of a CR-terminated program
                // (the rules after the comment simply vanished).
                for (_, ch) in chars.by_ref() {
                    if ch == '\n' || ch == '\r' {
                        break;
                    }
                }
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                chars.next();
                toks.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                toks.push(Tok::RParen);
            }
            ',' => {
                chars.next();
                toks.push(Tok::Comma);
            }
            '.' => {
                chars.next();
                toks.push(Tok::Dot);
            }
            '!' => {
                chars.next();
                if matches!(chars.peek(), Some(&(_, '='))) {
                    chars.next();
                    toks.push(Tok::Neq);
                } else {
                    toks.push(Tok::Bang);
                }
            }
            '=' => {
                chars.next();
                toks.push(Tok::Eq);
            }
            '-' => {
                chars.next();
                match chars.next() {
                    Some((_, '>')) => toks.push(Tok::Arrow),
                    _ => return Err(err(format!("stray '-' at byte {i}"))),
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
                        None => return Err(err("unterminated string literal")),
                    }
                }
                toks.push(Tok::Str(s));
            }
            '?' => {
                chars.next();
                let mut name = String::from("?");
                while let Some(&(_, ch)) = chars.peek() {
                    // '~' marks machine-generated names (the §5
                    // translation's `?blank~B~1`, `?wild~3`), which must
                    // re-parse: snapshots store programs as text.
                    if ch.is_alphanumeric() || matches!(ch, '_' | '~') {
                        name.push(ch);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if name.len() == 1 {
                    return Err(err(format!("empty variable name at byte {i}")));
                }
                toks.push(Tok::Var(name));
            }
            c if c.is_alphanumeric() || c == '_' || c == '~' => {
                let mut name = String::new();
                while let Some(&(_, ch)) = chars.peek() {
                    // Identifiers may contain ':' (rdf:type), '/', '-' is
                    // excluded (it starts '->'); dots are separators.
                    if ch.is_alphanumeric() || matches!(ch, '_' | ':' | '/' | '\'' | '~') {
                        name.push(ch);
                        chars.next();
                    } else {
                        break;
                    }
                }
                match name.as_str() {
                    "exists" => toks.push(Tok::Exists),
                    "false" => toks.push(Tok::False),
                    _ => toks.push(Tok::Ident(name)),
                }
            }
            other => return Err(err(format!("unexpected character {other:?} at byte {i}"))),
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
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

    fn term(&mut self) -> Result<Term> {
        match self.next() {
            Some(Tok::Var(name)) => Ok(Term::Var(VarId::new(&name))),
            Some(Tok::Ident(name)) => Ok(Term::Const(intern(&name))),
            Some(Tok::Str(s)) => Ok(Term::Const(intern(&s))),
            other => Err(err(format!("expected a term, found {other:?}"))),
        }
    }

    fn atom_after_name(&mut self, name: String) -> Result<Atom> {
        self.expect(Tok::LParen)?;
        let mut terms = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                terms.push(self.term()?);
                match self.next() {
                    Some(Tok::Comma) => continue,
                    Some(Tok::RParen) => break,
                    other => return Err(err(format!("expected ',' or ')', found {other:?}"))),
                }
            }
        } else {
            self.next();
        }
        Ok(Atom::new(intern(&name), terms))
    }

    /// A body literal: positive atom, negated atom, or builtin.
    fn body_literal(&mut self) -> Result<BodyLit> {
        match self.next() {
            Some(Tok::Bang) => match self.next() {
                Some(Tok::Ident(name)) => Ok(BodyLit::Neg(self.atom_after_name(name)?)),
                other => Err(err(format!("expected atom after '!', found {other:?}"))),
            },
            Some(Tok::Ident(name)) => {
                if self.peek() == Some(&Tok::LParen) {
                    Ok(BodyLit::Pos(self.atom_after_name(name)?))
                } else {
                    // A constant on the left of a builtin.
                    self.builtin_rest(Term::Const(intern(&name)))
                }
            }
            Some(Tok::Var(name)) => self.builtin_rest(Term::Var(VarId::new(&name))),
            Some(Tok::Str(s)) => self.builtin_rest(Term::Const(intern(&s))),
            other => Err(err(format!("expected body literal, found {other:?}"))),
        }
    }

    fn builtin_rest(&mut self, lhs: Term) -> Result<BodyLit> {
        let op = self.next();
        let rhs = self.term()?;
        match op {
            Some(Tok::Eq) => Ok(BodyLit::Builtin(Builtin::Eq(lhs, rhs))),
            Some(Tok::Neq) => Ok(BodyLit::Builtin(Builtin::Neq(lhs, rhs))),
            other => Err(err(format!("expected '=' or '!=', found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Stmt> {
        let mut body_pos = Vec::new();
        let mut body_neg = Vec::new();
        let mut builtins = Vec::new();
        loop {
            match self.body_literal()? {
                BodyLit::Pos(a) => body_pos.push(a),
                BodyLit::Neg(a) => body_neg.push(a),
                BodyLit::Builtin(b) => builtins.push(b),
            }
            match self.next() {
                Some(Tok::Comma) => continue,
                Some(Tok::Arrow) => break,
                other => return Err(err(format!("expected ',' or '->', found {other:?}"))),
            }
        }
        // Head: `false`, or `exists ?Y... atoms`, or atoms.
        if self.peek() == Some(&Tok::False) {
            self.next();
            self.expect(Tok::Dot)?;
            if !body_neg.is_empty() {
                return Err(err(
                    "constraints (rules with head 'false') may not contain \
                     negated atoms (§3.2)",
                ));
            }
            return Ok(Stmt::Constraint(Constraint {
                body: body_pos,
                builtins,
            }));
        }
        let mut exist_vars = Vec::new();
        if self.peek() == Some(&Tok::Exists) {
            self.next();
            while let Some(Tok::Var(_)) = self.peek() {
                if let Some(Tok::Var(name)) = self.next() {
                    exist_vars.push(VarId::new(&name));
                }
            }
            if exist_vars.is_empty() {
                return Err(err("'exists' must be followed by variables"));
            }
        }
        let mut head = Vec::new();
        loop {
            match self.next() {
                Some(Tok::Ident(name)) => head.push(self.atom_after_name(name)?),
                other => return Err(err(format!("expected head atom, found {other:?}"))),
            }
            match self.next() {
                Some(Tok::Comma) => continue,
                Some(Tok::Dot) => break,
                other => return Err(err(format!("expected ',' or '.', found {other:?}"))),
            }
        }
        Ok(Stmt::Rule(Rule {
            body_pos,
            body_neg,
            builtins,
            exist_vars,
            head,
        }))
    }
}

enum BodyLit {
    Pos(Atom),
    Neg(Atom),
    Builtin(Builtin),
}

enum Stmt {
    Rule(Rule),
    Constraint(Constraint),
}

/// Parses a full program.
pub fn parse_program(input: &str) -> Result<Program> {
    let mut parser = Parser {
        toks: lex(input)?,
        pos: 0,
    };
    let mut program = Program::new();
    while parser.peek().is_some() {
        match parser.statement()? {
            Stmt::Rule(r) => program.rules.push(r),
            Stmt::Constraint(c) => program.constraints.push(c),
        }
    }
    program.validate()?;
    Ok(program)
}

/// Parses a single (possibly non-ground) atom, e.g. `triple(a, ?X, b)`.
pub fn parse_atom(input: &str) -> Result<Atom> {
    let mut parser = Parser {
        toks: lex(input)?,
        pos: 0,
    };
    let atom = match parser.next() {
        Some(Tok::Ident(name)) => parser.atom_after_name(name)?,
        other => return Err(err(format!("expected atom, found {other:?}"))),
    };
    if parser.peek().is_some() && parser.peek() != Some(&Tok::Dot) {
        return Err(err("trailing input after atom"));
    }
    Ok(atom)
}

/// Parses a program and wraps it as a query `(Π, p)` with output predicate
/// `output_pred` (§3.2: `p` must not occur in any rule body).
pub fn parse_query(input: &str, output_pred: &str) -> Result<crate::Query> {
    let program = parse_program(input)?;
    crate::Query::new(program, intern(output_pred))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_transport_rules() {
        let p = parse_program(
            "triple(?X, partOf, transportService) -> ts(?X).\n\
             triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).\n\
             ts(?T), triple(?X, ?T, ?Y) -> query(?X, ?Y).\n\
             ts(?T), triple(?X, ?T, ?Z), query(?Z, ?Y) -> query(?X, ?Y).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 4);
        assert_eq!(p.rules[0].body_pos[0].pred.as_str(), "triple");
        assert_eq!(p.rules[0].body_pos[0].terms[1], Term::constant("partOf"));
    }

    #[test]
    fn parses_existential_rule() {
        let p = parse_program(
            "triple(?X, is_coauthor_of, ?Y) -> exists ?Z \
             triple2(?X, is_author_of, ?Z), triple2(?Y, is_author_of, ?Z).",
        )
        .unwrap();
        let r = &p.rules[0];
        assert_eq!(r.exist_vars, vec![VarId::new("Z")]);
        assert_eq!(r.head.len(), 2);
    }

    #[test]
    fn parses_negation_and_constraint() {
        let p = parse_program(
            "less(?X, ?Y), !not_min(?X) -> zero(?X).\n\
             type(?X, ?Y), type(?X, ?Z), disj(?Y, ?Z) -> false.",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 1);
        assert_eq!(p.constraints.len(), 1);
        assert_eq!(p.rules[0].body_neg.len(), 1);
        assert_eq!(p.constraints[0].body.len(), 3);
    }

    #[test]
    fn parses_builtins() {
        let p =
            parse_program("p(?X, ?Y), ?X != ?Y -> q(?X).\n p(?X, ?Y), ?X = a -> r(?X).").unwrap();
        assert_eq!(
            p.rules[0].builtins,
            vec![Builtin::Neq(
                Term::Var(VarId::new("X")),
                Term::Var(VarId::new("Y"))
            )]
        );
        assert_eq!(
            p.rules[1].builtins,
            vec![Builtin::Eq(Term::Var(VarId::new("X")), Term::constant("a"))]
        );
    }

    #[test]
    fn parses_strings_and_comments() {
        let p =
            parse_program("# find Ullman\ntriple(?X, name, \"Jeffrey Ullman\") -> q(?X). # done\n")
                .unwrap();
        assert_eq!(
            p.rules[0].body_pos[0].terms[2],
            Term::constant("Jeffrey Ullman")
        );
    }

    #[test]
    fn roundtrip_display_parse() {
        let src = "p(?X, c), !n(?X), ?X != d -> exists ?Y q(?X, ?Y).";
        let p = parse_program(src).unwrap();
        let printed = p.to_string();
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_program("p(?X -> q(?X).").is_err());
        assert!(parse_program("p(?X) -> q(?Y).").is_err()); // unbound head var
        assert!(parse_program("p(?X) q(?X).").is_err());
        assert!(parse_program("-> q(a).").is_err());
        assert!(parse_program("p(?X) -> exists q(?X).").is_err());
    }

    #[test]
    fn parse_atom_works() {
        let a = parse_atom("triple(a, ?X, \"lit\")").unwrap();
        assert_eq!(a.pred.as_str(), "triple");
        assert_eq!(a.terms.len(), 3);
        assert!(parse_atom("p(").is_err());
    }
}
