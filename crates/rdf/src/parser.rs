//! A Turtle-lite parser.
//!
//! Supports the subset needed by the paper's examples and our fixtures:
//!
//! * `@prefix pre: <iri> .` declarations,
//! * triples `s p o .`, where each component is `<iri>`, `pre:name`,
//!   a bare word (kept verbatim, as the paper writes `dbUllman`),
//!   a quoted string literal, or `a` (sugar for `rdf:type` in predicate
//!   position),
//! * `#` line comments.
//!
//! Blank node labels (`_:b`) are accepted and kept verbatim as constants —
//! the paper folds blank nodes occurring in *graphs* into U (footnote 5).

use crate::{Graph, Triple};
use triq_common::{intern, Result, Symbol, TriqError};

fn err(message: impl Into<String>) -> TriqError {
    TriqError::Parse {
        what: "turtle",
        message: message.into(),
    }
}

struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Word(String),
    Iri(String),
    Literal(String),
    Dot,
    PrefixDecl,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_trivia(&mut self) {
        loop {
            let rest = self.rest();
            let trimmed = rest.trim_start();
            self.pos += rest.len() - trimmed.len();
            if trimmed.starts_with('#') {
                match trimmed.find('\n') {
                    Some(nl) => self.pos += nl + 1,
                    None => self.pos = self.input.len(),
                }
            } else {
                return;
            }
        }
    }

    fn next(&mut self) -> Result<Option<Token>> {
        self.skip_trivia();
        let rest = self.rest();
        let Some(c) = rest.chars().next() else {
            return Ok(None);
        };
        match c {
            '.' => {
                self.pos += 1;
                Ok(Some(Token::Dot))
            }
            '<' => {
                let end = rest.find('>').ok_or_else(|| err("unterminated IRI"))?;
                let iri = rest[1..end].to_owned();
                self.pos += end + 1;
                Ok(Some(Token::Iri(iri)))
            }
            '"' => {
                let mut out = String::new();
                let mut chars = rest.char_indices().skip(1);
                loop {
                    let Some((i, ch)) = chars.next() else {
                        return Err(err("unterminated string literal"));
                    };
                    match ch {
                        '"' => {
                            self.pos += i + 1;
                            return Ok(Some(Token::Literal(out)));
                        }
                        '\\' => {
                            let Some((_, esc)) = chars.next() else {
                                return Err(err("dangling escape in literal"));
                            };
                            out.push(match esc {
                                'n' => '\n',
                                't' => '\t',
                                other => other,
                            });
                        }
                        other => out.push(other),
                    }
                }
            }
            '@' => {
                if rest.starts_with("@prefix") {
                    self.pos += "@prefix".len();
                    Ok(Some(Token::PrefixDecl))
                } else {
                    Err(err(format!("unknown directive at {:?}", truncate(rest))))
                }
            }
            _ => {
                let end = rest
                    .find(|ch: char| ch.is_whitespace())
                    .unwrap_or(rest.len());
                // A bare word ends at whitespace; a trailing '.' glued to the
                // word (e.g. `o.`) is split off unless it is part of the word
                // interior (IRIs like `ex.org` stay intact).
                let mut word = &rest[..end];
                if word.len() > 1 && word.ends_with('.') {
                    word = &word[..word.len() - 1];
                }
                if word.is_empty() {
                    return Err(err(format!("unexpected character {c:?}")));
                }
                self.pos += word.len();
                Ok(Some(Token::Word(word.to_owned())))
            }
        }
    }
}

fn truncate(s: &str) -> &str {
    let mut end = s.len().min(24);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Parses Turtle-lite text into a [`Graph`].
pub fn parse_turtle(input: &str) -> Result<Graph> {
    let mut lexer = Lexer::new(input);
    let mut graph = Graph::new();
    let mut prefixes: Vec<(String, String)> = Vec::new();
    let mut pending: Vec<Symbol> = Vec::new();
    let mut position_in_triple = 0usize;

    let resolve = |prefixes: &[(String, String)], tok: Token| -> Result<Symbol> {
        match tok {
            Token::Iri(iri) => Ok(intern(&iri)),
            Token::Literal(l) => Ok(intern(&l)),
            Token::Word(w) => {
                if let Some(colon) = w.find(':') {
                    let (pre, local) = w.split_at(colon);
                    let local = &local[1..];
                    for (p, expansion) in prefixes.iter().rev() {
                        if p == pre {
                            return Ok(intern(&format!("{expansion}{local}")));
                        }
                    }
                }
                Ok(intern(&w))
            }
            other => Err(err(format!("expected a term, found {other:?}"))),
        }
    };

    while let Some(tok) = lexer.next()? {
        match tok {
            Token::PrefixDecl => {
                let name = match lexer.next()? {
                    Some(Token::Word(w)) => w
                        .strip_suffix(':')
                        .map(str::to_owned)
                        .ok_or_else(|| err("prefix name must end with ':'"))?,
                    other => return Err(err(format!("expected prefix name, found {other:?}"))),
                };
                let iri = match lexer.next()? {
                    Some(Token::Iri(iri)) => iri,
                    other => return Err(err(format!("expected prefix IRI, found {other:?}"))),
                };
                match lexer.next()? {
                    Some(Token::Dot) => {}
                    other => return Err(err(format!("expected '.', found {other:?}"))),
                }
                prefixes.push((name, iri));
            }
            Token::Dot => {
                if pending.len() != 3 {
                    return Err(err(format!(
                        "triple has {} component(s), expected 3",
                        pending.len()
                    )));
                }
                graph.insert(Triple::new(pending[0], pending[1], pending[2]));
                pending.clear();
                position_in_triple = 0;
            }
            term => {
                // `a` is rdf:type sugar, but only in predicate position.
                let sym = if position_in_triple == 1 && term == Token::Word("a".into()) {
                    crate::vocab::rdf_type()
                } else {
                    resolve(&prefixes, term)?
                };
                pending.push(sym);
                position_in_triple += 1;
                if pending.len() > 3 {
                    return Err(err("more than 3 terms before '.'"));
                }
            }
        }
    }
    if !pending.is_empty() {
        return Err(err("dangling terms at end of input (missing '.')"));
    }
    Ok(graph)
}

/// [`parse_turtle`], under the name the bulk-load path once used for a
/// chunked multi-threaded parse. Every parse now runs on its caller's
/// thread, so `threads` is ignored; the name stays because programs
/// compiled against the public facade (the serving benchmark among
/// them) call it.
pub fn parse_turtle_parallel(input: &str, _threads: usize) -> Result<Graph> {
    parse_turtle(input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_words() {
        let g = parse_turtle(
            "dbUllman is_author_of \"The Complete Book\" .\n\
             dbUllman name \"Jeffrey Ullman\" .",
        )
        .unwrap();
        assert_eq!(g.len(), 2);
        assert!(g.contains(&Triple::from_strs(
            "dbUllman",
            "is_author_of",
            "The Complete Book"
        )));
    }

    #[test]
    fn parses_prefixes_and_iris() {
        let g = parse_turtle(
            "@prefix ex: <http://example.org/> .\n\
             ex:a ex:p <http://example.org/b> .",
        )
        .unwrap();
        assert!(g.contains(&Triple::from_strs(
            "http://example.org/a",
            "http://example.org/p",
            "http://example.org/b"
        )));
    }

    #[test]
    fn a_is_rdf_type_sugar_only_in_predicate_position() {
        let g = parse_turtle("a a b .").unwrap();
        assert!(g.contains(&Triple::from_strs("a", "rdf:type", "b")));
    }

    #[test]
    fn comments_and_blank_lines() {
        let g = parse_turtle("# a comment\n\ns p o . # trailing\n").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn string_escapes() {
        let g = parse_turtle(r#"s p "line\nbreak \"quoted\"" ."#).unwrap();
        assert!(g.contains(&Triple::from_strs("s", "p", "line\nbreak \"quoted\"")));
    }

    #[test]
    fn error_on_malformed() {
        assert!(parse_turtle("s p .").is_err());
        assert!(parse_turtle("s p o q .").is_err());
        assert!(parse_turtle("s p o").is_err());
        assert!(parse_turtle("s p <unterminated .").is_err());
        assert!(parse_turtle("@prefix missing <x> .").is_err());
    }

    #[test]
    fn colon_names_without_declared_prefix_kept_verbatim() {
        let g = parse_turtle("x rdf:type owl:Class .").unwrap();
        assert!(g.contains(&Triple::from_strs("x", "rdf:type", "owl:Class")));
    }
}
