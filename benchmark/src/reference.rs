//! The answer oracle: the same generated inputs evaluated in this
//! process through the `triq` facade, from scratch, and compared row set
//! by row set with what the server sent over the wire.

use crate::gen::{Kind, Query};
use crate::json::{self, Value};
use triq::prelude::*;

/// Answer rows as the wire carries them: one cell per projected
/// variable, `None` for an unbound one.
pub type Rows = Vec<Vec<Option<String>>>;

/// A decoded `POST /query` response body.
#[derive(Debug, PartialEq)]
pub struct Answer {
    pub version: u64,
    pub top: bool,
    /// Sorted.
    pub rows: Rows,
}

/// Parses a `/query` response body.
pub fn parse_answer(body: &str) -> Result<Answer, String> {
    let v = json::parse(body)?;
    let field = |name: &str| {
        v.get(name)
            .ok_or_else(|| format!("response lacks `{name}`"))
    };
    let mut rows: Rows = field("rows")?
        .as_array()
        .ok_or("`rows` is not an array")?
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or("a row is not an array".to_string())?
                .iter()
                .map(|cell| match cell {
                    Value::Null => Ok(None),
                    Value::Str(s) => Ok(Some(s.clone())),
                    other => Err(format!("unexpected cell {other}")),
                })
                .collect()
        })
        .collect::<Result<_, String>>()?;
    rows.sort();
    Ok(Answer {
        version: field("version")?
            .as_f64()
            .ok_or("`version` is not a number")? as u64,
        top: field("top")? == &Value::Bool(true),
        rows,
    })
}

/// An in-process engine and session over the generated inputs.
pub struct Reference {
    engine: Engine,
    session: Session,
}

impl Reference {
    pub fn new(graph_ttl: &str, rules_dl: &str) -> Result<Reference, TriqError> {
        let engine = Engine::builder().library(parse_program(rules_dl)?).build();
        let session = engine.load_graph(parse_turtle(graph_ttl)?);
        Ok(Reference { engine, session })
    }

    /// Applies a `POST /update` body to the fact set.
    pub fn update(&mut self, body: &str) -> Result<(), TriqError> {
        let delta = triq_server::parse_update_text(body)?;
        self.session.apply_delta(&delta);
        Ok(())
    }

    /// The sorted answer rows of `q` over the current fact set, chased
    /// from scratch: maintained state is dropped first, so this never
    /// takes the incremental path the server took.
    pub fn rows(&mut self, q: &Query) -> Result<(bool, Rows), TriqError> {
        self.session.invalidate();
        let prepared = match q.kind {
            Kind::Rules => self.engine.prepare(Datalog(&q.text, "out"))?,
            kind => {
                let semantics = match kind {
                    Kind::Plain => Semantics::Plain,
                    Kind::Ku => Semantics::RegimeU,
                    _ => Semantics::RegimeAll,
                };
                self.engine.prepare((parse_select(&q.text)?, semantics))?
            }
        };
        let (top, mut rows): (bool, Rows) = match prepared.vars() {
            None => {
                let answers = prepared.execute(&self.session)?;
                let rows = answers
                    .tuples()
                    .iter()
                    .map(|t| t.iter().map(|s| Some(s.as_str().to_string())).collect())
                    .collect();
                (
                    answers.is_top(),
                    if answers.is_top() { Vec::new() } else { rows },
                )
            }
            Some(vars) => match prepared.mappings(&self.session)? {
                RegimeAnswers::Top => (true, Vec::new()),
                RegimeAnswers::Mappings(ms) => {
                    let rows = ms
                        .iter()
                        .map(|m| {
                            vars.iter()
                                .map(|v| m.get(*v).map(|s| s.as_str().to_string()))
                                .collect()
                        })
                        .collect();
                    (false, rows)
                }
            },
        };
        rows.sort();
        rows.dedup();
        Ok((top, rows))
    }

    /// Checks one response body of `q` against this fact set.
    pub fn check(&mut self, q: &Query, body: &str) -> Result<(), String> {
        let got = parse_answer(body)?;
        let (top, rows) = self.rows(q).map_err(|e| format!("reference failed: {e}"))?;
        if got.top != top || got.rows != rows {
            return Err(format!(
                "answer differs for {:?}: server sent {} row(s) top={}, reference has {} top={}",
                q.text,
                got.rows.len(),
                got.top,
                rows.len(),
                top
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_sorts_an_answer_body() {
        let a = parse_answer(
            r#"{"version":7,"vars":["X","Y"],"top":false,"rows":[["b",null],["a","c"]]}"#,
        )
        .unwrap();
        assert_eq!(a.version, 7);
        assert!(!a.top);
        assert_eq!(
            a.rows,
            vec![
                vec![Some("a".to_string()), Some("c".to_string())],
                vec![Some("b".to_string()), None]
            ]
        );
        assert!(parse_answer(r#"{"version":1,"top":false}"#).is_err());
    }
}
