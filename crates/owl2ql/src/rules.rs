//! The fixed program `τ_owl2ql_core` of §5.2 — the Datalog∃,¬s,⊥ encoding
//! of the OWL 2 QL core direct-semantics entailment regime — and the
//! database bridge `τ_db`.
//!
//! The program is *fixed*: it does not depend on the queried graph pattern
//! or on the ontology, which is exactly the "black box" property §5.2
//! emphasizes (and the notion behind "good candidates" in §6.2).
//!
//! It comes in two forms over the same rules. [`tau_owl2ql_core`] is the
//! literal program, the oracle: `EntailmentOracle`, the reference
//! evaluator and `tests/one_thread_layout.rs` chase it as written. A
//! session serves it through [`tau_owl2ql_unions`]: `triple1` atoms read
//! `triple`, `type` (as `triple1(x, rdf:type, y)`) and their own rows,
//! so the two rules that only copy into `triple1` are never chased and
//! each entailment is stored once — 139,096 atoms instead of 221,419 on
//! a 43,305-triple graph (see "The served regime closure" in
//! `docs/ARCHITECTURE.md`).

use std::sync::OnceLock;
use triq_common::intern;
use triq_datalog::{parse_program, Database, Program, Union, Unions};
use triq_rdf::Graph;

/// `τ_db(G)`: the database `{triple(a,b,c) | (a,b,c) ∈ G}` (§5.1).
///
/// The graph's subjects/predicates/objects are already interned
/// [`Symbol`](triq_common::Symbol)s, so the bridge adopts three
/// pre-built s/p/o columns wholesale via [`Database::bulk_rows`] — no
/// string round-trip, no per-row dedup probe against the growing store
/// (the graph is already a set). Byte-identical (under re-encoding) to
/// the old per-row `add_row` loop, in graph iteration order.
pub fn tau_db(graph: &Graph) -> Database {
    let triple = intern("triple");
    let n = graph.len();
    let mut s = Vec::with_capacity(n);
    let mut p = Vec::with_capacity(n);
    let mut o = Vec::with_capacity(n);
    for t in graph.iter() {
        s.push(t.s);
        p.push(t.p);
        o.push(t.o);
    }
    Database::bulk_rows(triple, vec![s, p, o]).expect("three equal-length columns cannot be ragged")
}

/// The fixed program `τ_owl2ql_core` (§5.2), with the predicate `C`
/// spelled `adom` and `owl:someValueFrom` normalized to the W3C spelling
/// `owl:someValuesFrom`.
///
/// One deliberate deviation from the listing in the paper (recorded in
/// DESIGN.md): the paper's reflexivity rules
/// `type(?X, owl:Class) → sc(?X, ?X)` and
/// `type(?X, owl:ObjectProperty) → sp(?X, ?X)` read off the *derived*
/// `type` predicate, whose first position is affected (nulls can be typed
/// via restrictions). That would make the `sc`/`sp` positions affected and
/// the transitivity rules non-warded — contradicting Corollary 6.2. We
/// instead derive reflexivity from the *declaration triples*, which the
/// §5.2 RDF representation of an ontology always contains; this preserves
/// the entailment regime (reflexivity is only ever needed for declared
/// vocabulary elements, which are constants) and makes the program warded
/// as the paper claims.
///
/// The text is parsed once per process; each call clones the program.
/// This literal program is the oracle the served form is checked
/// against: [`tau_owl2ql_unions`] serves it without its two copy rules.
pub fn tau_owl2ql_core() -> Program {
    static TAU: OnceLock<Program> = OnceLock::new();
    TAU.get_or_init(parse_tau).clone()
}

fn parse_tau() -> Program {
    parse_program(
        "# the active domain predicate C (rule 16)\n\
         triple(?X, ?Y, ?Z) -> adom(?X), adom(?Y), adom(?Z).\n\
         # ontology-element extraction\n\
         triple(?X, rdf:type, ?Y) -> type(?X, ?Y).\n\
         triple(?X, rdfs:subPropertyOf, ?Y) -> sp(?X, ?Y).\n\
         triple(?X, owl:inverseOf, ?Y) -> inv(?X, ?Y).\n\
         triple(?X, rdf:type, owl:Restriction), \
         triple(?X, owl:onProperty, ?Y), \
         triple(?X, owl:someValuesFrom, owl:Thing) -> restriction(?X, ?Y).\n\
         # the paper's §5.2 spelling of the same primitive\n\
         triple(?X, rdf:type, owl:Restriction), \
         triple(?X, owl:onProperty, ?Y), \
         triple(?X, owl:someValueFrom, owl:Thing) -> restriction(?X, ?Y).\n\
         triple(?X, rdfs:subClassOf, ?Y) -> sc(?X, ?Y).\n\
         triple(?X, owl:disjointWith, ?Y) -> disj(?X, ?Y).\n\
         triple(?X, owl:propertyDisjointWith, ?Y) -> disj_property(?X, ?Y).\n\
         triple(?X, ?Y, ?Z) -> triple1(?X, ?Y, ?Z).\n\
         # reasoning about properties\n\
         sp(?X1, ?X2), inv(?Y1, ?X1), inv(?Y2, ?X2) -> sp(?Y1, ?Y2).\n\
         triple(?X, rdf:type, owl:ObjectProperty) -> sp(?X, ?X).\n\
         sp(?X, ?Y), sp(?Y, ?Z) -> sp(?X, ?Z).\n\
         # reasoning about classes\n\
         sp(?X1, ?X2), restriction(?Y1, ?X1), restriction(?Y2, ?X2) -> sc(?Y1, ?Y2).\n\
         triple(?X, rdf:type, owl:Class) -> sc(?X, ?X).\n\
         sc(?X, ?Y), sc(?Y, ?Z) -> sc(?X, ?Z).\n\
         # reasoning about disjointness\n\
         disj(?X1, ?X2), sc(?Y1, ?X1), sc(?Y2, ?X2) -> disj(?Y1, ?Y2).\n\
         disj_property(?X1, ?X2), sp(?Y1, ?X1), sp(?Y2, ?X2) -> disj_property(?Y1, ?Y2).\n\
         # reasoning about membership assertions\n\
         triple1(?X, ?U, ?Y), sp(?U, ?V) -> triple1(?X, ?V, ?Y).\n\
         triple1(?X, ?U, ?Y), inv(?U, ?V) -> triple1(?Y, ?V, ?X).\n\
         type(?X, ?Y), restriction(?Y, ?U) -> exists ?Z triple1(?X, ?U, ?Z).\n\
         type(?X, ?Y) -> triple1(?X, rdf:type, ?Y).\n\
         type(?X, ?Y), sc(?Y, ?Z) -> type(?X, ?Z).\n\
         triple1(?X, ?U, ?Y), restriction(?Z, ?U) -> type(?X, ?Z).\n\
         # negative constraints\n\
         type(?X, ?Y), type(?X, ?Z), disj(?Y, ?Z) -> false.\n\
         triple1(?X, ?U, ?Y), triple1(?X, ?V, ?Y), disj_property(?U, ?V) -> false.",
    )
    .expect("τ_owl2ql_core is well-formed")
}

/// The union reads that serve [`tau_owl2ql_core`] with one atom per
/// entailment: a `triple1` body atom reads `triple`, `type` as
/// `triple1(x, rdf:type, y)` and `triple1`'s own rows, so the copy rules
/// `triple(?X, ?Y, ?Z) → triple1(?X, ?Y, ?Z)` and
/// `type(?X, ?Y) → triple1(?X, rdf:type, ?Y)` are never chased, and
/// `triple1` keeps only what the property, inverse and ∃ rules (and
/// rule libraries) derive beyond them. The union holds exactly what the
/// two rules would have copied, so every answer and ⊤ stay the literal
/// program's (see "The served regime closure" in
/// `docs/ARCHITECTURE.md`).
pub fn tau_owl2ql_unions() -> Unions {
    static UNIONS: OnceLock<Unions> = OnceLock::new();
    UNIONS
        .get_or_init(|| {
            let sources = tau_owl2ql_core()
                .rules
                .iter()
                .filter_map(Union::of_rule)
                .filter(|u| u.pred == triple1_pred())
                .collect();
            Unions::new(sources).expect("τ_owl2ql_core's copy rules are unions")
        })
        .clone()
}

/// The predicate holding the saturated triples (`triple1` in §5.2).
pub fn triple1_pred() -> triq_common::Symbol {
    intern("triple1")
}

/// The active-domain predicate (`C` in §5.2).
pub fn adom_pred() -> triq_common::Symbol {
    intern("adom")
}

#[cfg(test)]
mod tests {
    use super::*;
    use triq_datalog::classify_program;

    #[test]
    fn tau_owl2ql_core_is_warded_and_stratified() {
        let p = tau_owl2ql_core();
        let c = classify_program(&p);
        assert!(c.stratified);
        assert!(
            c.warded,
            "Corollary 6.2 requires wardedness: {:?}",
            c.violations
        );
        assert!(c.grounded_negation); // no negation at all
        assert!(c.is_triq_lite_1_0());
        // It is NOT nearly frontier-guarded — the model-theoretic point of
        // §6.2 (Proposition 6.4): the regime needs the UGCP.
        assert!(!c.nearly_frontier_guarded);
    }

    #[test]
    fn the_served_form_reads_the_two_copy_rules() {
        let unions = tau_owl2ql_unions();
        let program = tau_owl2ql_core();
        let served: Vec<_> = program.rules.iter().filter(|r| unions.serves(r)).collect();
        assert_eq!(served.len(), 2, "exactly the copy and mirror rules");
        assert_eq!(
            unions.to_string(),
            "@union triple(?X0, ?X1, ?X2) -> triple1(?X0, ?X1, ?X2).\n\
             @union type(?X0, ?X1) -> triple1(?X0, rdf:type, ?X1).\n"
        );
    }

    #[test]
    fn tau_db_bridges_graphs() {
        let mut g = Graph::new();
        g.insert_strs("a", "p", "b");
        let db = tau_db(&g);
        assert_eq!(db.len(), 1);
        assert!(db.domain().contains(&intern("p")));
    }
}
