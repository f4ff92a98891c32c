//! Review probe: adversarial incremental-maintenance scenarios.

use std::collections::BTreeSet;
use triq_common::{Delta, Result};
use triq_datalog::{
    parse_program, ChaseConfig, ChaseRunner, Database, DeltaSummary, MaterializedView,
};

/// A maintained view and its model: the facts, kept beside the view
/// and mutated by the same deltas, which the oracle chases.
struct Probe {
    view: MaterializedView,
    model: Database,
}

impl Probe {
    fn apply(&mut self, delta: &Delta) -> Result<DeltaSummary> {
        for f in &delta.deletes {
            self.model.remove_row(f.pred, &f.args);
        }
        for f in &delta.inserts {
            self.model.add_row(f.pred, &f.args);
        }
        self.view.apply(delta)
    }
}

fn view(program: &str, facts: &[(&str, &[&str])]) -> Probe {
    let p = parse_program(program).unwrap();
    let runner = ChaseRunner::new(p, ChaseConfig::default()).unwrap();
    let mut db = Database::new();
    for (pred, args) in facts {
        db.add_fact(pred, args);
    }
    Probe {
        view: MaterializedView::new(runner, db.clone()).unwrap(),
        model: db,
    }
}

fn facts(db: &Database) -> BTreeSet<String> {
    db.iter().map(|a| a.to_string()).collect()
}

fn assert_matches_scratch(p: &Probe) {
    let v = &p.view;
    assert_eq!(facts(&v.database()), facts(&p.model), "the view's facts");
    let scratch = v.runner().run(&p.model).unwrap();
    assert_eq!(scratch.inconsistent, v.outcome().inconsistent);
    let got: BTreeSet<String> = v.instance().iter().map(|(_, a)| a.to_string()).collect();
    let want: BTreeSet<String> = scratch
        .instance
        .iter()
        .map(|(_, a)| a.to_string())
        .collect();
    assert_eq!(got, want);
}

#[test]
fn victim_with_surviving_alternative_binding_same_rule() {
    // r(c)'s recorded derivation is this very rule, but via W=w1 or
    // W=w2; inserting p(w1) pivots a match that victimizes r(c) even
    // though the W=w2 support survives. It must be rederived.
    let program = "a(?X, ?W), !p(?W) -> r(?X).";
    let mut v = view(program, &[("a", &["c", "w1"]), ("a", &["c", "w2"])]);
    assert_matches_scratch(&v);
    let s = v.apply(&Delta::new().insert("p", &["w1"])).unwrap();
    assert_eq!(s.rebuild, None);
    assert_matches_scratch(&v);
    // And deleting it un-blocks again.
    v.apply(&Delta::new().delete("p", &["w1"])).unwrap();
    assert_matches_scratch(&v);
}

#[test]
fn multihead_victim_cycle_terminates() {
    // Multi-head rule lifted high victimizing a low-stratum pred, plus a
    // higher-stratum multi-head rule negating r that victimizes another
    // low pred — tries to force repeated re-entry through the same
    // strata.
    let program = "base(?X) -> low(?X).\n\
                   a(?X, ?W), !p(?W) -> r(?X), z(?X).\n\
                   w(?X), !r(?X) -> q(?X), low(?X).\n\
                   q(?X), !z(?X) -> out(?X).";
    let mut v = view(
        program,
        &[
            ("base", &["c"]),
            ("a", &["c", "w1"]),
            ("a", &["c", "w2"]),
            ("w", &["c"]),
        ],
    );
    assert_matches_scratch(&v);
    let _ = v.apply(&Delta::new().insert("p", &["w1"])).unwrap();
    assert_matches_scratch(&v);
    let _ = v.apply(&Delta::new().insert("p", &["w2"])).unwrap();
    assert_matches_scratch(&v);
    let _ = v.apply(&Delta::new().delete("p", &["w1"])).unwrap();
    assert_matches_scratch(&v);
}

#[test]
fn chained_negation_delete_and_insert() {
    let program = "b(?X) -> p(?X).\n\
                   a(?X), !p(?X) -> s(?X).\n\
                   c(?X), !s(?X) -> t(?X).";
    let mut v = view(program, &[("b", &["x"]), ("a", &["x"]), ("c", &["x"])]);
    assert_matches_scratch(&v);
    // Delete b(x): p(x) dies, s(x) appears, t(x) dies.
    let s = v.apply(&Delta::new().delete("b", &["x"])).unwrap();
    assert_eq!(s.rebuild, None);
    assert_matches_scratch(&v);
    // Re-insert: everything flips back.
    let s = v.apply(&Delta::new().insert("b", &["x"])).unwrap();
    assert_eq!(s.rebuild, None);
    assert_matches_scratch(&v);
}

#[test]
fn delete_unblocks_existential_rule() {
    let program = "person(?X), !blocked(?X) -> exists ?Y parent(?X, ?Y).\n\
                   parent(?X, ?Y) -> haskid(?X).";
    let mut v = view(program, &[("person", &["alice"]), ("blocked", &["alice"])]);
    assert_eq!(v.view.outcome().stats.nulls, 0);
    let s = v
        .apply(&Delta::new().delete("blocked", &["alice"]))
        .unwrap();
    // Whether incremental or rebuild, the ground part must match.
    assert_eq!(
        facts(&v.view.database()),
        facts(&v.model),
        "the view's facts"
    );
    let scratch = v.view.runner().run(&v.model).unwrap();
    assert_eq!(
        v.view.instance().live_len(),
        scratch.instance.live_len(),
        "rebuild={:?}",
        s.rebuild
    );
}
