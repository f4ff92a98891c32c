//! Review probe: adversarial incremental-maintenance scenarios.

use triq_common::Delta;
use triq_datalog::{parse_program, ChaseConfig, ChaseRunner, Database, MaterializedView};

fn view(program: &str, facts: &[(&str, &[&str])]) -> MaterializedView {
    let p = parse_program(program).unwrap();
    let runner = ChaseRunner::new(p, ChaseConfig::default()).unwrap();
    let mut db = Database::new();
    for (pred, args) in facts {
        db.add_fact(pred, args);
    }
    MaterializedView::new(runner, db).unwrap()
}

fn assert_matches_scratch(v: &MaterializedView) {
    let scratch = v.runner().run(v.database()).unwrap();
    assert_eq!(scratch.inconsistent, v.outcome().inconsistent);
    let got: std::collections::BTreeSet<String> =
        v.instance().iter().map(|(_, a)| a.to_string()).collect();
    let want: std::collections::BTreeSet<String> = scratch
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
    assert_eq!(v.outcome().stats.nulls, 0);
    let s = v
        .apply(&Delta::new().delete("blocked", &["alice"]))
        .unwrap();
    // Whether incremental or rebuild, the ground part must match.
    let scratch = v.runner().run(v.database()).unwrap();
    assert_eq!(
        v.instance().live_len(),
        scratch.instance.live_len(),
        "rebuild={:?}",
        s.rebuild
    );
}
