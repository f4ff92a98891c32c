//! Deterministic gate for the constraint check of a write: a maintained
//! view tests ⊥ against the atoms the write added, so the probes one
//! insert or delete costs do not grow with the closure — here, the same
//! `join_probes` at 900 and at 9,000 triples, while the closure's first
//! build (one full check) grows with it. And ⊤ still comes and goes
//! through whichever atom completes or breaks a violation.

use triq::prelude::*;

/// A class disjointness and a property disjointness, a few individuals,
/// and padding to about `triples` triples: the padding individuals are
/// alternately a `Left` linked to the next by `left` and a `Right` linked
/// by `right`, so both sides of each disjointness grow with the padding,
/// and so do the candidate violations a whole-closure check rules out.
fn graph(triples: usize) -> Graph {
    let mut turtle = String::from(
        "Left owl:disjointWith Right .\n\
         left owl:propertyDisjointWith right .\n\
         C0 rdfs:subClassOf Left .\n\
         sub rdfs:subPropertyOf right .\n\
         f0 rdf:type C0 .\n\
         f1 rdf:type Right .\n\
         f0 left f1 .\n",
    );
    let fixed = turtle.lines().count();
    for i in 0..(triples - fixed) / 2 {
        let (class, link) = if i % 2 == 0 {
            ("Left", "left")
        } else {
            ("Right", "right")
        };
        turtle.push_str(&format!(
            "pad{i} rdf:type {class} .\npad{i} {link} pad{} .\n",
            i + 1
        ));
    }
    parse_turtle(&turtle).unwrap()
}

/// A session over `graph(triples)` with a `ku` plan materialized.
fn session(triples: usize) -> (Engine, PreparedQuery, Session) {
    let engine = Engine::new();
    let plan = engine
        .prepare((
            parse_pattern("{ ?X rdf:type Left }").unwrap(),
            Semantics::RegimeU,
        ))
        .unwrap();
    let session = engine.load_graph(graph(triples));
    plan.execute(&session).unwrap();
    (engine, plan, session)
}

/// The `join_probes` of the closure's build, then of each write of a
/// fixed script: inserts and deletes near both disjointnesses that leave
/// the data consistent.
fn probes(triples: usize) -> Vec<u64> {
    let engine_probes = |engine: &Engine| engine.stats().join_probes;
    let (engine, plan, mut session) = session(triples);
    let mut costs = vec![engine_probes(&engine)];
    let writes: [(bool, [&str; 3]); 6] = [
        (true, ["g", "rdf:type", "C0"]),
        (true, ["g", "left", "f0"]),
        (true, ["h", "sub", "g"]),
        (false, ["g", "left", "f0"]),
        (false, ["g", "rdf:type", "C0"]),
        (false, ["f0", "left", "f1"]),
    ];
    for (insert, [s, p, o]) in writes {
        let before = engine_probes(&engine);
        if insert {
            session.insert_triple(s, p, o);
        } else {
            assert!(session.remove_triple(s, p, o));
        }
        assert!(!plan.execute(&session).unwrap().is_top(), "{s} {p} {o}");
        costs.push(engine_probes(&engine) - before);
    }
    costs
}

#[test]
fn a_write_checks_constraints_at_the_same_cost_at_900_and_9000_triples() {
    let small = probes(900);
    let large = probes(9_000);
    assert!(
        large[0] > 5 * small[0],
        "the build checks the whole closure: {} vs {}",
        small[0],
        large[0]
    );
    assert_eq!(small[1..], large[1..], "probes per write");
}

#[test]
fn a_write_makes_the_data_inconsistent_and_another_repairs_it() {
    let (engine, plan, mut session) = session(60);
    let top = |session: &Session| plan.execute(session).unwrap().is_top();
    // A class violation through a subclass, then a property violation
    // through a subproperty, each completed by its last atom.
    session.insert_triple("pad2", "rdf:type", "Right");
    assert!(top(&session));
    assert!(session.remove_triple("pad2", "rdf:type", "Right"));
    assert!(!top(&session));
    session.insert_triple("pad2", "sub", "pad3");
    assert!(top(&session));
    // Removing the other half of the violation repairs it too.
    assert!(session.remove_triple("pad2", "left", "pad3"));
    assert!(!top(&session));
    let fresh = plan
        .execute(&engine.load_database(session.database().clone()))
        .unwrap();
    assert_eq!(plan.execute(&session).unwrap(), fresh);
}
