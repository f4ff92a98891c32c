//! Quickstart: the opening examples of §2 of the paper on the
//! `Engine`/`Session`/`PreparedQuery` facade — load an RDF graph into a
//! session, prepare queries once (SPARQL and TriQ-Lite 1.0 rules), execute
//! them repeatedly, and produce a new graph with CONSTRUCT.
//!
//! Run with: `cargo run --example quickstart`

use triq::prelude::*;

fn main() -> Result<(), TriqError> {
    let engine = Engine::new();

    // The graph G2 of §2, bridged through τ_db once at load time.
    let session = engine.load_turtle(
        "dbUllman is_author_of \"The Complete Book\" .\n\
         dbUllman name \"Jeffrey Ullman\" .\n\
         dbAho is_coauthor_of dbUllman .\n\
         dbAho name \"Alfred Aho\" .",
    )?;
    println!("Loaded {} triples.", session.graph().len());

    // --- SPARQL query (1): the authors' names ---------------------------
    // Prepared once: parsing, §5 translation and stratification happen
    // here, not per execution.
    let authors = engine.prepare(Sparql(
        "SELECT ?X WHERE { ?Y is_author_of ?Z . ?Y name ?X }",
    ))?;
    println!("\nSPARQL query (1) — authors:");
    for name in authors.bindings_of(&session, "X")? {
        println!("  {name}");
    }

    // --- The same query as a rule program, query (2) of the paper -------
    let rule_query = engine.prepare(Datalog(
        "triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> query(?X).",
        "query",
    ))?;
    println!("\nTriQ-Lite 1.0 rule (2) — authors:");
    for tuple in rule_query.execute_iter(&session)? {
        println!("  {}", tuple[0]);
    }

    // A prepared query is not tied to one dataset: the same plan runs
    // against any session without re-preparation.
    let other = engine.load_turtle(
        "dbKnuth is_author_of \"TAOCP\" .\n\
         dbKnuth name \"Donald Knuth\" .",
    )?;
    println!("\nThe same prepared rule on a second session:");
    for tuple in rule_query.execute_iter(&other)? {
        println!("  {}", tuple[0]);
    }

    // --- CONSTRUCT query (3): produce a new RDF graph -------------------
    let construct = parse_construct(
        "CONSTRUCT { ?X name_author ?Z } WHERE { ?Y is_author_of ?Z . ?Y name ?X }",
    )?;
    let derived = construct.evaluate(&session.graph());
    println!("\nCONSTRUCT output graph:");
    print!("{}", to_turtle(&derived));

    // --- Rule (3): the same CONSTRUCT as a plain rule --------------------
    let rule3 = engine.prepare(Datalog(
        "triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> \
            result(?X, name_author, ?Z).",
        "result",
    ))?;
    println!("\nRule (3) output triples:");
    for t in rule3.execute_iter(&session)? {
        println!("  ({}, {}, {})", t[0], t[1], t[2]);
    }

    // --- Query (4): invent a shared publication per coauthor pair -------
    let collaborated = engine.prepare(Datalog(
        "triple(?X, is_coauthor_of, ?Y) -> exists ?Z \
            authored(?X, ?Z), authored(?Y, ?Z).\n\
         authored(?X, ?Z), authored(?Y, ?Z), ?X != ?Y -> collaborated(?X, ?Y).",
        "collaborated",
    ))?;
    // Membership in TriQ-Lite 1.0 (Definition 6.1) is checkable on the
    // prepared plan.
    assert!(collaborated.classification().is_triq_lite_1_0());
    println!("\nExistential rule (4) — collaborations via an invented publication:");
    for t in collaborated.execute_iter(&session)? {
        println!("  {} collaborated with {}", t[0], t[1]);
    }

    // The session cached each chase outcome; repeated executions are free.
    let stats = engine.stats();
    println!(
        "\nEngine stats: {} prepared, {} executions, {} chase runs, {} cache hits.",
        stats.prepared_queries, stats.executions, stats.chase_runs, stats.cache_hits
    );
    Ok(())
}
