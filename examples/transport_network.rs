//! The transport-services scenario closing §2 of the paper: which pairs of
//! cities are connected by chains of transport services? The query needs
//! simultaneous navigation in two directions (service chains of arbitrary
//! length, and `partOf` chains of arbitrary length up to
//! `transportService`), which SPARQL 1.1 property paths cannot express —
//! but four recursive Datalog rules can.
//!
//! The rules are prepared **once** and executed against two sessions: the
//! paper's figure and a 60-city synthetic network — the prepare-once /
//! execute-many lifecycle the facade exists for.
//!
//! Run with: `cargo run --example transport_network`

use triq::prelude::*;
use triq::rdf::{transport_graph, TransportSpec};

fn main() -> Result<(), TriqError> {
    let engine = Engine::new();
    let connected = engine.prepare(Datalog(
        "# collect all transport services (partOf chains of any length)\n\
         triple(?X, partOf, transportService) -> ts(?X).\n\
         triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).\n\
         # connected city pairs (service chains of any length)\n\
         ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).\n\
         ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y).\n\
         conn(?X, ?Y) -> query(?X, ?Y).",
        "query",
    ))?;
    assert!(connected.classification().is_triq_lite_1_0());

    // The Oxford–London–Madrid–Valladolid graph from the paper's figure.
    let mut session = engine.load_turtle(
        "TheAirline partOf transportService .\n\
         BritishAirways partOf transportService .\n\
         Renfe partOf transportService .\n\
         A311 partOf TheAirline .\n\
         BA201 partOf BritishAirways .\n\
         R502 partOf Renfe .\n\
         Oxford A311 London .\n\
         London BA201 Madrid .\n\
         Madrid R502 Valladolid .",
    )?;
    // A deeper partOf chain, as the paper notes can happen: TheAirline is
    // also a bus service, which is itself a transport service.
    session.insert_triple("A311", "alsoPartOf", "busService");

    let answers = connected.execute(&session)?;
    println!("Connected city pairs (paper figure):");
    for t in answers.tuples() {
        println!("  {} => {}", t[0], t[1]);
    }
    assert!(answers.contains(&["Oxford", "Valladolid"]));

    // Scale it up with the synthetic generator: 60 cities, 7 operators,
    // partOf chains of depth 3 — same prepared plan, new session.
    let big = engine.load_graph(transport_graph(TransportSpec {
        cities: 60,
        operators: 7,
        part_of_depth: 3,
    }));
    // Stream the answers: no BTreeSet materialization for the big result.
    let pairs = connected.execute_iter(&big)?.count();
    println!(
        "\nSynthetic network: {} triples, {} connected pairs \
         (expected {} for a line of 60 cities).",
        big.graph().len(),
        pairs,
        59 * 60 / 2,
    );

    let stats = engine.stats();
    println!(
        "\nOne prepared query, {} executions, {} chase runs.",
        stats.executions, stats.chase_runs
    );
    Ok(())
}
