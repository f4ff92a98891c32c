//! Requests that once aborted the server. A worker thread has a 2 MiB
//! stack, and a recursive-descent parser spends a frame per nesting
//! level, so a 40 KB body of nested groups overflowed it: a stack
//! overflow is an abort, not a panic, and took every connection down.
//! A long flat chain (`… UNION … UNION …`, sibling groups, `||`) is
//! parsed by a loop but builds a tree as deep as the chain, which the
//! later walks descend recursively, and aborted the same way. The
//! parsers now refuse nesting and tree height past
//! `triq_sparql::MAX_NESTING` levels with `400` / `E-PARSE`, and the
//! server keeps answering. A 481-byte `FILTER` whose disjunctive normal
//! form has 2^18 disjuncts took 6.3 s and 1 GB to translate before it
//! was refused; its expansion is now counted first and refused with
//! `503` / `E-RESOURCE` before it is built.

use std::sync::Arc;
use std::time::{Duration, Instant};
use triq::prelude::*;
use triq::sparql::MAX_NESTING;
use triq_server::{Client, QueryService, Server, ServiceConfig};

fn start() -> (Arc<QueryService>, Server) {
    let engine = Engine::new();
    let session = engine.load_graph(parse_turtle("a p b .\nb p c .").unwrap());
    let service = QueryService::new(engine, session, ServiceConfig::default());
    let server = Server::serve(service.clone(), "127.0.0.1:0", 2).unwrap();
    (service, server)
}

/// `SELECT ?X WHERE` over `depth` nested groups.
fn nested_groups(depth: usize) -> String {
    format!(
        "SELECT ?X WHERE {}?X p ?Y{}",
        "{ ".repeat(depth),
        " }".repeat(depth)
    )
}

/// Posts `body` as a query on a fresh connection and expects `400`
/// `E-PARSE`; then a plain query on another fresh connection must
/// still answer `200`.
fn refused_and_still_serving(server: &Server, path: &str, body: &str) {
    let resp = Client::new(server.local_addr()).post(path, body).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("\"error\":\"E-PARSE\""), "{}", resp.body);
    assert!(resp.body.contains("nested deeper"), "{}", resp.body);
    let resp = Client::new(server.local_addr())
        .post("/query", "SELECT ?X WHERE { ?X p ?Y }")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
}

#[test]
fn a_40_kb_nested_body_is_refused_and_the_server_keeps_serving() {
    let (service, server) = start();
    let body = nested_groups(10_000);
    assert_eq!(body.len(), 40_023);
    refused_and_still_serving(&server, "/query", &body);
    refused_and_still_serving(&server, "/query", &nested_groups(MAX_NESTING + 1));
    service.stop_writer();
    server.shutdown();
}

#[test]
fn deep_filter_parentheses_and_negations_are_refused() {
    let (service, server) = start();
    let parens = format!(
        "SELECT ?X WHERE {{ ?X p ?Y }} FILTER ({}?X = a{})",
        "(".repeat(10_000),
        ")".repeat(10_000)
    );
    refused_and_still_serving(&server, "/query", &parens);
    let bangs = format!(
        "SELECT ?X WHERE {{ ?X p ?Y }} FILTER ({}bound(?X))",
        "!".repeat(10_000)
    );
    refused_and_still_serving(&server, "/query", &bangs);
    service.stop_writer();
    server.shutdown();
}

#[test]
fn long_flat_chains_are_refused() {
    let (service, server) = start();
    let union = format!(
        "SELECT ?X WHERE {{ ?X p ?Y }}{}",
        " UNION { ?X p ?Y }".repeat(10_000)
    );
    refused_and_still_serving(&server, "/query", &union);
    let siblings = format!("SELECT ?X WHERE {{ {}}}", "{ ?X p ?Y } ".repeat(10_000));
    refused_and_still_serving(&server, "/query", &siblings);
    let or = format!(
        "SELECT ?X WHERE {{ ?X p ?Y }} FILTER ({})",
        vec!["?X = a"; 10_000].join(" || ")
    );
    refused_and_still_serving(&server, "/query", &or);
    service.stop_writer();
    server.shutdown();
}

/// `SELECT ?A` over `?A p ?B` filtered by `n` conjoined disjunctions
/// `(?A = ci || ?B = ci)`, whose DNF has `2^n` disjuncts.
fn conjoined_pairs(n: usize) -> String {
    let pairs: Vec<String> = (0..n)
        .map(|i| format!("(?A = c{i} || ?B = c{i})"))
        .collect();
    format!(
        "SELECT ?A WHERE {{ ?A p ?B }} FILTER ({})",
        pairs.join(" && ")
    )
}

#[test]
fn a_filter_that_expands_past_its_bound_is_refused_at_once() {
    let (service, server) = start();
    let body = conjoined_pairs(18);
    assert_eq!(body.len(), 481);
    let started = Instant::now();
    let resp = Client::new(server.local_addr())
        .post("/query", &body)
        .unwrap();
    let took = started.elapsed();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(
        resp.body.contains("\"error\":\"E-RESOURCE\""),
        "{}",
        resp.body
    );
    assert!(took < Duration::from_secs(1), "refused after {took:?}");
    let resp = Client::new(server.local_addr())
        .post("/query", "SELECT ?X WHERE { ?X p ?Y }")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    // At the bound, the filter still translates and answers.
    let resp = Client::new(server.local_addr())
        .post("/query", &conjoined_pairs(12))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    service.stop_writer();
    server.shutdown();
}

#[test]
fn nesting_at_the_limit_is_answered() {
    let (service, server) = start();
    let resp = Client::new(server.local_addr())
        .post("/query", &nested_groups(MAX_NESTING))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"a\""), "{}", resp.body);
    // A chain of MAX_NESTING operator nodes.
    let union = format!(
        "SELECT ?X WHERE {{ ?X p ?Y }}{}",
        " UNION { ?X p ?Y }".repeat(MAX_NESTING)
    );
    let resp = Client::new(server.local_addr())
        .post("/query", &union)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"b\""), "{}", resp.body);
    service.stop_writer();
    server.shutdown();
}
