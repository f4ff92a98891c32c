//! End-to-end integration tests for the HTTP query service: spin up a
//! server on an ephemeral port and exercise query/update/stats over the
//! wire, including concurrent readers observing consistent snapshots
//! mid-update.

use std::sync::Arc;
use triq::prelude::*;
use triq_server::{Client, QueryService, Server, ServiceConfig};

/// A graph+rules service on an ephemeral port.
fn start(turtle: &str, rules: &str, threads: usize) -> (Arc<QueryService>, Server) {
    let engine = Engine::builder()
        .library(parse_program(rules).unwrap())
        .build();
    let session = engine.load_graph(parse_turtle(turtle).unwrap());
    let service = QueryService::new(engine, session, ServiceConfig::default());
    let server = Server::serve(service.clone(), "127.0.0.1:0", threads).unwrap();
    (service, server)
}

fn stop(service: Arc<QueryService>, server: Server) {
    service.stop_writer();
    server.shutdown();
}

#[test]
fn query_update_stats_end_to_end() {
    let (service, server) = start("a knows b .\n b knows c .", "", 2);
    let mut client = Client::new(server.local_addr());

    // SPARQL query.
    let resp = client
        .post("/query", "SELECT ?X WHERE { ?X knows ?Y }")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"vars\":[\"X\"]"), "{}", resp.body);
    assert!(
        resp.body.contains("\"rows\":[[\"a\"],[\"b\"]]"),
        "{}",
        resp.body
    );

    // Datalog query with explicit output predicate.
    let resp = client
        .post(
            "/query?lang=datalog&output=q",
            "triple(?X, knows, ?Y), triple(?Y, knows, ?Z) -> q(?X, ?Z).",
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(
        resp.body.contains("\"rows\":[[\"a\",\"c\"]]"),
        "{}",
        resp.body
    );

    // Update: one insert, one delete; both SPARQL answers move.
    let resp = client
        .post("/update", "+triple(c, knows, d)\n-triple(a, knows, b)\n")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"inserted\":1"), "{}", resp.body);
    assert!(resp.body.contains("\"deleted\":1"), "{}", resp.body);

    let resp = client
        .post("/query", "SELECT ?X WHERE { ?X knows ?Y }")
        .unwrap();
    assert!(
        resp.body.contains("\"rows\":[[\"b\"],[\"c\"]]"),
        "{}",
        resp.body
    );

    // Stats reflect the work — including snapshot-served reads in the
    // engine's execution counter.
    let resp = client.get("/stats").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"queries_served\":3"), "{}", resp.body);
    assert!(resp.body.contains("\"executions\":3"), "{}", resp.body);
    assert!(resp.body.contains("\"updates_applied\":1"), "{}", resp.body);
    assert!(resp.body.contains("\"deltas_applied\""), "{}", resp.body);

    // Health endpoint.
    assert_eq!(client.get("/health").unwrap().status, 200);
    stop(service, server);
}

#[test]
fn rule_library_applies_to_served_queries() {
    // The serve-time rule program derives triples every query sees.
    let (service, server) = start(
        "a knows b .\n b knows c .",
        "triple(?X, knows, ?Y), triple(?Y, knows, ?Z) -> triple(?X, reaches, ?Z).",
        2,
    );
    let mut client = Client::new(server.local_addr());
    let resp = client
        .post("/query", "SELECT ?X WHERE { ?X reaches ?Z }")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"rows\":[[\"a\"]]"), "{}", resp.body);
    stop(service, server);
}

#[test]
fn rows_sort_by_content_not_interning_order() {
    // "z"/"m" intern before "a" does (graph load order), but the wire
    // rows must come back in string order regardless.
    let (service, server) = start("z knows m .", "", 1);
    let mut client = Client::new(server.local_addr());
    let resp = client.post("/update", "+triple(a, knows, b)").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let resp = client
        .post("/query", "SELECT ?X WHERE { ?X knows ?Y }")
        .unwrap();
    assert!(
        resp.body.contains("\"rows\":[[\"a\"],[\"z\"]]"),
        "{}",
        resp.body
    );
    let resp = client
        .post(
            "/query?lang=datalog&output=q",
            "triple(?X, knows, ?Y) -> q(?X).",
        )
        .unwrap();
    assert!(
        resp.body.contains("\"rows\":[[\"a\"],[\"z\"]]"),
        "{}",
        resp.body
    );
    stop(service, server);
}

#[test]
fn regimes_are_selectable() {
    let (service, server) = start(
        "dog rdf:type animal .\n\
         animal rdfs:subClassOf some_eats .\n\
         some_eats rdf:type owl:Restriction .\n\
         some_eats owl:onProperty eats .\n\
         some_eats owl:someValuesFrom owl:Thing .",
        "",
        2,
    );
    let mut client = Client::new(server.local_addr());
    let q = "SELECT ?X WHERE { ?X eats _:B }";
    let plain = client.post("/query?regime=plain", q).unwrap();
    assert!(plain.body.contains("\"rows\":[]"), "{}", plain.body);
    let kall = client.post("/query?regime=kall", q).unwrap();
    assert!(kall.body.contains("[\"dog\""), "{}", kall.body);
    let bad = client.post("/query?regime=nonsense", q).unwrap();
    assert_eq!(bad.status, 400);
    stop(service, server);
}

#[test]
fn error_codes_map_to_http_statuses() {
    let (service, server) = start("a p b .", "", 1);
    let mut client = Client::new(server.local_addr());

    // Parse error → 400 with the stable code in the body.
    let resp = client.post("/query", "SELECT WHERE {").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("\"error\":\"E-PARSE\""), "{}", resp.body);

    // Output predicate in a rule body → 422.
    let resp = client
        .post("/query?lang=datalog&output=q", "q(?X) -> r(?X).")
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(
        resp.body.contains("\"error\":\"E-OUTPUT-IN-BODY\""),
        "{}",
        resp.body
    );

    // Unstratifiable program → 422 E-STRATIFY.
    let resp = client
        .post(
            "/query?lang=datalog&output=out",
            "p(?X), !q(?X) -> q(?X).\n q(?X) -> out(?X).",
        )
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(
        resp.body.contains("\"error\":\"E-STRATIFY\""),
        "{}",
        resp.body
    );

    // Missing output for datalog, malformed update line → 400.
    let resp = client
        .post("/query?lang=datalog", "p(?X) -> q(?X).")
        .unwrap();
    assert_eq!(resp.status, 400);
    let resp = client.post("/update", "triple(a, p, b)").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);

    // A fact over the demand rewrite's reserved `~d~` namespace → 422,
    // as for a program using it, and nothing of its batch is applied.
    for line in ["+~d~seed(~d~on)", "+triple(a, p, c)\n-~d~seed(~d~on)"] {
        let resp = client.post("/update", line).unwrap();
        assert_eq!(resp.status, 422, "{}", resp.body);
        assert!(
            resp.body.contains("\"error\":\"E-INVALID-PROGRAM\"") && resp.body.contains("`~d~`"),
            "{}",
            resp.body
        );
    }
    let resp = client.post("/query", "SELECT ?O WHERE { a p ?O }").unwrap();
    assert!(resp.body.contains("\"rows\":[[\"b\"]]"), "{}", resp.body);

    // Unknown endpoint → 404; wrong method → 405; disabled /shutdown → 403.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/query").unwrap().status, 405);
    assert_eq!(client.post("/shutdown", "").unwrap().status, 403);
    stop(service, server);
}

#[test]
fn concurrent_readers_observe_consistent_snapshots_mid_update() {
    // Readers hammer two queries whose answers must stay mutually
    // consistent (k edges ⇒ k·(k+1)/2 closure pairs on a chain) while a
    // writer keeps growing the chain through POST /update. Every
    // response pair read within one /query call reflects one published
    // snapshot — the version field lets the test pair them up.
    let (service, server) = start(
        "n0 e n1 .",
        "triple(?X, e, ?Y) -> triple(?X, t, ?Y).\n\
         triple(?X, e, ?Y), triple(?Y, t, ?Z) -> triple(?X, t, ?Z).",
        4,
    );
    let addr = server.local_addr();

    // Materialize both plans before racing.
    let mut c = Client::new(addr);
    assert_eq!(
        c.post("/query", "SELECT ?X ?Y WHERE { ?X e ?Y }")
            .unwrap()
            .status,
        200
    );
    assert_eq!(
        c.post("/query", "SELECT ?X ?Y WHERE { ?X t ?Y }")
            .unwrap()
            .status,
        200
    );

    let writer = std::thread::spawn(move || {
        let mut c = Client::new(addr);
        for i in 1..24 {
            let line = format!("+triple(n{i}, e, n{})", i + 1);
            let resp = c.post("/update", &line).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
    });

    fn rows_and_version(body: &str) -> (usize, u64) {
        let rows = body.matches("[\"n").count();
        let version: u64 = body
            .split("\"version\":")
            .nth(1)
            .and_then(|s| s.split(&[',', '}'][..]).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no version in {body}"));
        (rows, version)
    }

    let mut readers = Vec::new();
    for _ in 0..3 {
        readers.push(std::thread::spawn(move || {
            let mut c = Client::new(addr);
            for _ in 0..30 {
                let e = c.post("/query", "SELECT ?X ?Y WHERE { ?X e ?Y }").unwrap();
                let t = c.post("/query", "SELECT ?X ?Y WHERE { ?X t ?Y }").unwrap();
                assert_eq!(e.status, 200);
                assert_eq!(t.status, 200);
                let (k, ve) = rows_and_version(&e.body);
                let (pairs, vt) = rows_and_version(&t.body);
                // Same version ⇒ the two answers came from the same
                // snapshot and must be arithmetically consistent.
                if ve == vt {
                    assert_eq!(
                        pairs,
                        k * (k + 1) / 2,
                        "snapshot v{ve} is internally inconsistent: \
                         {k} edges vs {pairs} closure pairs"
                    );
                }
            }
        }));
    }
    for r in readers {
        r.join().unwrap();
    }
    writer.join().unwrap();

    // Final state: 24 edges on the chain.
    let final_resp = c.post("/query", "SELECT ?X ?Y WHERE { ?X e ?Y }").unwrap();
    let (k, _) = rows_and_version(&final_resp.body);
    assert_eq!(k, 24);
    stop(service, server);
}

#[test]
fn oversized_request_head_gets_413_not_unbounded_buffering() {
    use std::io::{Read, Write};
    let (service, server) = start("a p b .", "", 1);
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // Stream far more than the 64 KiB head budget with no newline: the
    // server must answer 413 instead of buffering forever.
    let chunk = [b'A'; 8 * 1024];
    let mut sent = 0usize;
    while sent < 96 * 1024 {
        match stream.write_all(&chunk) {
            Ok(()) => sent += chunk.len(),
            Err(_) => break, // server already responded and closed
        }
    }
    let mut response = String::new();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let _ = stream.read_to_string(&mut response);
    assert!(
        response.starts_with("HTTP/1.1 413"),
        "expected 413, got: {:.100}",
        response
    );
    stop(service, server);
}

#[test]
fn shutdown_endpoint_stops_the_server_cleanly() {
    let engine = Engine::new();
    let session = engine.load_graph(parse_turtle("a p b .").unwrap());
    let service = QueryService::new(
        engine,
        session,
        ServiceConfig {
            enable_shutdown: true,
            ..ServiceConfig::default()
        },
    );
    let server = Server::serve(service.clone(), "127.0.0.1:0", 2).unwrap();
    let mut client = Client::new(server.local_addr());
    assert_eq!(client.get("/health").unwrap().status, 200);
    let resp = client.post("/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    assert!(server.shutdown_requested());
    // join() drains and returns promptly after the request above.
    server.join();
}

/// Bounded writer backpressure: with `queue_cap: 1` and the writer
/// stalled mid-apply, concurrent updates beyond the in-flight batch and
/// the single queue slot bounce immediately with `503 E-RESOURCE` — and
/// once the backlog drains, updates go through again.
///
/// The stall is deterministic, not timing-based: the test holds the
/// session's writer lock (`SharedSession::with_writer`, the same lock a
/// checkpoint holds), so the writer thread blocks inside its apply and
/// the queue cannot drain until the test releases it.
#[test]
fn full_writer_queue_rejects_updates_with_503_e_resource() {
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    let engine = Engine::builder()
        .library(parse_program("triple(?X, knows, ?Y) -> triple(?X, reaches, ?Y).").unwrap())
        .build();
    let session = engine.load_graph(parse_turtle("a knows b .").unwrap());
    let service = QueryService::new(
        engine,
        session,
        ServiceConfig {
            queue_cap: 1,
            ..ServiceConfig::default()
        },
    );
    let server = Server::serve(service.clone(), "127.0.0.1:0", 8).unwrap();
    let addr = server.local_addr();
    let mut client = Client::new(addr);

    // Stall the writer: hold the writer lock, post one plug update, and
    // give the writer thread a moment to dequeue it and block in apply.
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let shared = service.shared().clone();
    let blocker = thread::spawn(move || {
        shared.with_writer(|_| {
            held_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
    });
    held_rx.recv().unwrap();
    let plug = thread::spawn(move || Client::new(addr).post("/update", "+triple(x, knows, y)"));
    thread::sleep(Duration::from_millis(300));

    // Six more concurrent updates against the stalled writer. The
    // writer holds at most one batch (netted before it blocked) and the
    // queue holds one job, so at least four of the six MUST bounce —
    // whatever the thread schedule. Bounces reply immediately; accepted
    // updates cannot reply until the lock is released, so everything
    // received before the release below is a 503.
    let (status_tx, status_rx) = mpsc::channel();
    let posters: Vec<_> = (0..6)
        .map(|i| {
            let status_tx = status_tx.clone();
            thread::spawn(move || {
                let resp = Client::new(addr)
                    .post("/update", &format!("+triple(p{i}, knows, q{i})"))
                    .unwrap();
                status_tx.send(resp).unwrap();
            })
        })
        .collect();
    for _ in 0..4 {
        let resp = status_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("posts against the full queue must bounce");
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert!(resp.body.contains("E-RESOURCE"), "{}", resp.body);
        assert!(resp.body.contains("queue is full"), "{}", resp.body);
    }

    // Release the writer: the plug and any queued updates complete.
    release_tx.send(()).unwrap();
    blocker.join().unwrap();
    let plug = plug.join().unwrap().unwrap();
    assert_eq!(plug.status, 200, "{}", plug.body);
    for p in posters {
        p.join().unwrap();
    }
    for resp in status_rx.try_iter() {
        assert!(
            resp.status == 200 || resp.status == 503,
            "{} {}",
            resp.status,
            resp.body
        );
    }

    // Once the backlog drains, updates go through again.
    let mut recovered = false;
    for _ in 0..100 {
        let resp = client.post("/update", "+triple(p, knows, q)").unwrap();
        if resp.status == 200 {
            recovered = true;
            break;
        }
        assert_eq!(resp.status, 503, "{}", resp.body);
        thread::sleep(Duration::from_millis(50));
    }
    assert!(recovered, "the queue never drained after the overflow");
    stop(service, server);
}
