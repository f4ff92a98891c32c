//! Sustained-load e2e tests: the HTTP edge cases fixed in the bulk
//! ingest / read-deadline work, the `POST /load` endpoint, and the
//! read-side guard rails (evaluation deadline, concurrency gate) —
//! exercised over real sockets against an ephemeral-port server.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use triq::prelude::*;
use triq_server::{Client, QueryService, Server, ServerOptions, ServiceConfig};

fn start_with(
    turtle: &str,
    rules: &str,
    config: ServiceConfig,
    options: ServerOptions,
) -> (Arc<QueryService>, Server) {
    let engine = Engine::builder()
        .library(parse_program(rules).unwrap())
        .build();
    let session = engine.load_graph(parse_turtle(turtle).unwrap());
    let service = QueryService::new(engine, session, config);
    let server = Server::serve_with(service.clone(), "127.0.0.1:0", 2, options).unwrap();
    (service, server)
}

fn start(turtle: &str, rules: &str) -> (Arc<QueryService>, Server) {
    start_with(
        turtle,
        rules,
        ServiceConfig::default(),
        ServerOptions::default(),
    )
}

fn stop(service: Arc<QueryService>, server: Server) {
    service.stop_writer();
    server.shutdown();
}

/// Writes a raw request, half-closes, and drains the full response —
/// for wire shapes the `Client` helper (correct by construction)
/// cannot produce.
fn raw(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

// -- satellite bugfixes over the wire ----------------------------------

#[test]
fn conflicting_content_length_is_rejected() {
    let (service, server) = start("a knows b .", "");
    let resp = raw(
        server.local_addr(),
        b"GET /health HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 2\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    assert!(resp.contains("E-HTTP-BAD-REQUEST"), "{resp}");
    assert!(resp.contains("conflicting Content-Length"), "{resp}");
    stop(service, server);
}

#[test]
fn identical_duplicate_content_length_is_tolerated() {
    // RFC 9110 §8.6: a duplicated but consistent Content-Length may be
    // folded rather than rejected.
    let (service, server) = start("a knows b .", "");
    let resp = raw(
        server.local_addr(),
        b"GET /health HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    stop(service, server);
}

#[test]
fn connection_close_token_in_list_closes() {
    // `Connection: close, te` is a token list containing `close`; the
    // old substring-free equality check kept such connections alive
    // forever.
    let (service, server) = start("a knows b .", "");
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(b"GET /health HTTP/1.1\r\nConnection: close, te\r\n\r\n")
        .unwrap();
    // No half-close: the server itself must hang up after responding.
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    assert!(out.contains("Connection: close"), "{out}");
    stop(service, server);
}

#[test]
fn many_headers_parse_fast() {
    // The request-line check used to recount every head line per header
    // read (O(n²)); a request with thousands of headers must still
    // answer promptly.
    let (service, server) = start("a knows b .", "");
    let mut req = String::from("GET /health HTTP/1.1\r\n");
    for i in 0..2_000 {
        req.push_str(&format!("X-Filler-{i}: {i}\r\n"));
    }
    req.push_str("\r\n");
    let t0 = Instant::now();
    let resp = raw(server.local_addr(), req.as_bytes());
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(t0.elapsed() < Duration::from_secs(2));
    stop(service, server);
}

// -- receive deadline ---------------------------------------------------

#[test]
fn trickled_body_past_receive_deadline_is_rejected() {
    let (service, server) = start_with(
        "a knows b .",
        "",
        ServiceConfig::default(),
        ServerOptions {
            read_deadline: Some(Duration::from_millis(150)),
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(b"POST /query HTTP/1.1\r\nContent-Length: 40\r\n\r\nSELECT")
        .unwrap();
    // Drip the rest slower than the deadline but faster than the idle
    // timeout: only the receive deadline can catch this client.
    std::thread::sleep(Duration::from_millis(250));
    stream.write_all(b" ?X").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 503"), "{out}");
    assert!(out.contains("E-RESOURCE"), "{out}");
    assert!(out.contains("read deadline"), "{out}");
    stop(service, server);
}

#[test]
fn prompt_requests_unaffected_by_receive_deadline() {
    let (service, server) = start_with(
        "a knows b .",
        "",
        ServiceConfig::default(),
        ServerOptions {
            read_deadline: Some(Duration::from_millis(500)),
        },
    );
    let mut client = Client::new(server.local_addr());
    let resp = client
        .post("/query", "SELECT ?X WHERE { ?X knows ?Y }")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"rows\":[[\"a\"]]"), "{}", resp.body);
    stop(service, server);
}

// -- POST /load ---------------------------------------------------------

#[test]
fn bulk_load_end_to_end() {
    let (service, server) = start("a knows b .", "");
    let mut client = Client::new(server.local_addr());

    let mut body = String::new();
    for i in 0..5_000 {
        body.push_str(&format!("s{i} likes o{} .\n", (i * 13 + 1) % 5_000));
    }
    let resp = client.post("/load", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"triples\":5000"), "{}", resp.body);
    assert!(resp.body.contains("\"inserted\":5000"), "{}", resp.body);
    // 5000 triples in 4096-row batches = 2 writer-thread applies.
    assert!(resp.body.contains("\"batches\":2"), "{}", resp.body);

    // The loaded rows are immediately visible to queries...
    let resp = client
        .post("/query", "SELECT ?X WHERE { s1 likes ?X }")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"rows\":[[\"o14\"]]"), "{}", resp.body);
    // ...and the session version advanced by one op per inserted row.
    let stats = client.get("/stats").unwrap();
    assert!(stats.body.contains("\"version\":5000"), "{}", stats.body);
    stop(service, server);
}

#[test]
fn torn_load_body_applies_nothing() {
    let (service, server) = start("a knows b .", "");
    let mut client = Client::new(server.local_addr());
    // A document torn mid-literal: parse fails, so not even the intact
    // leading statements may land.
    let resp = client.post("/load", "x p y .\nz q \"torn literal").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("E-PARSE"), "{}", resp.body);
    let stats = client.get("/stats").unwrap();
    assert!(stats.body.contains("\"version\":0"), "{}", stats.body);
    assert!(
        stats.body.contains("\"updates_applied\":0"),
        "{}",
        stats.body
    );
    stop(service, server);
}

#[test]
fn empty_load_body_is_rejected() {
    let (service, server) = start("a knows b .", "");
    let mut client = Client::new(server.local_addr());
    let resp = client.post("/load", "").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    stop(service, server);
}

#[test]
fn oversized_load_is_refused_up_front() {
    // A Content-Length past the body cap answers 413 before any body
    // bytes are read — no buffering of the announced 17 MiB.
    let (service, server) = start("a knows b .", "");
    let resp = raw(
        server.local_addr(),
        b"POST /load HTTP/1.1\r\nContent-Length: 17825792\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
    stop(service, server);
}

// -- read-side guard rails ---------------------------------------------

const TC_LIB: &str = "triple(?X, e, ?Y) -> triple(?X, t, ?Y).\n\
                      triple(?X, e, ?Y), triple(?Y, t, ?Z) -> triple(?X, t, ?Z).";

/// A dense edge list whose transitive closure is far too big to
/// materialize within a 1 ms deadline.
fn dense_edges(n: usize) -> String {
    let mut turtle = String::new();
    for i in 0..n {
        turtle.push_str(&format!("n{i} e n{} .\n", (i + 1) % n));
        turtle.push_str(&format!("n{i} e n{} .\n", (i * 7 + 3) % n));
    }
    turtle
}

#[test]
fn evaluation_deadline_maps_to_503_and_counts() {
    let config = ServiceConfig {
        read_deadline_ms: 1,
        ..ServiceConfig::default()
    };
    let (service, server) = start_with(&dense_edges(500), TC_LIB, config, ServerOptions::default());
    let mut client = Client::new(server.local_addr());
    let resp = client
        .post("/query", "SELECT ?X ?Y WHERE { ?X t ?Y }")
        .unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.body.contains("E-RESOURCE"), "{}", resp.body);
    let stats = client.get("/stats").unwrap();
    assert!(
        !stats.body.contains("\"deadline_exceeded\":0,"),
        "{}",
        stats.body
    );
    stop(service, server);
}

#[test]
fn concurrency_gate_rejects_excess_readers() {
    let config = ServiceConfig {
        max_concurrent_reads: 1,
        ..ServiceConfig::default()
    };
    let (service, server) = start_with(&dense_edges(400), TC_LIB, config, ServerOptions::default());
    let addr = server.local_addr();
    // Two identical heavy reads race for the single permit: whichever
    // arrives first holds it for the entire (multi-second, unoptimized)
    // first materialization; the other must bounce off the gate long
    // before that finishes.
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr);
                    client
                        .post("/query", "SELECT ?X ?Y WHERE { ?X t ?Y }")
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        results.iter().any(|r| r.status == 200),
        "{:?}",
        results.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    let rejected = results.iter().find(|r| r.status == 503).expect(
        "one of two concurrent reads should have been rejected by the max_concurrent_reads=1 gate",
    );
    assert!(rejected.body.contains("E-RESOURCE"), "{}", rejected.body);
    assert!(
        rejected.body.contains("concurrency limit"),
        "{}",
        rejected.body
    );
    let mut client = Client::new(addr);
    let stats = client.get("/stats").unwrap();
    assert!(
        !stats.body.contains("\"requests_rejected\":0,"),
        "{}",
        stats.body
    );
    // The gate drained: a fresh read goes straight through.
    let resp = client
        .post("/query", "SELECT ?X WHERE { ?X e ?Y }")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    stop(service, server);
}

#[test]
fn deadline_leaves_completing_answers_untouched() {
    let generous = ServiceConfig {
        read_deadline_ms: 60_000,
        max_concurrent_reads: 8,
        ..ServiceConfig::default()
    };
    let (svc_a, srv_a) = start("a knows b .\n b knows c .", "");
    let (svc_b, srv_b) = start_with(
        "a knows b .\n b knows c .",
        "",
        generous,
        ServerOptions::default(),
    );
    let query = "SELECT ?X ?Y WHERE { ?X knows ?Y }";
    let mut ca = Client::new(srv_a.local_addr());
    let mut cb = Client::new(srv_b.local_addr());
    let (ra, rb) = (
        ca.post("/query", query).unwrap(),
        cb.post("/query", query).unwrap(),
    );
    assert_eq!(ra.status, 200, "{}", ra.body);
    assert_eq!(rb.status, 200, "{}", rb.body);
    assert_eq!(ra.body, rb.body, "guarded service changed an answer");
    stop(svc_a, srv_a);
    stop(svc_b, srv_b);
}
