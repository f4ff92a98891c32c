//! E15 — sustained-load serving: bulk ingest throughput and closed-loop
//! mixed read/write latency, plus the read-side guard rails.
//!
//! Three sections, scaled by `E15_SCALE` (default 8; CI smoke runs 1):
//!
//! 1. **Bulk ingest** — one Turtle document of `25_000 × scale` unique
//!    triples loaded two ways: line-at-a-time (parse each statement,
//!    insert each row through the facade — what a naive loader does)
//!    vs. the bulk path (one `parse_turtle` of the whole document, then
//!    `load_graph` adopting τ_db columns wholesale). Prints both times
//!    and the speedup; the ≥ 3x gate at scale 8 is informational.
//! 2. **Closed-loop mixed serving** — a transitive-closure view served
//!    over HTTP while 2 keep-alive readers (`POST /query`) and 1 writer
//!    (`POST /update` insert/delete pairs) run closed loops. A one-shot
//!    `POST /load` batch lands mid-setup to exercise the bulk endpoint
//!    under the same writer thread. Reports per-class throughput and
//!    p50/p95/p99 latency from `triq::obs` histograms.
//! 3. **Guard rails** — a service configured with a 1 ms read deadline
//!    over a deliberately expensive first materialization must answer
//!    `503` with `E-RESOURCE` and tick the `deadline_exceeded` counter
//!    (asserted — this is the CI smoke's teeth); and a no-deadline
//!    service must produce **byte-identical** `/query` bodies to one
//!    with a generous deadline, proving the deadline path never
//!    perturbs completing answers.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use triq::obs::Histogram;
use triq::prelude::*;
use triq_server::{Client, QueryService, Server, ServiceConfig};

const TC_LIB: &str = "triple(?X, e, ?Y) -> triple(?X, t, ?Y).\n\
                      triple(?X, e, ?Y), triple(?Y, t, ?Z) -> triple(?X, t, ?Z).";

fn scale() -> usize {
    std::env::var("E15_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(8)
}

/// `rows` unique triples `a{i} e a{(i*31+7) % rows}` as one Turtle doc
/// plus the (s, o) pairs for the line-at-a-time baseline.
fn ingest_corpus(rows: usize) -> (String, Vec<(String, String)>) {
    let mut text = String::with_capacity(rows * 24);
    let mut pairs = Vec::with_capacity(rows);
    for i in 0..rows {
        let s = format!("a{i}");
        let o = format!("a{}", (i * 31 + 7) % rows);
        text.push_str(&s);
        text.push_str(" e ");
        text.push_str(&o);
        text.push_str(" .\n");
        pairs.push((s, o));
    }
    (text, pairs)
}

fn section_ingest(scale: usize) {
    let rows = 25_000 * scale;
    let (text, pairs) = ingest_corpus(rows);

    // Line-at-a-time: parse each statement on its own, insert each row
    // through the facade — per-row interning, hashing and support
    // bookkeeping with no batching anywhere.
    let engine = Engine::new();
    let mut session = engine.session();
    let t0 = Instant::now();
    for (line, (s, o)) in text.lines().zip(&pairs) {
        let g = parse_turtle(line).expect("generated line parses");
        assert_eq!(g.len(), 1);
        session.add_fact("triple", &[s, "e", o]);
    }
    let line_at_a_time = t0.elapsed();

    // Bulk: one parse of the whole document, then columnar τ_db adoption.
    let engine = Engine::new();
    let t0 = Instant::now();
    let graph = parse_turtle(&text).expect("generated corpus parses");
    let parsed = t0.elapsed();
    assert_eq!(graph.len(), rows);
    let t1 = Instant::now();
    let _session = engine.load_graph(graph);
    let built = t1.elapsed();
    let bulk = parsed + built;

    let speedup = line_at_a_time.as_secs_f64() / bulk.as_secs_f64().max(1e-9);
    println!(
        "e15: ingest {rows} triples line-at-a-time = {line_at_a_time:?}\n\
         e15: ingest {rows} triples bulk           = {bulk:?} \
         (parse {parsed:?}, τ_db build {built:?})\n\
         e15: bulk speedup = {speedup:.2}x {}",
        if scale >= 8 {
            "(gate: >= 3x)"
        } else {
            "(informational: small scale)"
        }
    );
}

/// A τ_db-backed TC service over `n` nodes with 2 random out-edges
/// each, behind its own HTTP server.
fn tc_service(
    n: usize,
    seed: u64,
    config: ServiceConfig,
) -> (std::sync::Arc<QueryService>, Server) {
    let engine = Engine::builder()
        .library(parse_program(TC_LIB).unwrap())
        .max_atoms(50_000_000)
        .build();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    for i in 0..n {
        for _ in 0..2 {
            let j = rng.gen_range(0..n);
            g.insert_strs(&format!("n{i}"), "e", &format!("n{j}"));
        }
    }
    let service = QueryService::new(engine.clone(), engine.load_graph(g), config);
    let server = Server::serve(service.clone(), "127.0.0.1:0", 4).unwrap();
    (service, server)
}

const TC_QUERY: &str = "SELECT ?X ?Y WHERE { ?X t ?Y }";

fn section_closed_loop(scale: usize, c: &mut Criterion) {
    let (service, server) = tc_service(100, 42, ServiceConfig::default());
    let addr = server.local_addr();

    // Warm: prepare + materialize the view once, then land a bulk batch
    // through POST /load so the mixed loop runs over a post-load view.
    let mut warm = Client::new(addr);
    assert_eq!(warm.post("/query", TC_QUERY).unwrap().status, 200);
    let mut extra = String::new();
    for i in 0..1_000 {
        extra.push_str(&format!("x{i} e y{i} .\n"));
    }
    let loaded = warm.post("/load", &extra).unwrap();
    assert_eq!(loaded.status, 200, "{}", loaded.body);
    assert!(loaded.body.contains("\"triples\":1000"), "{}", loaded.body);

    let reads_per_thread = 100 * scale;
    let writes = 50 * scale;
    let read_hist = Histogram::new();
    let write_hist = Histogram::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut client = Client::new(addr);
                for _ in 0..reads_per_thread {
                    let t0 = Instant::now();
                    let resp = client.post("/query", TC_QUERY).unwrap();
                    read_hist.observe(t0.elapsed().as_nanos() as u64);
                    assert_eq!(resp.status, 200, "{}", resp.body);
                }
            });
        }
        scope.spawn(|| {
            let mut client = Client::new(addr);
            for i in 0..writes {
                let w = format!("w{}", i % 7);
                for op in ["+", "-"] {
                    let t0 = Instant::now();
                    let resp = client
                        .post("/update", &format!("{op}triple({w}, e, n0)"))
                        .unwrap();
                    write_hist.observe(t0.elapsed().as_nanos() as u64);
                    assert_eq!(resp.status, 200, "{}", resp.body);
                }
            }
        });
    });
    let elapsed = start.elapsed().as_secs_f64();
    let reads = 2 * reads_per_thread;
    for (class, count, hist) in [
        ("read ", reads, &read_hist),
        ("write", 2 * writes, &write_hist),
    ] {
        let s = hist.snapshot();
        println!(
            "e15: {class} throughput = {:>8.0} req/s   p50 = {:>7} us  p95 = {:>7} us  \
             p99 = {:>7} us",
            count as f64 / elapsed,
            s.percentile(0.50) / 1_000,
            s.percentile(0.95) / 1_000,
            s.percentile(0.99) / 1_000,
        );
    }

    let mut group = c.benchmark_group("e15_stress");
    group.sample_size(10);
    group.bench_function("query/http", |b| {
        let mut client = Client::new(addr);
        b.iter(|| assert_eq!(client.post("/query", TC_QUERY).unwrap().status, 200))
    });
    group.finish();

    service.stop_writer();
    server.shutdown();
}

fn section_guard_rails() {
    // Starvation: a 1 ms evaluation deadline against a closure that
    // takes far longer to materialize. The request must come back 503
    // E-RESOURCE and the engine must attribute it to the deadline.
    let starved = ServiceConfig {
        read_deadline_ms: 1,
        ..ServiceConfig::default()
    };
    let (service, server) = tc_service(600, 7, starved);
    let mut client = Client::new(server.local_addr());
    let resp = client.post("/query", TC_QUERY).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.body.contains("E-RESOURCE"), "{}", resp.body);
    let stats = client.get("/stats").unwrap();
    let exceeded = stats
        .body
        .split("\"deadline_exceeded\":")
        .nth(1)
        .and_then(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse::<u64>()
                .ok()
        })
        .expect("stats report deadline_exceeded");
    assert!(exceeded >= 1, "{}", stats.body);
    println!("e15: starved read -> 503 E-RESOURCE, deadline_exceeded = {exceeded} (gate: >= 1)");
    service.stop_writer();
    server.shutdown();

    // Byte identity: a generous deadline must not perturb answers that
    // complete. Same seed, same load order -> same interning, same
    // version, so the bodies must match byte for byte.
    let generous = ServiceConfig {
        read_deadline_ms: 60_000,
        ..ServiceConfig::default()
    };
    let (svc_a, srv_a) = tc_service(100, 42, ServiceConfig::default());
    let (svc_b, srv_b) = tc_service(100, 42, generous);
    let body_a = {
        let mut c = Client::new(srv_a.local_addr());
        let r = c.post("/query", TC_QUERY).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        r.body
    };
    let body_b = {
        let mut c = Client::new(srv_b.local_addr());
        let r = c.post("/query", TC_QUERY).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        r.body
    };
    assert_eq!(body_a, body_b, "deadline changed a completing answer");
    println!(
        "e15: byte-identity: no-deadline vs 60s-deadline /query bodies match \
         ({} bytes)",
        body_a.len()
    );
    svc_a.stop_writer();
    srv_a.shutdown();
    svc_b.stop_writer();
    srv_b.shutdown();
}

fn bench(c: &mut Criterion) {
    let scale = scale();
    println!("e15: scale = {scale}");
    section_ingest(scale);
    section_closed_loop(scale, c);
    section_guard_rails();
}

criterion_group!(benches, bench);
criterion_main!(benches);
