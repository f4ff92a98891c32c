//! A repeated read is served from bytes.
//!
//! The body of `POST /query` is a function of the query text and the
//! published answer set, so the service keeps, per prepared text, the
//! body it last rendered together with the `Arc<Answers>` it rendered it
//! from, and re-renders only when the snapshot hands back a different
//! `Arc`. These tests pin the two halves of that: the memoized body is
//! byte for byte what a fresh render produces, and a hit really does no
//! per-row work — by counts (`bodies_rendered`, allocator calls), never
//! by timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use triq::prelude::*;
use triq_server::{
    Client, Handler, QueryService, Request, Response, Server, ServerControl, ServiceConfig,
};

/// Counts this thread's calls into the allocator (the thread-local
/// pattern of `crates/core/tests/publish_alloc.rs`, counting calls
/// instead of bytes).
struct CountingAlloc;

thread_local! {
    /// `const`-initialized so the slot itself never allocates lazily
    /// inside the allocator.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn local_allocs() -> usize {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: allocations during TLS teardown must not panic
        // inside the allocator (that would abort the process).
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn service(turtle: &str) -> Arc<QueryService> {
    let engine = Engine::new();
    let session = engine.load_graph(parse_turtle(turtle).unwrap());
    QueryService::new(engine, session, ServiceConfig::default())
}

fn start(turtle: &str) -> (Arc<QueryService>, Server) {
    let service = service(turtle);
    let server = Server::serve(service.clone(), "127.0.0.1:0", 1).unwrap();
    (service, server)
}

fn stop(service: Arc<QueryService>, server: Server) {
    service.stop_writer();
    server.shutdown();
}

fn query(client: &mut Client, path: &str, text: &str) -> String {
    let resp = client.post(path, text).unwrap();
    assert_eq!(resp.status, 200, "{path} {text}: {}", resp.body);
    resp.body
}

/// Splits an answer body into its `version` and everything after it.
fn split_version(body: &str) -> (u64, &str) {
    let rest = body.strip_prefix("{\"version\":").expect(body);
    let (version, tail) = rest.split_once(',').expect(body);
    (version.parse().expect(body), tail)
}

/// The number `GET /stats` reports under `name`.
fn stat(client: &mut Client, name: &str) -> u64 {
    let stats = client.get("/stats").unwrap().body;
    let at = stats.find(&format!("\"{name}\":")).expect(name) + name.len() + 3;
    let digits = stats[at..].split(|c: char| !c.is_ascii_digit()).next();
    digits.unwrap().parse().expect(name)
}

/// A small ontology with an existential axiom, so the regimes differ,
/// and an optional edge, so one row has an unbound cell.
const ZOO: &str = "dog rdf:type animal .\n\
                   cat rdf:type animal .\n\
                   animal rdfs:subClassOf some_eats .\n\
                   some_eats rdf:type owl:Restriction .\n\
                   some_eats owl:onProperty eats .\n\
                   some_eats owl:someValuesFrom owl:Thing .\n\
                   dog knows cat .\n";

/// (path, text, a fragment the body must contain): one text of every
/// kind the renderer distinguishes.
const TEXTS: [(&str, &str, &str); 4] = [
    (
        "/query",
        "SELECT ?X WHERE { ?X rdf:type animal }",
        "\"vars\":[\"X\"],\"top\":false,\"rows\":[[\"cat\"],[\"dog\"]]}",
    ),
    (
        "/query?regime=ku",
        "SELECT ?X WHERE { ?X rdf:type some_eats }",
        "\"rows\":[[\"cat\"],[\"dog\"]]}",
    ),
    (
        "/query?regime=kall",
        "SELECT ?X ?Y WHERE { ?X eats _:B } OPTIONAL { ?X knows ?Y }",
        "\"rows\":[[\"cat\",null],[\"dog\",\"cat\"]]}",
    ),
    (
        "/query?lang=datalog&output=q",
        "triple(?X, knows, ?Y) -> q(?X, ?Y).",
        ",\"top\":false,\"rows\":[[\"dog\",\"cat\"]]}",
    ),
];

#[test]
fn a_memoized_body_is_the_fresh_render_byte_for_byte() {
    let (service, server) = start(ZOO);
    let mut client = Client::new(server.local_addr());
    let mut first = Vec::new();
    for (path, text, expect) in TEXTS {
        let body = query(&mut client, path, text);
        assert!(body.ends_with(expect), "{text}: {body}");
        for nth in 2..=100 {
            assert_eq!(query(&mut client, path, text), body, "{text} #{nth}");
        }
        first.push(body);
    }
    assert_eq!(stat(&mut client, "queries_served"), 400);
    assert_eq!(stat(&mut client, "bodies_rendered"), 4);

    // An effective update no plan's answers depend on: every body moves
    // to the new version and nothing else, and none is rendered again.
    let applied = client.post("/update", "+triple(bird, sings, song)");
    assert!(applied.unwrap().body.contains("\"inserted\":1"));
    for ((path, text, _), before) in TEXTS.iter().zip(&first) {
        let after = query(&mut client, path, text);
        let ((v0, tail0), (v1, tail1)) = (split_version(before), split_version(&after));
        assert_eq!((v1, tail1), (v0 + 1, tail0), "{text}");
    }
    assert_eq!(stat(&mut client, "bodies_rendered"), 4);

    // An update that changes answers: the body is the one a server that
    // never held the old answers renders for the final data.
    let applied = client.post(
        "/update",
        "+triple(emu, rdf:type, animal)\n-triple(dog, knows, cat)",
    );
    assert!(applied.unwrap().body.contains("\"deleted\":1"));
    let final_data =
        ZOO.replace("dog knows cat .\n", "") + "bird sings song .\nemu rdf:type animal .\n";
    let (fresh_service, fresh_server) = start(&final_data);
    let mut fresh = Client::new(fresh_server.local_addr());
    for ((path, text, _), before) in TEXTS.iter().zip(&first) {
        let after = query(&mut client, path, text);
        let (version, tail) = split_version(&after);
        assert_eq!(version, split_version(before).0 + 3, "{text}");
        assert_ne!(tail, split_version(before).1, "{text}");
        assert_eq!(
            tail,
            split_version(&query(&mut fresh, path, text)).1,
            "{text}"
        );
        assert_eq!(query(&mut client, path, text), after, "{text}");
    }
    assert_eq!(stat(&mut client, "bodies_rendered"), 8);
    stop(fresh_service, fresh_server);
    stop(service, server);
}

#[test]
fn an_inconsistent_graph_answers_top_from_the_memo_too() {
    let (service, server) = start(
        "animal owl:disjointWith plant .\n\
         dog rdf:type animal .\n\
         dog rdf:type plant .\n",
    );
    let mut client = Client::new(server.local_addr());
    let text = "SELECT ?X WHERE { ?X rdf:type animal }";
    let body = query(&mut client, "/query?regime=ku", text);
    assert!(
        body.ends_with("\"vars\":[\"X\"],\"top\":true,\"rows\":[]}"),
        "{body}"
    );
    for _ in 0..99 {
        assert_eq!(query(&mut client, "/query?regime=ku", text), body);
    }
    assert_eq!(stat(&mut client, "bodies_rendered"), 1);
    stop(service, server);
}

#[test]
fn a_thousand_reads_of_eight_texts_render_eight_bodies() {
    let (service, server) = start(ZOO);
    let mut client = Client::new(server.local_addr());
    let texts: Vec<(&str, String)> = TEXTS
        .iter()
        .map(|(path, text, _)| (*path, text.to_string()))
        .chain(["dog", "cat", "emu", "animal"].map(|who| {
            let text = format!("SELECT ?P ?O WHERE {{ {who} ?P ?O }}");
            ("/query", text)
        }))
        .collect();
    assert_eq!(texts.len(), 8);
    for i in 0..1000 {
        let (path, text) = &texts[i % 8];
        query(&mut client, path, text);
    }
    assert_eq!(stat(&mut client, "queries_served"), 1000);
    assert_eq!(stat(&mut client, "bodies_rendered"), 8);
    // The engine's accounting is what it was before there was a memo:
    // every request is an execution, and every one but each plan's
    // first-use materialization is a snapshot cache hit.
    assert_eq!(stat(&mut client, "executions"), 1000);
    assert_eq!(stat(&mut client, "cache_hits"), 1000 - 8);
    assert_eq!(stat(&mut client, "plans_materialized"), 8);
    stop(service, server);
}

/// Passes requests through to the service, recording how many allocator
/// calls the serving thread made inside each of the first four.
struct Metered {
    service: Arc<QueryService>,
    spent: [AtomicUsize; 4],
    next: AtomicUsize,
}

impl Handler for Metered {
    fn handle(&self, req: &Request, ctl: &ServerControl) -> Response {
        let before = local_allocs();
        let resp = self.service.handle(req, ctl);
        let spent = local_allocs() - before;
        if let Some(slot) = self.spent.get(self.next.fetch_add(1, Ordering::SeqCst)) {
            slot.store(spent, Ordering::SeqCst);
        }
        resp
    }
}

/// Allocator calls the service makes to answer a memo hit over `rows`
/// answer rows: from the parsed request to the response handed back for
/// framing (which copies it into one pre-sized buffer).
fn allocs_per_hit(rows: usize) -> usize {
    let turtle: String = (0..rows).map(|i| format!("s{i} knows o .\n")).collect();
    let metered = Arc::new(Metered {
        service: service(&turtle),
        spent: Default::default(),
        next: AtomicUsize::new(0),
    });
    let server = Server::serve(metered.clone(), "127.0.0.1:0", 1).unwrap();
    let mut client = Client::new(server.local_addr());
    for _ in 0..4 {
        let body = query(&mut client, "/query", "SELECT ?X WHERE { ?X knows ?Y }");
        assert_eq!(body.matches("[\"s").count(), rows);
    }
    assert_eq!(stat(&mut client, "bodies_rendered"), 1);
    metered.service.stop_writer();
    server.shutdown();
    let [miss, hits @ ..] = metered.spent.each_ref().map(|n| n.load(Ordering::SeqCst));
    assert!(miss > rows, "the first request renders every row");
    assert_eq!(hits, [hits[0]; 3], "every hit costs the same");
    hits[0]
}

#[test]
fn a_memo_hit_allocates_the_same_for_three_rows_and_six_thousand() {
    let small = allocs_per_hit(3);
    assert!(small > 0, "the counting allocator is installed");
    assert_eq!(small, allocs_per_hit(6000));
}
