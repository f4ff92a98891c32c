//! End-to-end tests for the observability surface: `/metrics` family
//! coverage and determinism, `/version`, `/debug/trace`, per-request
//! `X-Request-Id` headers, and the slow-query log.

use std::sync::Arc;
use triq::obs::Telemetry;
use triq::prelude::*;
use triq_server::{Client, QueryService, Server, ServiceConfig};

/// A service on an ephemeral port whose engine and HTTP layer share one
/// [`Telemetry`], so chase spans and request spans land in one tracer.
fn start_instrumented(
    turtle: &str,
    rules: &str,
    slow_query_ms: u64,
) -> (Arc<QueryService>, Server, Arc<Telemetry>) {
    let tel = Telemetry::new();
    let engine = Engine::builder()
        .library(parse_program(rules).unwrap())
        .recorder(tel.clone())
        .build();
    let session = engine.load_graph(parse_turtle(turtle).unwrap());
    let config = ServiceConfig {
        slow_query_ms,
        telemetry: Some(tel.clone()),
        ..ServiceConfig::default()
    };
    let service = QueryService::new(engine, session, config);
    let server = Server::serve(service.clone(), "127.0.0.1:0", 2).unwrap();
    (service, server, tel)
}

fn stop(service: Arc<QueryService>, server: Server) {
    service.stop_writer();
    server.shutdown();
}

const RULES: &str = "triple(?X, knows, ?Y), triple(?Y, knows, ?Z) -> triple(?X, reaches, ?Z).";

#[test]
fn metrics_exposes_every_family_and_renders_deterministically() {
    let (service, server, _tel) = start_instrumented("a knows b .\n b knows c .", RULES, 500);
    let mut client = Client::new(server.local_addr());

    // Drive one query and one update so the engine-side phases fire.
    let resp = client
        .post("/query", "SELECT ?X WHERE { ?X reaches ?Z }")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let resp = client.post("/update", "+triple(c, knows, d)").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let text = &resp.body;

    // Every phase family is present (declared even at zero), plus the
    // HTTP-side families the scrape contract promises.
    for family in [
        "triq_prepare_ns",
        "triq_execute_ns",
        "triq_apply_delta_ns",
        "triq_chase_stratum_ns",
        "triq_chase_match_ns",
        "triq_chase_rule_match_ns",
        "triq_chase_sort_ns",
        "triq_chase_apply_ns",
        "triq_chase_plan_ns",
        "triq_index_build_ns",
        "triq_dred_overdelete_ns",
        "triq_dred_rederive_ns",
        "triq_wal_append_ns",
        "triq_wal_fsync_ns",
        "triq_checkpoint_encode_ns",
        "triq_checkpoint_write_ns",
        "triq_http_request_ns",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} histogram")),
            "family {family} missing from /metrics:\n{text}"
        );
    }
    // Request latency percentiles ride along as gauges.
    for q in ["_p50", "_p95", "_p99"] {
        assert!(
            text.contains(&format!("triq_http_request_ns{q} ")),
            "missing triq_http_request_ns{q}:\n{text}"
        );
    }
    // Counters and gauges from the service and engine.
    assert!(
        text.contains("triq_http_requests_total{status=\"200\"}"),
        "{text}"
    );
    assert!(text.contains("# TYPE triq_uptime_seconds gauge"), "{text}");
    assert!(text.contains("triq_engine_executions"), "{text}");
    assert!(
        text.contains("triq_service_queries_served_total 1"),
        "{text}"
    );
    assert!(
        text.contains("triq_service_updates_applied_total 1"),
        "{text}"
    );

    // The query ran a chase (rule library), so stratum timings counted.
    let stratum_count = text
        .lines()
        .find(|l| l.starts_with("triq_chase_stratum_ns_count "))
        .and_then(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .expect("triq_chase_stratum_ns_count line");
    assert!(stratum_count >= 1, "chase strata must be timed:\n{text}");

    // Deterministic exposition: family declarations come back in the
    // same order on every scrape (values may move, the shape may not).
    let shape = |body: &str| -> Vec<String> {
        body.lines()
            .filter(|l| l.starts_with("# TYPE"))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let first = shape(text);
    let second = shape(&client.get("/metrics").unwrap().body);
    assert_eq!(first, second, "family shape must be scrape-stable");
    assert!(first.windows(2).all(|w| w[0] <= w[1]), "families sorted");

    stop(service, server);
}

#[test]
fn version_reports_crate_version_and_build_profile() {
    let (service, server, _tel) = start_instrumented("a knows b .", "", 500);
    let mut client = Client::new(server.local_addr());
    let resp = client.get("/version").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(
        resp.body
            .contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
        "{}",
        resp.body
    );
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    assert!(
        resp.body.contains(&format!("\"profile\":\"{profile}\"")),
        "{}",
        resp.body
    );
    stop(service, server);
}

#[test]
fn every_response_carries_a_distinct_request_id() {
    let (service, server, _tel) = start_instrumented("a knows b .", "", 500);
    let mut client = Client::new(server.local_addr());
    let first = client.get("/health").unwrap();
    let second = client
        .post("/query", "SELECT ?X WHERE { ?X knows ?Y }")
        .unwrap();
    let id1 = first.header("x-request-id").expect("id on first response");
    let id2 = second
        .header("x-request-id")
        .expect("id on second response");
    assert!(id1.parse::<u64>().is_ok(), "numeric id, got {id1:?}");
    assert_ne!(id1, id2, "request ids must be distinct");
    // Errors carry one too.
    let missing = client.get("/no-such-path").unwrap();
    assert_eq!(missing.status, 404);
    assert!(missing.header("x-request-id").is_some());
    stop(service, server);
}

#[test]
fn debug_trace_returns_recent_spans_including_requests() {
    let (service, server, _tel) = start_instrumented("a knows b .\n b knows c .", RULES, 500);
    let mut client = Client::new(server.local_addr());
    for _ in 0..3 {
        let resp = client
            .post("/query", "SELECT ?X WHERE { ?X reaches ?Z }")
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let resp = client.get("/debug/trace?last=8").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"spans\":["), "{}", resp.body);
    assert!(resp.body.contains("\"name\":\"request\""), "{}", resp.body);
    assert!(resp.body.contains("\"capacity\":"), "{}", resp.body);
    // The bound is honoured: asking for 1 returns at most one span.
    let one = client.get("/debug/trace?last=1").unwrap();
    assert_eq!(one.body.matches("\"name\":").count(), 1, "{}", one.body);
    stop(service, server);
}

#[test]
fn slow_query_log_captures_plan_and_stratum_breakdown() {
    // Threshold 0: every query is "slow", so the capture path is
    // deterministic regardless of machine speed.
    let (service, server, _tel) = start_instrumented("a knows b .\n b knows c .", RULES, 0);
    let mut client = Client::new(server.local_addr());
    let query = "SELECT ?X WHERE { ?X reaches ?Z }";
    let resp = client.post("/query", query).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    let resp = client.get("/debug/slow").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"threshold_ms\":0"), "{}", resp.body);
    assert!(
        resp.body.contains("reaches"),
        "query text captured: {}",
        resp.body
    );
    assert!(resp.body.contains("\"plan\":"), "{}", resp.body);
    assert!(resp.body.contains("\"strata\":["), "{}", resp.body);
    assert!(resp.body.contains("\"latency_us\":"), "{}", resp.body);
    stop(service, server);
}
