//! Integration tests for the `triq-cli` binary.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("triq-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_triq-cli"))
}

const GRAPH: &str = "dbUllman is_author_of \"The Complete Book\" .\n\
                     dbUllman name \"Jeffrey Ullman\" .\n\
                     dbAho is_coauthor_of dbUllman .\n\
                     dbAho name \"Alfred Aho\" .\n";

#[test]
fn sparql_select() {
    let g = write_temp("g1.ttl", GRAPH);
    let out = cli()
        .args([
            "sparql",
            g.to_str().unwrap(),
            "SELECT ?X WHERE { ?Y name ?X }",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Jeffrey Ullman"));
    assert!(stdout.contains("Alfred Aho"));
}

#[test]
fn rules_evaluation_and_classification() {
    let g = write_temp("g2.ttl", GRAPH);
    let rules = write_temp(
        "authors.dl",
        "triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> query(?X).\n",
    );
    let out = cli()
        .args([
            "rules",
            g.to_str().unwrap(),
            rules.to_str().unwrap(),
            "query",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("Jeffrey Ullman"));

    let out = cli()
        .args(["classify", rules.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("TriQ-Lite 1.0:          true"));
}

#[test]
fn update_mode_applies_incremental_batches() {
    let g = write_temp("g_upd.ttl", "a knows b .\n");
    let rules = write_temp(
        "reach.dl",
        "triple(?X, knows, ?Y) -> reach(?X, ?Y).\n\
         triple(?X, knows, ?Y), reach(?Y, ?Z) -> reach(?X, ?Z).\n\
         reach(?X, ?Y) -> query(?X, ?Y).\n",
    );
    let updates = write_temp(
        "updates.txt",
        "# grow the chain, then cut it\n\
         +triple(b, knows, c)\n\
         +triple(c, knows, d)\n\
         \n\
         -triple(b, knows, c)\n",
    );
    let out = cli()
        .args([
            "--stats",
            "update",
            g.to_str().unwrap(),
            rules.to_str().unwrap(),
            "query",
            updates.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Initial: only a→b. Batch 1: full chain a..d. Batch 2: cut at b.
    let initial = stdout.split("== after batch 1 ==").next().unwrap();
    assert!(initial.contains("a\tb"));
    assert!(!initial.contains("a\td"));
    let batch1 = stdout
        .split("== after batch 1 ==")
        .nth(1)
        .unwrap()
        .split("== after batch 2 ==")
        .next()
        .unwrap();
    assert!(batch1.contains("a\td"), "{stdout}");
    assert!(batch1.contains("c\td"));
    let batch2 = stdout.split("== after batch 2 ==").nth(1).unwrap();
    assert!(!batch2.contains("a\td"), "{stdout}");
    assert!(batch2.contains("c\td"));
    // Stats report the incremental counters: both batches were deltas,
    // not re-chases.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("chase_runs:              1"), "{stderr}");
    assert!(stderr.contains("deltas_applied:          2"), "{stderr}");
    assert!(stderr.contains("atoms_overdeleted:"), "{stderr}");
    assert!(stderr.contains("atoms_rederived:"), "{stderr}");
}

#[test]
fn profile_flag_prints_phase_table_for_one_shot_commands() {
    let g = write_temp("g_prof.ttl", GRAPH);
    let rules = write_temp(
        "prof.dl",
        "triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> query(?X).\n",
    );
    let out = cli()
        .args([
            "--profile",
            "rules",
            g.to_str().unwrap(),
            rules.to_str().unwrap(),
            "query",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("profile:"), "{stderr}");
    // The chase ran under the profiler: per-phase rows and the
    // by-stratum breakdown both appear.
    assert!(stderr.contains("chase_stratum_ns"), "{stderr}");
    assert!(stderr.contains("chase by stratum:"), "{stderr}");
    // The answers themselves are untouched.
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("Jeffrey Ullman"));
}

#[test]
fn profile_flag_is_rejected_for_serve() {
    let g = write_temp("g_prof2.ttl", "a p b .\n");
    let rules = write_temp("prof2.dl", "triple(?X, p, ?Y) -> query(?X).\n");
    let out = cli()
        .args([
            "--profile",
            "serve",
            g.to_str().unwrap(),
            rules.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("--profile is only supported for one-shot commands"));
}

#[test]
fn update_mode_rejects_malformed_lines() {
    let g = write_temp("g_upd2.ttl", "a knows b .\n");
    let rules = write_temp("r_upd2.dl", "triple(?X, knows, ?Y) -> query(?X).\n");
    let updates = write_temp("bad_updates.txt", "triple(a, knows, c)\n");
    let out = cli()
        .args([
            "update",
            g.to_str().unwrap(),
            rules.to_str().unwrap(),
            "query",
            updates.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("must start with '+' or '-'"));
}

/// The CI server-smoke shape: start `triq-cli serve` on an ephemeral
/// port, drive query/update/stats through the test client
/// (curl-equivalent), then stop it cleanly through `POST /shutdown` and
/// check the exit status.
#[test]
fn serve_smoke_starts_serves_and_shuts_down_cleanly() {
    let g = write_temp("g_serve.ttl", "a knows b .\n b knows c .\n");
    let rules = write_temp(
        "serve_rules.dl",
        "triple(?X, knows, ?Y), triple(?Y, knows, ?Z) -> triple(?X, reaches, ?Z).\n",
    );
    let mut child = cli()
        .args([
            "serve",
            g.to_str().unwrap(),
            rules.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--enable-shutdown",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // The bound address is the first stdout line.
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .parse()
        .unwrap();

    let mut client = triq_server::Client::new(addr);
    let resp = client
        .post("/query", "SELECT ?X WHERE { ?X reaches ?Z }")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"rows\":[[\"a\"]]"), "{}", resp.body);

    let resp = client.post("/update", "+triple(c, knows, d)").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let resp = client
        .post("/query", "SELECT ?X WHERE { ?X reaches ?Z }")
        .unwrap();
    assert!(
        resp.body.contains("\"rows\":[[\"a\"],[\"b\"]]"),
        "{}",
        resp.body
    );

    let resp = client.get("/stats").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"updates_applied\":1"), "{}", resp.body);
    assert!(resp.body.contains("\"uptime_seconds\""), "{}", resp.body);
    assert!(
        resp.body.contains("\"requests_by_status\""),
        "{}",
        resp.body
    );
    assert!(
        resp.header("x-request-id").is_some(),
        "responses must carry X-Request-Id"
    );

    // The scrape endpoint serves the required metric families.
    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    for family in [
        "# TYPE triq_http_request_ns histogram",
        "# TYPE triq_chase_stratum_ns histogram",
        "# TYPE triq_wal_append_ns histogram",
        "# TYPE triq_checkpoint_write_ns histogram",
        "triq_http_requests_total{status=\"200\"}",
        "triq_http_request_ns_p99",
        "triq_uptime_seconds",
        "triq_engine_executions",
    ] {
        assert!(
            resp.body.contains(family),
            "missing {family}:\n{}",
            resp.body
        );
    }

    let resp = client.get("/version").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"version\""), "{}", resp.body);
    assert!(resp.body.contains("\"profile\""), "{}", resp.body);

    // Clean shutdown: the endpoint answers, the process exits 0.
    assert_eq!(client.post("/shutdown", "").unwrap().status, 200);
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited with {status:?}");
}

#[test]
fn serve_rejects_bad_rules_at_startup() {
    let g = write_temp("g_serve2.ttl", "a p b .\n");
    let rules = write_temp("serve_bad.dl", "this is not datalog(((\n");
    let out = cli()
        .args(["serve", g.to_str().unwrap(), rules.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("E-PARSE"));
}

#[test]
fn entailment_through_cli() {
    let g = write_temp(
        "g3.ttl",
        "dog rdf:type animal .\n\
         animal rdfs:subClassOf mammal_or_so .\n",
    );
    let out = cli()
        .args([
            "entail",
            g.to_str().unwrap(),
            "dog",
            "rdf:type",
            "mammal_or_so",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "true");
    let out = cli()
        .args(["entail", g.to_str().unwrap(), "dog", "rdf:type", "plant"])
        .output()
        .unwrap();
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "false");
}

#[test]
fn regime_flag() {
    let g = write_temp(
        "g4.ttl",
        "dog rdf:type animal .\n\
         animal rdfs:subClassOf some_eats .\n\
         some_eats rdf:type owl:Restriction .\n\
         some_eats owl:onProperty eats .\n\
         some_eats owl:someValuesFrom owl:Thing .\n",
    );
    let out = cli()
        .args([
            "sparql",
            g.to_str().unwrap(),
            "SELECT ?X WHERE { ?X eats _:B }",
            "--regime",
            "all",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("dog"));
}

#[test]
fn bad_usage_fails() {
    let out = cli().args(["nonsense"]).output().unwrap();
    assert!(!out.status.success());
    let out = cli()
        .args(["sparql", "/nonexistent.ttl", "SELECT ?X WHERE { ?X p ?Y }"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn explain_shows_derivation() {
    let g = write_temp(
        "g5.ttl",
        "dog rdf:type animal .\n\
         animal rdfs:subClassOf mammal .\n",
    );
    let out = cli()
        .args(["explain", g.to_str().unwrap(), "dog", "rdf:type", "mammal"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("triple1(dog, rdf:type, mammal)"));
    assert!(stdout.contains("[database]"));
    let out = cli()
        .args(["explain", g.to_str().unwrap(), "dog", "rdf:type", "fish"])
        .output()
        .unwrap();
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("not entailed"));
}

#[test]
fn stats_flag_prints_engine_counters() {
    let g = write_temp("g5.ttl", GRAPH);
    let out = cli()
        .args([
            "--stats",
            "sparql",
            g.to_str().unwrap(),
            "SELECT ?X WHERE { ?Y name ?X }",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("Alfred Aho"));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("chase_runs:              1"), "{stderr}");
    assert!(stderr.contains("join_probes:"), "{stderr}");
    assert!(stderr.contains("atoms_derived:"), "{stderr}");
    assert!(stderr.contains("kernel_filter_rows:"), "{stderr}");
    // Without the flag, stderr stays quiet.
    let out = cli()
        .args([
            "sparql",
            g.to_str().unwrap(),
            "SELECT ?X WHERE { ?Y name ?X }",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(!String::from_utf8(out.stderr)
        .unwrap()
        .contains("chase_runs"));
}

#[test]
fn stats_flag_is_leading_only_and_rejected_where_unsupported() {
    let g = write_temp("g6.ttl", GRAPH);
    // --stats with a non-engine command errors instead of being ignored.
    let out = cli()
        .args(["--stats", "entail", g.to_str().unwrap(), "a", "b", "c"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("--stats is not supported"));
    // A positional argument that equals "--stats" is not consumed: the
    // command fails on the missing file, not on mangled arguments.
    let out = cli()
        .args(["sparql", "--stats", "SELECT ?X WHERE { ?Y name ?X }"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("cannot read --stats"));
}
