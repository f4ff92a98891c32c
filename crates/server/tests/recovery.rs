//! Crash-recovery tests for `triq-cli serve --data-dir`: the server is
//! SIGKILLed mid-flight and restarted from its data directory; answers,
//! versions and engine behavior must come back **exactly** — same
//! version, byte-identical response bodies, no re-chase.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

use triq_server::Client;

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("triq-recovery-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("triq-recovery-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts `triq-cli serve … --data-dir <dir>` on an ephemeral port and
/// waits for the listening banner. Returns the child and bound address.
fn spawn_serve(
    graph: &std::path::Path,
    rules: &std::path::Path,
    data_dir: &std::path::Path,
    extra: &[&str],
) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_triq-cli"))
        .args([
            "serve",
            graph.to_str().unwrap(),
            rules.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--data-dir",
            data_dir.to_str().unwrap(),
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .parse()
        .unwrap();
    (child, addr)
}

const RULES: &str = "triple(?X, knows, ?Y) -> triple(?X, reaches, ?Y).\n\
                     triple(?X, knows, ?Y), triple(?Y, reaches, ?Z) -> triple(?X, reaches, ?Z).\n";

const QUERY: &str = "SELECT ?X ?Z WHERE { ?X reaches ?Z }";

/// The tentpole differential: mutate, record answers, SIGKILL, restart
/// from the data directory, and demand the exact pre-crash version with
/// byte-identical response bodies — served without re-running the chase.
#[test]
fn sigkill_and_recover_serves_identical_answers_at_exact_version() {
    let graph = write_temp("kill_g.ttl", "a knows b .\n");
    let rules = write_temp("kill_rules.dl", RULES);
    let data_dir = fresh_dir("kill");

    // Checkpoint every 2 WAL records: the second update captures a
    // snapshot that includes the materialized view, and the third
    // leaves a WAL tail for replay — recovery exercises both halves.
    let (mut child, addr) = spawn_serve(&graph, &rules, &data_dir, &["--checkpoint-ops", "2"]);
    let mut client = Client::new(addr);

    // Materialize the query view first, then build some state: three
    // acknowledged updates (each WAL'd before applied).
    assert_eq!(client.post("/query", QUERY).unwrap().status, 200);
    assert_eq!(
        client
            .post("/update", "+triple(b, knows, c)")
            .unwrap()
            .status,
        200
    );
    let resp = client
        .post("/update", "+triple(c, knows, d)\n-triple(a, knows, b)")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        client
            .post("/update", "+triple(d, knows, b)")
            .unwrap()
            .status,
        200
    );
    let before = client.post("/query", QUERY).unwrap();
    assert_eq!(before.status, 200, "{}", before.body);
    assert!(before.body.contains("[\"b\",\"d\"]"), "{}", before.body);
    assert!(!before.body.contains("[\"a\",\"b\"]"), "{}", before.body);

    // SIGKILL: no destructors, no flush beyond what the WAL guarantees.
    child.kill().unwrap();
    child.wait().unwrap();

    // Restart from the same data directory. The graph file is ignored
    // on recovery — hand it a graph that would produce different
    // answers to prove the recovered database is the source of truth.
    let decoy = write_temp("kill_decoy.ttl", "x knows y .\n");
    let (mut child, addr) = spawn_serve(&decoy, &rules, &data_dir, &["--checkpoint-ops", "2"]);
    let mut client = Client::new(addr);

    let after = client.post("/query", QUERY).unwrap();
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(
        before.body, after.body,
        "recovered answers must be byte-identical"
    );

    // The recovered process adopted the snapshotted view: zero chase
    // runs, and the replayed WAL records show up in the counters.
    let stats = client.get("/stats").unwrap();
    assert!(stats.body.contains("\"chase_runs\":0"), "{}", stats.body);
    assert!(
        !stats.body.contains("\"recovery_replayed_ops\":0,"),
        "expected replayed WAL records: {}",
        stats.body
    );

    // And the recovered server keeps accepting durable writes.
    let resp = client.post("/update", "+triple(d, knows, e)").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let grown = client.post("/query", QUERY).unwrap();
    assert!(grown.body.contains("[\"b\",\"e\"]"), "{}", grown.body);

    child.kill().unwrap();
    child.wait().unwrap();
}

/// Crash → recover → crash → recover: versions keep lining up across
/// generations (checkpoint from generation 1, WAL tail from generation
/// 2).
#[test]
fn recovery_is_stable_across_repeated_crashes() {
    let graph = write_temp("re_g.ttl", "n0 knows n1 .\n");
    let rules = write_temp("re_rules.dl", RULES);
    let data_dir = fresh_dir("repeat");

    let mut expected_body = None;
    for generation in 0..3 {
        let (mut child, addr) = spawn_serve(&graph, &rules, &data_dir, &[]);
        let mut client = Client::new(addr);
        if let Some(expected) = &expected_body {
            let got = client.post("/query", QUERY).unwrap();
            assert_eq!(&got.body, expected, "generation {generation}");
        }
        let n = generation + 1;
        let resp = client
            .post("/update", &format!("+triple(n{n}, knows, n{})", n + 1))
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body = client.post("/query", QUERY).unwrap();
        assert_eq!(body.status, 200);
        expected_body = Some(body.body);
        child.kill().unwrap();
        child.wait().unwrap();
    }
}

/// A fresh data directory gets a checkpoint before serving: crash with
/// an EMPTY WAL (no updates at all) still recovers the loaded graph.
#[test]
fn crash_before_first_update_recovers_the_initial_graph() {
    let graph = write_temp("init_g.ttl", "a knows b .\n b knows c .\n");
    let rules = write_temp("init_rules.dl", RULES);
    let data_dir = fresh_dir("init");

    let (mut child, addr) = spawn_serve(&graph, &rules, &data_dir, &[]);
    let mut client = Client::new(addr);
    let before = client.post("/query", QUERY).unwrap();
    assert_eq!(before.status, 200);
    child.kill().unwrap();
    child.wait().unwrap();

    let decoy = write_temp("init_decoy.ttl", "q knows r .\n");
    let (mut child, addr) = spawn_serve(&decoy, &rules, &data_dir, &[]);
    let mut client = Client::new(addr);
    let after = client.post("/query", QUERY).unwrap();
    assert_eq!(before.body, after.body);
    child.kill().unwrap();
    child.wait().unwrap();
}

/// A blank node becomes the variable `?blank~B~1` in the §5 translation,
/// and a checkpointed view stores its program as text: the snapshot must
/// decode again (it used to fail with `E-PERSIST … does not re-parse`,
/// leaving the data directory unrecoverable).
#[test]
fn checkpointed_blank_node_view_recovers() {
    let graph = write_temp(
        "blank_g.ttl",
        "s1 advisor p1 .\n s1 memberOf d .\n s2 memberOf d .\n",
    );
    let rules = write_temp("blank_rules.dl", RULES);
    let data_dir = fresh_dir("blank");
    const BLANK_QUERY: &str = "SELECT ?X WHERE { ?X advisor _:B . ?X memberOf d }";

    let (mut child, addr) = spawn_serve(&graph, &rules, &data_dir, &["--checkpoint-ops", "2"]);
    let mut client = Client::new(addr);
    let first = client.post("/query?regime=kall", BLANK_QUERY).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    // Two acknowledged updates: the second one's checkpoint captures
    // the blank-node view.
    for update in ["+triple(s2, advisor, p2)", "+triple(s3, memberOf, d)"] {
        let resp = client.post("/update", update).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let before = client.post("/query?regime=kall", BLANK_QUERY).unwrap();
    assert_eq!(before.status, 200, "{}", before.body);
    assert!(before.body.contains("[\"s2\"]"), "{}", before.body);
    assert!(!before.body.contains("[\"s3\"]"), "{}", before.body);
    // The writer thread checkpoints after acknowledging the batch: wait
    // for it, so the kill lands on a snapshot that holds the view.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let stats = client.get("/stats").unwrap();
        if stats.body.contains("\"snapshots_written\":2") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no periodic checkpoint: {}",
            stats.body
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    child.kill().unwrap();
    child.wait().unwrap();

    let (mut child, addr) = spawn_serve(&graph, &rules, &data_dir, &["--checkpoint-ops", "2"]);
    let mut client = Client::new(addr);
    let after = client.post("/query?regime=kall", BLANK_QUERY).unwrap();
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(
        before.body, after.body,
        "same rows at the same version after recovery"
    );
    let stats = client.get("/stats").unwrap();
    assert!(stats.body.contains("\"chase_runs\":0"), "{}", stats.body);
    child.kill().unwrap();
    child.wait().unwrap();
}
