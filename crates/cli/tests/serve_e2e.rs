//! End-to-end serving test through the real binary: `pqfs serve` starts
//! on a fixture index, `pqfs bench-client` drives load with zero errors,
//! SIGTERM drains and exits 0, and `--metrics-out` captures the server
//! counters on shutdown.
#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

/// Scratch directory for one test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pqfs-serve-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn pqfs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pqfs"))
        .args(args)
        .output()
        .expect("pqfs binary runs")
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn build_fixture(tag: &str) -> (TempDir, String) {
    let dir = TempDir::new(tag);
    let base = dir.path("base.fvecs");
    let index = dir.path("ix.pqiv");
    assert_success(
        &pqfs(&[
            "gen", "--out", &base, "--n", "2000", "--dim", "16", "--seed", "3",
        ]),
        "gen base",
    );
    assert_success(
        &pqfs(&[
            "build",
            "--base",
            &base,
            "--out",
            &index,
            "--partitions",
            "4",
            "--threads",
            "2",
        ]),
        "build",
    );
    (dir, index)
}

/// Spawns `pqfs serve` on an ephemeral port and returns the child plus
/// the address it reported in its readiness line.
fn spawn_serve(index: &str, metrics_out: &str) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pqfs"))
        .args([
            "serve",
            "--index",
            index,
            "--addr",
            "127.0.0.1:0",
            "--metrics-out",
            metrics_out,
            "--threads",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve prints a readiness line before EOF")
            .expect("readable stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.trim().to_string();
        }
    };
    (child, addr)
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "SIGTERM delivered");
}

#[test]
fn serve_answers_load_then_drains_on_sigterm() {
    let (dir, index) = build_fixture("load");
    let metrics = dir.path("metrics.json");
    let (mut child, addr) = spawn_serve(&index, &metrics);

    // Load with zero tolerated failures, mixing single and batch frames.
    let single = pqfs(&[
        "bench-client",
        "--addr",
        &addr,
        "--n",
        "60",
        "--batch",
        "1",
        "--topk",
        "5",
    ]);
    assert_success(&single, "bench-client batch=1");
    let batched = pqfs(&[
        "bench-client",
        "--addr",
        &addr,
        "--n",
        "120",
        "--batch",
        "8",
        "--connections",
        "2",
        "--topk",
        "5",
    ]);
    assert_success(&batched, "bench-client batch=8");
    for (out, what) in [(&single, "single"), (&batched, "batched")] {
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with('{'))
            .unwrap_or_else(|| panic!("{what}: no JSON line in: {stdout}"));
        assert!(
            line.contains("\"errors\": 0"),
            "{what} reports zero errors: {line}"
        );
        assert!(line.contains("\"qps\":"), "{what} reports qps: {line}");
    }

    // SIGTERM must drain and exit 0.
    sigterm(&child);
    let status = child.wait().expect("serve exits");
    assert_eq!(status.code(), Some(0), "clean drain exits 0");

    // --metrics-out was honored on shutdown and carries server metrics.
    let text = std::fs::read_to_string(&metrics).expect("metrics written on shutdown");
    #[cfg(feature = "telemetry")]
    {
        let snapshot = pqfs_obs::jsonv::parse(&text).expect("metrics parse as JSON");
        let counters = snapshot
            .get("counters")
            .and_then(pqfs_obs::jsonv::Value::as_object)
            .expect("counters object");
        let sum_of = |name: &str| -> u64 {
            counters
                .iter()
                .filter(|(k, _)| *k == name || k.starts_with(&format!("{name}{{")))
                .filter_map(|(_, v)| v.as_u64())
                .sum()
        };
        assert!(
            sum_of("pqfs_server_connections_total") >= 3,
            "every bench connection counted"
        );
        // 60 single + 2×(120/8 rounded up per worker) batch frames.
        assert!(sum_of("pqfs_server_requests_total") >= 60);
        assert!(sum_of("pqfs_server_batches_total") > 0);
        assert_eq!(
            sum_of("pqfs_server_shed_total"),
            0,
            "no shed under light load"
        );
    }
    #[cfg(not(feature = "telemetry"))]
    assert!(!text.is_empty());
    drop(dir);
}

#[test]
fn serve_rejects_bad_flags_and_missing_index() {
    let out = pqfs(&["serve", "--addr", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(1), "--index is required");
    let out = pqfs(&["serve", "--index", "/nonexistent/ix.pqiv"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "missing artifact is a load error: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A flag the command does not read is an error naming the flag, not
    // a silent no-op: the removed linger knob, a typo, and the removed
    // build-time backend list (every index answers every backend).
    for (command, required, flag) in [
        ("serve", "--addr", "--linger-us"),
        ("bench-client", "--addr", "--nprob"),
        ("build", "--base", "--backends"),
    ] {
        let out = pqfs(&[command, required, "127.0.0.1:1", flag, "8"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command} {flag}: {stderr}");
        assert!(stderr.contains(flag), "{command} names {flag}: {stderr}");
    }
    // A scan the paper only measures is not a backend: exit 1, listing the
    // three that are.
    let out = pqfs(&[
        "query",
        "--index",
        "ix.pqiv",
        "--queries",
        "q.fvecs",
        "--backend",
        "gather",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "--backend gather: {stderr}");
    assert!(stderr.contains("naive|libpq|fastscan"), "{stderr}");
}

#[test]
fn help_documents_the_serving_commands_and_exit_codes() {
    let out = pqfs(&["help"]);
    assert_success(&out, "help");
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "pqfs serve",
        "pqfs bench-client",
        "--max-batch",
        "--queue",
        "Overloaded",
        "EXIT CODES",
        "artifact load failure",
    ] {
        assert!(
            text.contains(needle),
            "help must mention '{needle}':\n{text}"
        );
    }
}

#[test]
fn bench_client_fails_fast_when_nothing_listens() {
    // A port from the ephemeral range with (almost certainly) no listener;
    // connect must fail with exit 1, not hang.
    let out = pqfs(&["bench-client", "--addr", "127.0.0.1:1", "--n", "1"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "unreachable server is a plain error: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
