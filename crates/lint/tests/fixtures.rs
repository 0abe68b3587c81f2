//! Fixture-tree tests: each fixture under `tests/fixtures/` is a miniature
//! workspace exercising exactly one violation class (plus `good`, which
//! exercises every check's happy path — SAFETY contracts, waiver comments,
//! registered failpoints, documented metrics). The
//! expected diagnostics are asserted *exactly*, rendered form included, so
//! message or line drift fails loudly. A final self-check runs the lint on
//! the real workspace and requires it to be clean.

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs the lint on a fixture and renders each diagnostic.
fn lint(name: &str) -> Vec<String> {
    let root = fixture(name);
    pqfs_lint::run(&root)
        .unwrap_or_else(|e| panic!("fixture {name} failed to lint: {e}"))
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[test]
fn good_fixture_is_clean() {
    assert_eq!(lint("good"), Vec::<String>::new());
}

#[test]
fn missing_safety_fixture() {
    assert_eq!(
        lint("missing_safety"),
        vec![
            "liba/src/lib.rs:4: error[missing-safety]: unsafe fn without a safety \
             contract; add a `# Safety` doc section or a `// SAFETY:` comment stating \
             the contract",
            "liba/src/lib.rs:5: error[missing-safety]: unsafe block without a safety \
             contract; add a `// SAFETY:` comment stating the upheld precondition",
            "liba/src/lib.rs:10: error[missing-safety]: unsafe block without a safety \
             contract; add a `// SAFETY:` comment stating the upheld precondition",
        ]
    );
}

#[test]
fn forbidden_panic_fixture() {
    assert_eq!(
        lint("forbidden_panic"),
        vec![
            "liba/src/lib.rs:5: error[forbidden-panic]: `panic!` in library code; \
             return a typed error instead",
            "liba/src/lib.rs:9: error[forbidden-panic]: `.unwrap()` in library code; \
             propagate the error or prove the invariant with `unreachable!`/poison \
             recovery",
        ]
    );
}

#[test]
fn unregistered_failpoint_fixture() {
    assert_eq!(
        lint("unregistered_failpoint"),
        vec![
            "liba/src/lib.rs:6: error[unregistered-failpoint]: failpoint site \
             \"bad.site\" is not in the site registry",
        ]
    );
}

#[test]
fn undocumented_metric_fixture() {
    assert_eq!(
        lint("undocumented_metric"),
        vec![
            "liba/src/lib.rs:6: error[undocumented-metric]: metric \
             \"pqfs_missing_total\" is not documented in docs/OBSERVABILITY.md",
            "liba/src/lib.rs:7: error[undocumented-metric]: metric name \"bad-name\" \
             violates the Prometheus grammar `[a-zA-Z_:][a-zA-Z0-9_:]*`",
        ]
    );
}

#[test]
fn policy_mismatch_fixture() {
    assert_eq!(
        lint("policy_mismatch"),
        vec![
            "liba/src/lib.rs:1: error[policy-mismatch]: crate root lacks \
             `#![forbid(unsafe_code)]` (only the `src/lib.rs` of a crate on the unsafe \
             allowlist in pqfs_lint.toml may hold unsafe code)",
            "libb/src/bin/tool.rs:1: error[policy-mismatch]: crate root lacks \
             `#![forbid(unsafe_code)]` (only the `src/lib.rs` of a crate on the unsafe \
             allowlist in pqfs_lint.toml may hold unsafe code)",
            "libb/src/lib.rs:1: error[policy-mismatch]: crate is on the unsafe \
             allowlist but its root lacks `#![deny(unsafe_op_in_unsafe_fn)]`",
            "libc/src/lib.rs:1: error[policy-mismatch]: crate is on the unsafe \
             allowlist but its root lacks `#![deny(unsafe_op_in_unsafe_fn)]`",
            "libc/src/lib.rs:1: error[policy-mismatch]: crate is on the unsafe \
             allowlist yet forbids unsafe code; remove it from `unsafe_crates` in \
             pqfs_lint.toml",
        ]
    );
}

/// The real workspace must lint clean — the same invariant CI enforces via
/// `cargo run -p pqfs_lint`, kept here so `cargo test` alone catches
/// regressions.
#[test]
fn real_workspace_is_clean() {
    let start = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = pqfs_lint::find_root(start).expect("workspace root with pqfs_lint.toml");
    let diags = pqfs_lint::run(&root).expect("lint run");
    assert!(
        diags.is_empty(),
        "workspace not clean:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
