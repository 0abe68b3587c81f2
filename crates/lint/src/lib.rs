//! `pqfs_lint` — in-repo static analysis for the PQ Fast Scan workspace.
//!
//! A lightweight, dependency-free lint pass that enforces project
//! invariants conventional tooling cannot see:
//!
//! - **missing-safety** — every `unsafe` block/fn/impl carries a safety
//!   contract (`// SAFETY:` comment or `# Safety` doc section).
//! - **forbidden-panic** — no `unwrap`/`expect`/`panic!`/`todo!`/
//!   `unimplemented!` in library crates outside test code.
//! - **unregistered-failpoint** — every failpoint site name armed in code
//!   appears in the checked-in registry `crates/fault/failpoints.sites`.
//! - **undocumented-metric** — every metric name matches the Prometheus
//!   grammar and is documented in `docs/OBSERVABILITY.md`.
//! - **policy-mismatch** — crate roots carry the unsafe-policy header the
//!   allowlist in `pqfs_lint.toml` prescribes: `#![deny(unsafe_op_in_unsafe_fn)]`
//!   on the `src/lib.rs` of an allowlisted crate, `#![forbid(unsafe_code)]`
//!   on every other root, the binaries of allowlisted crates included.
//!
//! Run with `cargo run -p pqfs_lint` from anywhere in the workspace; the
//! binary exits nonzero if any diagnostic fires. See
//! `docs/STATIC_ANALYSIS.md` for the full rules and waiver syntax.

#![forbid(unsafe_code)]

pub mod checks;
pub mod lexer;
pub mod toml_lite;
pub mod workspace;

use checks::FileCtx;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding. Rendered as `file:line: error[check]: msg`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Check name (stable identifier, also the waiver key).
    pub check: &'static str,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.file, self.line, self.check, self.msg
        )
    }
}

/// Lint configuration, loaded from `pqfs_lint.toml` at the workspace root.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directory prefixes (relative to the root) whose manifests and
    /// sources are not linted.
    pub exclude: Vec<String>,
    /// Crates whose library root may contain `unsafe` (it must deny
    /// `unsafe_op_in_unsafe_fn`; every other crate root, their binaries
    /// included, must forbid unsafe code).
    pub unsafe_crates: Vec<String>,
    /// Crates exempt from the panic ban (binaries, test harnesses).
    pub panic_crates: Vec<String>,
    /// Failpoint site registry path, relative to the root.
    pub failpoint_registry: String,
    /// Metrics documentation path, relative to the root.
    pub metrics_doc: String,
}

impl Config {
    /// Loads `pqfs_lint.toml` from `root`.
    pub fn load(root: &Path) -> Result<Config, String> {
        let path = root.join("pqfs_lint.toml");
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = toml_lite::parse(&src);
        let list = |key: &str| -> Vec<String> {
            doc.get("lint", key)
                .and_then(toml_lite::Value::as_array)
                .map(<[String]>::to_vec)
                .unwrap_or_default()
        };
        let string = |key: &str, default: &str| -> String {
            doc.get("lint", key)
                .and_then(toml_lite::Value::as_str)
                .unwrap_or(default)
                .to_string()
        };
        Ok(Config {
            exclude: list("exclude"),
            unsafe_crates: list("unsafe_crates"),
            panic_crates: list("panic_crates"),
            failpoint_registry: string("failpoint_registry", "crates/fault/failpoints.sites"),
            metrics_doc: string("metrics_doc", "docs/OBSERVABILITY.md"),
        })
    }
}

/// Runs every check over the workspace rooted at `root`. Returns the
/// sorted diagnostic list (empty = clean) or a hard error (I/O, missing
/// config) that prevented linting.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let cfg = Config::load(root)?;
    run_with(root, &cfg)
}

/// [`run`] with an explicit configuration (used by the fixture tests).
pub fn run_with(root: &Path, cfg: &Config) -> Result<Vec<Diagnostic>, String> {
    let members = workspace::discover(root, &cfg.exclude)?;
    let registry = checks::load_registry(&root.join(&cfg.failpoint_registry))?;
    let metrics_doc = std::fs::read_to_string(root.join(&cfg.metrics_doc)).unwrap_or_default();

    let mut out = Vec::new();
    for member in &members {
        let unsafe_allowed = cfg.unsafe_crates.contains(&member.name);
        let panics_allowed = cfg.panic_crates.contains(&member.name);
        let crate_dir = root.join(&member.dir);

        for (file, is_root, test_file) in source_files(&crate_dir)? {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            if cfg.exclude.iter().any(|p| rel.starts_with(p.as_str())) {
                continue;
            }
            let src = std::fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            let toks = lexer::lex(&src);
            let ctx = FileCtx::new(rel.clone(), &toks, test_file, panics_allowed);
            checks::check_safety(&ctx, &mut out);
            checks::check_panics(&ctx, &mut out);
            checks::check_failpoints(&ctx, &registry, &mut out);
            checks::check_metrics(&ctx, &metrics_doc, &mut out);
            if is_root {
                // Only the library of an allowlisted crate may hold unsafe
                // code; its binaries get the forbid rule.
                let lib_root = file == crate_dir.join("src").join("lib.rs");
                checks::check_policy(&rel, &toks, unsafe_allowed && lib_root, &mut out);
            }
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Every `.rs` file of a crate: `(path, is_crate_root, is_test_file)`.
/// Crate roots are `src/lib.rs`, `src/main.rs` and `src/bin/*.rs`;
/// test files live under `tests/`, `benches/` or `examples/`.
fn source_files(crate_dir: &Path) -> Result<Vec<(PathBuf, bool, bool)>, String> {
    let mut out = Vec::new();
    let src = crate_dir.join("src");
    if src.is_dir() {
        for file in rs_files(&src)? {
            let is_root = file == src.join("lib.rs")
                || file == src.join("main.rs")
                || file.parent() == Some(src.join("bin").as_path());
            out.push((file, is_root, false));
        }
    }
    for sub in ["tests", "examples"] {
        let dir = crate_dir.join(sub);
        if dir.is_dir() {
            for file in rs_files(&dir)? {
                out.push((file, false, true));
            }
        }
    }
    // Benches: test-leniency for panics, but bench binaries are roots for
    // the policy check (they are compilation roots with inner attributes).
    let benches = crate_dir.join("benches");
    if benches.is_dir() {
        for file in rs_files(&benches)? {
            let is_root = file.parent() == Some(benches.as_path());
            out.push((file, is_root, true));
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`, sorted.
fn rs_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries =
            std::fs::read_dir(&d).map_err(|e| format!("cannot list {}: {e}", d.display()))?;
        for entry in entries {
            let path = entry
                .map_err(|e| format!("cannot list {}: {e}", d.display()))?
                .path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Finds the workspace root by walking up from `start` until a directory
/// containing `pqfs_lint.toml` is found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("pqfs_lint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Groups diagnostics per check for the summary line.
pub fn summarize(diags: &[Diagnostic]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for d in diags {
        *counts.entry(d.check).or_insert(0) += 1;
    }
    counts
}
