//! The invariant checks.
//!
//! Each check pushes [`Diagnostic`]s; the driver ([`crate::run`]) decides
//! process exit. Every check honors inline waivers: a comment containing
//! `pqfs-lint: allow(<check-name>)` on the offending line or the line
//! directly above suppresses that check there (use sparingly, give a
//! reason — see `docs/STATIC_ANALYSIS.md`).

use crate::lexer::{Tok, TokKind};
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// Check names (also the `error[…]` tags in diagnostics).
pub const MISSING_SAFETY: &str = "missing-safety";
pub const FORBIDDEN_PANIC: &str = "forbidden-panic";
pub const UNREGISTERED_FAILPOINT: &str = "unregistered-failpoint";
pub const UNDOCUMENTED_METRIC: &str = "undocumented-metric";
pub const POLICY_MISMATCH: &str = "policy-mismatch";

/// Per-file context handed to the source checks.
pub struct FileCtx<'a> {
    /// Path relative to the workspace root (diagnostic spelling).
    pub rel_path: String,
    /// Lexed tokens.
    pub toks: &'a [Tok],
    /// The file lives under `tests/`, `benches/` or `examples/`.
    pub test_file: bool,
    /// The owning crate is exempt from the panic ban (binaries, harnesses).
    pub panics_allowed: bool,
    /// Lines carrying a `pqfs-lint: allow(…)` waiver: line → check names.
    pub waivers: BTreeMap<u32, BTreeSet<String>>,
}

impl<'a> FileCtx<'a> {
    /// Builds the context, scanning comments for waivers.
    pub fn new(rel_path: String, toks: &'a [Tok], test_file: bool, panics_allowed: bool) -> Self {
        let mut waivers: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
        for t in toks {
            if t.is_code() {
                continue;
            }
            let mut rest = t.text.as_str();
            while let Some(idx) = rest.find("pqfs-lint: allow(") {
                let after = &rest[idx + "pqfs-lint: allow(".len()..];
                if let Some(end) = after.find(')') {
                    waivers
                        .entry(t.line)
                        .or_default()
                        .insert(after[..end].trim().to_string());
                    rest = &after[end..];
                } else {
                    break;
                }
            }
        }
        FileCtx {
            rel_path,
            toks,
            test_file,
            panics_allowed,
            waivers,
        }
    }

    fn waived(&self, line: u32, check: &str) -> bool {
        [line, line.saturating_sub(1)]
            .iter()
            .any(|l| self.waivers.get(l).is_some_and(|w| w.contains(check)))
    }

    fn diag(&self, out: &mut Vec<Diagnostic>, line: u32, check: &'static str, msg: String) {
        if !self.waived(line, check) {
            out.push(Diagnostic {
                file: self.rel_path.clone(),
                line,
                check,
                msg,
            });
        }
    }
}

fn next_code_idx(toks: &[Tok], mut i: usize) -> Option<usize> {
    i += 1;
    while i < toks.len() {
        if toks[i].is_code() {
            return Some(i);
        }
        i += 1;
    }
    None
}

fn prev_code_idx(toks: &[Tok], i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| toks[j].is_code())
}

// ---------------------------------------------------------------------------
// missing-safety
// ---------------------------------------------------------------------------

/// Every `unsafe` block, fn, impl or trait must carry a safety contract:
/// a `// SAFETY:` comment immediately before it, or (for fns) a `# Safety`
/// doc section.
pub fn check_safety(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        let Some(next) = next_code_idx(toks, i) else {
            continue;
        };
        let form = match toks[next].text.as_str() {
            "{" => "block",
            "fn" | "extern" => "fn",
            "impl" => "impl",
            "trait" => "trait",
            _ => continue, // `unsafe` inside type grammar (fn pointers, …)
        };
        // `unsafe trait` *definitions* only promise, they don't assume;
        // the contract lives on `unsafe impl`.
        if form == "trait" {
            continue;
        }
        if form == "fn" {
            if has_fn_safety_doc(toks, i) {
                continue;
            }
        } else if has_block_safety_comment(toks, i) {
            continue;
        }
        let what = match form {
            "block" => "unsafe block",
            "impl" => "unsafe impl",
            _ => "unsafe fn",
        };
        let hint = if form == "fn" {
            "add a `# Safety` doc section or a `// SAFETY:` comment stating the contract"
        } else {
            "add a `// SAFETY:` comment stating the upheld precondition"
        };
        ctx.diag(
            out,
            t.line,
            MISSING_SAFETY,
            format!("{what} without a safety contract; {hint}"),
        );
    }
}

/// For `unsafe fn` / `unsafe impl` headers: scan backwards over modifiers,
/// attributes and doc comments; accept a doc block containing `# Safety`
/// or any `SAFETY:` comment.
fn has_fn_safety_doc(toks: &[Tok], unsafe_idx: usize) -> bool {
    let mut i = unsafe_idx;
    let mut budget = 96usize; // attrs + docs above a fn header are short
    while i > 0 && budget > 0 {
        i -= 1;
        budget -= 1;
        let t = &toks[i];
        match t.kind {
            TokKind::DocComment => {
                if t.text.contains("# Safety") || t.text.contains("SAFETY:") {
                    return true;
                }
            }
            TokKind::Comment => {
                if t.text.contains("SAFETY:") {
                    return true;
                }
            }
            TokKind::Ident => match t.text.as_str() {
                // Modifiers and attribute contents that may sit between the
                // docs and the `unsafe` keyword.
                "pub" | "crate" | "in" | "const" | "async" | "extern" | "inline" | "always"
                | "cold" | "target_feature" | "enable" | "must_use" | "doc" | "hidden"
                | "allow" | "expect" | "cfg" | "all" | "any" | "not" | "feature"
                | "target_arch" | "clippy" | "test" | "derive" | "repr" => {}
                _ => return false,
            },
            TokKind::Str | TokKind::Lifetime | TokKind::Num => {}
            TokKind::Punct => match t.text.as_str() {
                "#" | "[" | "]" | "(" | ")" | "=" | "," | ":" | "\"" => {}
                _ => return false,
            },
            _ => return false,
        }
    }
    false
}

/// For `unsafe` blocks: a `SAFETY:` comment within the preceding few
/// tokens/lines. The comment may sit above the statement that contains the
/// block (`let x = \n unsafe { … }`), and a multi-line comment block is
/// scanned in full (contiguous comment lines walking upward).
fn has_block_safety_comment(toks: &[Tok], unsafe_idx: usize) -> bool {
    let unsafe_line = toks[unsafe_idx].line;
    let mut code_gap = 0usize;
    let mut prev_comment_line: Option<u32> = None;
    let mut i = unsafe_idx;
    while i > 0 {
        i -= 1;
        let t = &toks[i];
        if t.is_code() {
            if t.line + 4 < unsafe_line {
                return false;
            }
            code_gap += 1;
            if code_gap > 6 {
                return false;
            }
            continue;
        }
        // A comment counts when it is near the unsafe block, or contiguous
        // with the comment line below it (multi-line SAFETY blocks).
        let near =
            t.line + 4 >= unsafe_line || prev_comment_line.is_some_and(|below| below <= t.line + 1);
        if !near {
            return false;
        }
        prev_comment_line = Some(t.line);
        if t.text.contains("SAFETY:") {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// forbidden-panic
// ---------------------------------------------------------------------------

const PANIC_MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];

/// `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` are banned in
/// library code outside tests. Use typed errors, `unwrap_or_else` with
/// poison recovery, or `unreachable!` for provable invariants.
pub fn check_panics(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if ctx.panics_allowed || ctx.test_file {
        return;
    }
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.in_test {
            continue;
        }
        let name = t.text.as_str();
        if PANIC_MACROS.contains(&name) {
            let bang = next_code_idx(toks, i).is_some_and(|j| toks[j].text == "!");
            if bang {
                ctx.diag(
                    out,
                    t.line,
                    FORBIDDEN_PANIC,
                    format!("`{name}!` in library code; return a typed error instead"),
                );
            }
            continue;
        }
        if PANIC_METHODS.contains(&name) {
            let dotted = prev_code_idx(toks, i).is_some_and(|j| toks[j].text == ".");
            let called = next_code_idx(toks, i).is_some_and(|j| toks[j].text == "(");
            if dotted && called {
                ctx.diag(
                    out,
                    t.line,
                    FORBIDDEN_PANIC,
                    format!(
                        "`.{name}()` in library code; propagate the error or prove the \
                         invariant with `unreachable!`/poison recovery"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// unregistered-failpoint
// ---------------------------------------------------------------------------

/// Failpoint site names armed in code must appear in the checked-in site
/// registry (exact match, or a `prefix.*` wildcard entry).
pub fn check_failpoints(ctx: &FileCtx, registry: &[String], out: &mut Vec<Diagnostic>) {
    if ctx.test_file {
        return;
    }
    let toks = ctx.toks;
    let registered = |site: &str| -> bool {
        registry.iter().any(|entry| match entry.strip_suffix(".*") {
            Some(prefix) => site
                .strip_prefix(prefix)
                .is_some_and(|rest| rest.starts_with('.') && rest.len() > 1),
            None => entry == site,
        })
    };
    let report = |line: u32, site: &str, out: &mut Vec<Diagnostic>| {
        if !registered(site) {
            ctx.diag(
                out,
                line,
                UNREGISTERED_FAILPOINT,
                format!("failpoint site \"{site}\" is not in the site registry"),
            );
        }
    };
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.in_test {
            continue;
        }
        match t.text.as_str() {
            // pqfs_fault::check("site") / arm("site", …) / scoped("site", …)
            "check" | "arm" | "arm_limited" | "scoped" => {
                let Some(paren) = next_code_idx(toks, i) else {
                    continue;
                };
                if toks[paren].text != "(" {
                    continue;
                }
                if let Some(arg) = next_code_idx(toks, paren) {
                    if toks[arg].kind == TokKind::Str {
                        report(toks[arg].line, &toks[arg].text, out);
                    }
                }
            }
            // FaultRead::new(inner, "site") / FaultWrite::new(inner, "site"),
            // and the AtomicWriteSites { create: "…", … } literal.
            "FaultRead" | "FaultWrite" | "AtomicWriteSites" => {
                let open = if t.text == "AtomicWriteSites" {
                    // Struct literal: the next `{`.
                    let Some(j) = next_code_idx(toks, i) else {
                        continue;
                    };
                    if toks[j].text != "{" {
                        continue;
                    }
                    j
                } else {
                    // `::new(` call.
                    let Some(c1) = next_code_idx(toks, i) else {
                        continue;
                    };
                    let Some(c2) = next_code_idx(toks, c1) else {
                        continue;
                    };
                    let Some(c3) = next_code_idx(toks, c2) else {
                        continue;
                    };
                    if toks[c1].text != ":" || toks[c2].text != ":" || toks[c3].text != "new" {
                        continue;
                    }
                    let Some(paren) = next_code_idx(toks, c3) else {
                        continue;
                    };
                    if toks[paren].text != "(" {
                        continue;
                    }
                    paren
                };
                // Collect string literals at bracket depth 1.
                let mut depth = 0i32;
                let mut j = open;
                while j < toks.len() {
                    let tok = &toks[j];
                    if tok.is_code() {
                        match tok.text.as_str() {
                            "(" | "{" | "[" => depth += 1,
                            ")" | "}" | "]" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if tok.kind == TokKind::Str && depth == 1 {
                            report(tok.line, &tok.text, out);
                        }
                    }
                    j += 1;
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// undocumented-metric
// ---------------------------------------------------------------------------

const METRIC_TYPES: [&str; 4] = ["LazyCounter", "LazyGauge", "LazyHistogram", "CounterFamily"];

/// Metric names must match the Prometheus name grammar and appear in the
/// observability documentation.
pub fn check_metrics(ctx: &FileCtx, metrics_doc: &str, out: &mut Vec<Diagnostic>) {
    if ctx.test_file {
        return;
    }
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.in_test || !METRIC_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        // Match `<Type>::new("name"` with the name as the first argument.
        let Some(c1) = next_code_idx(toks, i) else {
            continue;
        };
        let Some(c2) = next_code_idx(toks, c1) else {
            continue;
        };
        let Some(m) = next_code_idx(toks, c2) else {
            continue;
        };
        if toks[c1].text != ":" || toks[c2].text != ":" || toks[m].text != "new" {
            continue;
        }
        let Some(paren) = next_code_idx(toks, m) else {
            continue;
        };
        if toks[paren].text != "(" {
            continue;
        }
        let Some(arg) = next_code_idx(toks, paren) else {
            continue;
        };
        if toks[arg].kind != TokKind::Str {
            continue;
        }
        let name = &toks[arg].text;
        if !valid_prometheus_name(name) {
            ctx.diag(
                out,
                toks[arg].line,
                UNDOCUMENTED_METRIC,
                format!(
                    "metric name \"{name}\" violates the Prometheus grammar \
                     `[a-zA-Z_:][a-zA-Z0-9_:]*`"
                ),
            );
        } else if !metrics_doc.contains(name) {
            ctx.diag(
                out,
                toks[arg].line,
                UNDOCUMENTED_METRIC,
                format!("metric \"{name}\" is not documented in docs/OBSERVABILITY.md"),
            );
        }
    }
}

fn valid_prometheus_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

// ---------------------------------------------------------------------------
// policy-mismatch
// ---------------------------------------------------------------------------

/// Crate-root policy: an `unsafe_allowed` root (the `src/lib.rs` of a crate
/// on the unsafe allowlist) must carry `#![deny(unsafe_op_in_unsafe_fn)]`
/// (and must not forbid unsafe code); every other crate root must carry
/// `#![forbid(unsafe_code)]`.
pub fn check_policy(rel_path: &str, toks: &[Tok], unsafe_allowed: bool, out: &mut Vec<Diagnostic>) {
    let attrs = inner_attrs(toks);
    let has = |needle: &str| attrs.iter().any(|a| a == needle);
    let forbids = has("forbid(unsafe_code)") || has("deny(unsafe_code)");
    let denies_ops = has("deny(unsafe_op_in_unsafe_fn)") || has("forbid(unsafe_op_in_unsafe_fn)");
    if unsafe_allowed {
        if !denies_ops {
            out.push(Diagnostic {
                file: rel_path.to_string(),
                line: 1,
                check: POLICY_MISMATCH,
                msg: "crate is on the unsafe allowlist but its root lacks \
                      `#![deny(unsafe_op_in_unsafe_fn)]`"
                    .to_string(),
            });
        }
        if forbids {
            out.push(Diagnostic {
                file: rel_path.to_string(),
                line: 1,
                check: POLICY_MISMATCH,
                msg: "crate is on the unsafe allowlist yet forbids unsafe code; \
                      remove it from `unsafe_crates` in pqfs_lint.toml"
                    .to_string(),
            });
        }
    } else if !forbids {
        out.push(Diagnostic {
            file: rel_path.to_string(),
            line: 1,
            check: POLICY_MISMATCH,
            msg: "crate root lacks `#![forbid(unsafe_code)]` (only the `src/lib.rs` of a \
                  crate on the unsafe allowlist in pqfs_lint.toml may hold unsafe code)"
                .to_string(),
        });
    }
}

/// The file's leading inner attributes (`#![…]`), rendered compactly
/// (idents and punctuation joined, whitespace dropped).
fn inner_attrs(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0usize;
    loop {
        // Skip comments and doc comments.
        while i < toks.len() && !toks[i].is_code() {
            i += 1;
        }
        if i + 1 >= toks.len() || toks[i].text != "#" || toks[i + 1].text != "!" {
            break;
        }
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut rendered = String::new();
        while j < toks.len() {
            let t = &toks[j];
            if t.is_code() {
                match t.text.as_str() {
                    "[" => {
                        depth += 1;
                        if depth > 1 {
                            rendered.push('[');
                        }
                    }
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                        rendered.push(']');
                    }
                    other => {
                        let _ = write!(rendered, "{other}");
                    }
                }
            }
            j += 1;
        }
        out.push(rendered);
        i = j + 1;
    }
    out
}

/// Loads the failpoint site registry: one site (or `prefix.*` wildcard)
/// per line, `#` comments.
pub fn load_registry(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read failpoint registry {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect())
}
