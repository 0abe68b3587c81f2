//! Invariants no rustc or clippy lint sees (docs/STATIC_ANALYSIS.md): failpoint
//! sites and metric names against their registries, both ways, each
//! manifest's unsafe-code lints, the packages and documents that run
//! commands and comments name, and the one module that writes a file
//! container. Library code is each `crates/*/src/**/*.rs`
//! and `src/**/*.rs` file cut at its first column-0 `#[cfg(test)]`, comment
//! lines dropped. Cargo runs tests in the repository root: paths are relative.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The crates under `crates/` that may hold unsafe code; the rest forbid it.
const UNSAFE_CRATES: [&str; 4] = ["scan", "pool", "server", "bench"];

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every file under `dir`, outside hidden and `target` directories.
fn walk(dir: &Path) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{dir:?}: {e}"));
    let paths = entries.map(|entry| entry.expect("a directory entry").path());
    let skipped = |p: &PathBuf| {
        let name = p.file_name().unwrap_or_default().to_string_lossy();
        p.is_dir() && (name.starts_with('.') || name == "target")
    };
    paths
        .filter(|p| !skipped(p))
        .flat_map(|p| if p.is_dir() { walk(&p) } else { vec![p] })
        .collect()
}

/// Every Rust file of the repository, the benchmark's and the shims' too.
fn rust_files() -> Vec<PathBuf> {
    let mut files = walk(Path::new("."));
    files.retain(|p| p.extension().is_some_and(|e| e == "rs"));
    files
}

fn library_code() -> String {
    let mut files = walk(Path::new("crates"));
    files.retain(|p| p.iter().nth(2).is_some_and(|c| c == "src"));
    files.extend(walk(Path::new("src")));
    files.retain(|p| p.extension().is_some_and(|e| e == "rs"));
    let mut code = String::new();
    for file in files {
        let text = read(&file);
        let lines = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
        for line in lines.filter(|l| !l.trim_start().starts_with("//")) {
            code += line;
            code += "\n";
        }
    }
    code
}

/// The text of each group (call or struct literal) `needle` opens, up to its
/// closing bracket; a needle after an identifier character is another name.
fn groups<'a>(code: &'a str, needle: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    for (at, _) in code.match_indices(needle) {
        if code[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let rest = &code[at + needle.len()..];
        let mut depth = 1;
        let end = rest.find(|c| {
            depth += i32::from("([{".contains(c)) - i32::from(")]}".contains(c));
            depth == 0
        });
        out.push(&rest[..end.unwrap_or(rest.len())]);
    }
    out
}

/// The string literal that opens each group of each of `needles`.
fn first_literals<'a>(code: &'a str, needles: &[impl AsRef<str>]) -> BTreeSet<&'a str> {
    let groups = needles.iter().flat_map(|n| groups(code, n.as_ref()));
    let opening = |g: &'a str| g.trim_start().strip_prefix('"')?.split('"').next();
    groups.filter_map(opening).collect()
}

#[test]
fn failpoint_sites_and_the_registry_match_both_ways() {
    let code = library_code();
    let mut sites = first_literals(&code, &["check(", "arm(", "arm_limited(", "scoped("]);
    for needle in ["FaultRead::new(", "FaultWrite::new("] {
        for group in groups(&code, needle) {
            sites.extend(group.split('"').skip(1).step_by(2));
        }
    }
    let registry = read(Path::new("crates/fault/failpoints.sites"));
    let lines = registry.lines().filter_map(|l| l.split('#').next());
    let entries: Vec<&str> = lines.map(str::trim).filter(|l| !l.is_empty()).collect();
    for site in &sites {
        let family = |e: &&str| e.strip_suffix('*').is_some_and(|p| site.starts_with(p));
        let registered = entries.contains(site) || entries.iter().any(family);
        assert!(registered, "failpoint site {site:?} is not registered");
    }
    for entry in entries {
        let armed = match entry.strip_suffix('*') {
            Some(prefix) => code.contains(&format!("format!(\"{prefix}{{")),
            None => sites.contains(entry),
        };
        assert!(armed, "registered site {entry:?} is armed nowhere");
    }
}

/// The metric types; each `::new(` or `::labeled(` call makes a metric.
const METRIC_KINDS: [&str; 4] = ["Counter", "Gauge", "Histogram", "CounterFamily"];

fn metric_ctors() -> Vec<String> {
    let ctors = METRIC_KINDS.map(|k| [format!("{k}::new("), format!("{k}::labeled(")]);
    ctors.concat()
}

#[test]
fn metric_names_and_the_observability_doc_match_both_ways() {
    let code = library_code();
    let names = first_literals(&code, &metric_ctors());
    let doc = read(Path::new("docs/OBSERVABILITY.md"));
    for name in &names {
        let legal = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
        let grammar = name.chars().all(legal) && name.starts_with(|c: char| !c.is_ascii_digit());
        assert!(grammar, "metric {name:?} is not `[a-zA-Z_:][a-zA-Z0-9_:]*`");
        assert!(doc.contains(name), "metric {name:?} is undocumented");
    }
    // The first cell of a metric table row names one or more metrics.
    let rows: Vec<&str> = doc.lines().filter(|l| l.starts_with("| `pqfs_")).collect();
    assert!(!rows.is_empty(), "no metric table in docs/OBSERVABILITY.md");
    for cell in rows.iter().filter_map(|row| row.split(" | ").next()) {
        for name in cell.split('`').skip(1).step_by(2) {
            let name = name.split('{').next().unwrap_or_default();
            assert!(names.contains(name), "metric {name:?} is never made");
        }
    }
}

/// A metric registers under its `(name, label)` and the registry keeps
/// the first metric of a series, so a second one would record unseen.
#[test]
fn every_metric_series_is_made_once() {
    let code = library_code();
    let mut series = BTreeSet::new();
    for ctor in metric_ctors() {
        for group in groups(&code, &ctor) {
            if !group.trim_start().starts_with('"') {
                continue; // no literal name: the registry's own code
            }
            let literals: Vec<&str> = group.split('"').skip(1).step_by(2).collect();
            // A labeled counter's label is its last two arguments; a
            // family's series share its last one, the label key.
            let label = match literals.as_slice() {
                [.., key, value] if ctor.ends_with("labeled(") => format!("{key}=\"{value}\""),
                [.., key] if ctor.starts_with("CounterFamily") => format!("{key}=*"),
                _ => String::new(),
            };
            let made = format!("{}{{{label}}}", literals[0]);
            assert!(series.insert(made.clone()), "series {made} is made twice");
        }
    }
    assert!(series.len() > 30, "the scan found only {series:?}");
}

#[test]
fn manifests_and_binaries_carry_their_unsafe_code_policy() {
    // Cargo rejects `[lints] workspace = true` beside a crate's own table.
    let inherit = "\n[lints]\nworkspace = true\n";
    let deny_ops = "\n[lints.rust]\nunsafe_op_in_unsafe_fn = \"deny\"\n";
    let workspace = read(Path::new("Cargo.toml"));
    assert!(workspace.contains("\n[workspace.lints.rust]\nunsafe_code = \"forbid\"\n"));
    assert!(workspace.contains(inherit), "the facade inherits the lints");
    let files = walk(Path::new("crates"));
    let mut unsafe_crates = 0;
    for path in files.iter().filter(|p| p.ends_with("Cargo.toml")) {
        let (manifest, dir) = (read(path), path.parent().expect("a crate directory"));
        if !UNSAFE_CRATES.iter().any(|c| dir.ends_with(c)) {
            assert!(manifest.contains(inherit), "{path:?} inherits the forbid");
            continue;
        }
        let own_table = manifest.contains(deny_ops) && !manifest.contains(inherit);
        assert!(own_table, "{path:?} denies unsafe_op_in_unsafe_fn alone");
        let (bin, main) = (dir.join("src/bin"), dir.join("src/main.rs"));
        for root in files.iter().filter(|p| p.starts_with(&bin) || **p == main) {
            let header = read(root).lines().any(|l| l == "#![forbid(unsafe_code)]");
            assert!(header, "{root:?} lacks #![forbid(unsafe_code)]");
        }
        unsafe_crates += 1;
    }
    assert_eq!(unsafe_crates, UNSAFE_CRATES.len());
}

/// The packages a `cargo -p` can name: the root workspace's members and the
/// standalone benchmark.
fn package_names() -> BTreeSet<String> {
    let mut manifests = vec![PathBuf::from("Cargo.toml"), "benchmark/Cargo.toml".into()];
    for members in ["crates", "vendor"] {
        manifests.extend(
            walk(Path::new(members))
                .into_iter()
                .filter(|p| p.ends_with("Cargo.toml")),
        );
    }
    let name = |text: String| {
        let mut package = text.lines().skip_while(|l| *l != "[package]");
        let name = package.find_map(|l| l.strip_prefix("name = \""))?;
        Some(name.trim_end_matches('"').to_owned())
    };
    let names: BTreeSet<String> = manifests.iter().filter_map(|m| name(read(m))).collect();
    assert_eq!(
        names.len(),
        manifests.len(),
        "a manifest without a package name"
    );
    names
}

#[test]
fn run_commands_name_packages_that_exist() {
    let packages = package_names();
    let mut files = rust_files();
    files.extend(walk(Path::new("docs")));
    files.extend(["README.md", ".github/workflows/ci.yml"].map(PathBuf::from));
    let (mut named, mut unknown) = (0, Vec::new());
    for file in files {
        for line in read(&file).lines().filter(|l| l.contains("cargo ")) {
            let words: Vec<&str> = line.split_whitespace().collect();
            for pair in words.windows(2).filter(|w| w[0] == "-p") {
                let package = pair[1].trim_end_matches(['`', ')', ';', ',']);
                if !packages.contains(package) {
                    unknown.push(format!("{}: -p {package}", file.display()));
                }
                named += 1;
            }
        }
    }
    assert!(named > 20, "the scan found only {named} package flags");
    assert!(unknown.is_empty(), "no such package: {unknown:#?}");
}

/// A markdown path a comment names, or a bare all-caps name before a section
/// sign (`README §2` cites `README.md`), must be a file in the root or `docs/`.
#[test]
fn documents_cited_in_comments_exist() {
    let mut cited = BTreeSet::new();
    for file in rust_files() {
        for line in read(&file).lines() {
            let Some((_, comment)) = line.split_once("//") else {
                continue;
            };
            let path_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
            for (at, _) in comment.match_indices(".md") {
                let start = comment[..at].trim_end_matches(path_char).len();
                let end = at + ".md".len();
                if start == at || comment[end..].starts_with(|c: char| c.is_alphanumeric()) {
                    continue;
                }
                cited.insert((comment[start..end].to_owned(), file.clone()));
            }
            let caps_char = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
            for (at, _) in comment.match_indices(" §") {
                let start = comment[..at].trim_end_matches(caps_char).len();
                let (before, word) = (&comment[..start], &comment[start..at]);
                let bare = !before.ends_with(|c: char| c.is_alphanumeric());
                if bare && word.len() > 1 && word.starts_with(|c: char| c.is_ascii_uppercase()) {
                    cited.insert((format!("{word}.md"), file.clone()));
                }
            }
        }
    }
    assert!(cited.len() > 20, "the scan found only {cited:?}");
    let exists = |doc: &String| Path::new(doc).is_file() || Path::new("docs").join(doc).is_file();
    cited.retain(|(doc, _)| !exists(doc));
    assert!(
        cited.is_empty(),
        "in neither the root nor docs/: {cited:#?}"
    );
}

/// The scan crate's prepared-scanner shim serves the benchmark's traced pass
/// only: every other caller scans through `FastScanIndex`, `scan_naive` or
/// `scan_libpq`.
#[test]
fn only_the_benchmark_scans_through_the_shim() {
    // Built from pieces, so that this file does not match its own needles.
    let needles = [concat!("Prepared", "Scanner"), concat!(".scan", "ner(")];
    let home = ["crates/scan/src/scanner.rs", "crates/scan/src/lib.rs"];
    let mut callers = BTreeSet::new();
    for file in rust_files() {
        let path = file.strip_prefix(".").unwrap_or(&file);
        if path.starts_with("benchmark") || home.iter().any(|h| path == Path::new(h)) {
            continue;
        }
        let text = read(&file);
        for needle in needles.iter().filter(|n| text.contains(**n)) {
            callers.insert(format!("{}: {needle}", path.display()));
        }
    }
    assert!(callers.is_empty(), "outside the benchmark: {callers:#?}");
}

/// The file container is `pqfs_core::codec`'s and the index file is the
/// one format written with it: only the module that knows the index's
/// bytes opens or writes a container.
#[test]
fn only_the_index_format_writes_a_file_container() {
    // Built from pieces, so that this file does not match its own needles.
    let needles = [concat!("write", "_file("), concat!("FileReader", "::open(")];
    let home = ["crates/core/src/codec.rs", "crates/ivf/src/persist.rs"];
    let mut callers = BTreeSet::new();
    for file in rust_files() {
        let path = file.strip_prefix(".").unwrap_or(&file);
        if home.iter().any(|h| path == Path::new(h)) {
            continue;
        }
        let text = read(&file);
        for needle in needles {
            let called = text
                .match_indices(needle)
                .any(|(at, _)| !text[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_'));
            if called {
                callers.insert(format!("{}: {needle}", path.display()));
            }
        }
    }
    assert!(callers.is_empty(), "outside the index format: {callers:#?}");
}
