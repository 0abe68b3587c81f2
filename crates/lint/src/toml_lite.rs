//! A tiny TOML-subset parser for `Cargo.toml` and `pqfs_lint.toml`.
//!
//! Reads exactly what the lint needs: `[table.headers]` (and `[[arrays]]`,
//! collapsed to their path), `key = "string"` and
//! `key = ["array", "of", "strings"]`, the array possibly spanning lines.
//! Every other value (booleans, numbers, inline tables, multi-line inline
//! tables) is consumed whole and stored as [`Value::Other`], so the parser
//! never fails on them.

use std::collections::BTreeMap;

/// A parsed TOML value (subset).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An array of strings (non-string elements are dropped).
    Array(Vec<String>),
    /// Anything else.
    Other,
}

impl Value {
    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The string elements, if this is an array.
    pub fn as_array(&self) -> Option<&[String]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// A parsed document: `table path → key → value`. The root table has the
/// empty path `""`; nested headers keep their dots (`"workspace.dependencies"`).
/// A dotted key stays one key (`version.workspace`).
#[derive(Debug, Default, Clone)]
pub struct Doc {
    tables: BTreeMap<String, BTreeMap<String, Value>>,
}

impl Doc {
    /// One value: `doc.get("package", "name")`.
    pub fn get(&self, path: &str, key: &str) -> Option<&Value> {
        self.tables.get(path).and_then(|t| t.get(key))
    }
}

/// Parses a TOML-subset document. Unrecognized constructs are skipped, not
/// errors — the lint only reads the keys it understands.
pub fn parse(src: &str) -> Doc {
    let mut doc = Doc::default();
    let mut current = String::new();
    let mut lines = src.lines();
    while let Some(raw) = lines.next() {
        let line = strip_comment(raw).trim();
        if line.starts_with('[') {
            current = line.trim_matches(['[', ']']).trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let mut value = value.trim().to_string();
        // Multi-line arrays and inline tables: consume lines until the
        // brackets balance.
        while unbalanced(&value) {
            match lines.next() {
                Some(next) => {
                    value.push(' ');
                    value.push_str(strip_comment(next).trim());
                }
                None => break,
            }
        }
        let key = key.trim().trim_matches('"').to_string();
        doc.tables
            .entry(current.clone())
            .or_default()
            .insert(key, parse_value(&value));
    }
    doc
}

/// Removes a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// True while an array/inline-table value still has unclosed brackets.
fn unbalanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth > 0
}

fn parse_value(s: &str) -> Value {
    if let Some(inner) = s.strip_prefix('"') {
        if let Some(end) = inner.find('"') {
            return Value::Str(inner[..end].to_string());
        }
    }
    if s.starts_with('[') {
        // Every second piece between quotes is a string element.
        let items = s.split('"').skip(1).step_by(2).map(str::to_string);
        return Value::Array(items.collect());
    }
    Value::Other
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_names_members_and_config_lists() {
        let doc = parse(
            r#"
[workspace]
members = ["crates/*", "vendor/*"]

[package]
name = "pqfs_demo" # trailing comment

[lint]
exclude = [
    "vendor",   # a comment inside the array
    "target",
]
metrics_doc = "docs/OBSERVABILITY.md"
"#,
        );
        assert_eq!(
            doc.get("package", "name").unwrap().as_str(),
            Some("pqfs_demo")
        );
        let members = doc.get("workspace", "members").unwrap().as_array();
        assert_eq!(members.unwrap(), ["crates/*", "vendor/*"]);
        let exclude = doc.get("lint", "exclude").unwrap().as_array();
        assert_eq!(exclude.unwrap(), ["vendor", "target"]);
        assert_eq!(
            doc.get("lint", "metrics_doc").unwrap().as_str(),
            Some("docs/OBSERVABILITY.md")
        );
    }

    /// Inline tables, on one line or several, and multi-line arrays are
    /// consumed whole: the keys after them still land where they belong.
    #[test]
    fn skips_inline_tables_and_multi_line_arrays() {
        let doc = parse(
            r#"
[dependencies]
pqfs_core = { path = "../core", version = "0.1.0" }
pqfs_obs = {
    path = "../obs", features = ["a", "b"] }
version.workspace = true

[features]
avx = [
    "dep/avx",
    "[not a header]",
]
name = "still the features table"

[package]
name = "after"
"#,
        );
        assert_eq!(doc.get("dependencies", "pqfs_core"), Some(&Value::Other));
        assert_eq!(doc.get("dependencies", "pqfs_obs"), Some(&Value::Other));
        assert_eq!(
            doc.get("dependencies", "version.workspace"),
            Some(&Value::Other)
        );
        assert_eq!(
            doc.get("features", "name").unwrap().as_str(),
            Some("still the features table")
        );
        assert_eq!(doc.get("package", "name").unwrap().as_str(), Some("after"));
        assert_eq!(doc.get("dependencies", "path"), None);
    }

    #[test]
    fn ignores_unknown_values() {
        let doc = parse("[a]\nx = 3\ny = \"keep\"");
        assert_eq!(doc.get("a", "x"), Some(&Value::Other));
        assert_eq!(doc.get("a", "y").unwrap().as_str(), Some("keep"));
    }
}
