//! Workspace discovery: the member crates and their directories.

use crate::toml_lite::{self, Doc, Value};
use std::path::{Path, PathBuf};

/// A parsed workspace member.
#[derive(Debug, Clone)]
pub struct Member {
    /// `[package] name`.
    pub name: String,
    /// Directory containing the manifest, relative to the workspace root.
    pub dir: PathBuf,
}

/// Reads the members of the workspace rooted at `root`, the root package
/// (if any) included. `exclude` filters member directories by path prefix
/// (e.g. `vendor`).
pub fn discover(root: &Path, exclude: &[String]) -> Result<Vec<Member>, String> {
    let root_manifest_path = root.join("Cargo.toml");
    let src = std::fs::read_to_string(&root_manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", root_manifest_path.display()))?;
    let root_doc = toml_lite::parse(&src);

    let mut member_dirs: Vec<PathBuf> = Vec::new();
    if let Some(globs) = root_doc
        .get("workspace", "members")
        .and_then(Value::as_array)
    {
        for glob in globs {
            member_dirs.extend(expand_glob(root, glob));
        }
    }
    // The root manifest may itself define a package (the facade crate).
    let has_root_package = root_doc.get("package", "name").is_some();

    let excluded = |dir: &Path| -> bool {
        let rel = dir.strip_prefix(root).unwrap_or(dir);
        let rel_str = rel.to_string_lossy();
        exclude.iter().any(|p| rel_str.starts_with(p.as_str()))
    };

    let mut members = Vec::new();
    for dir in member_dirs {
        if excluded(&dir) {
            continue;
        }
        let manifest = dir.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
        members.push(parse_member(root, &dir, &toml_lite::parse(&text))?);
    }
    if has_root_package {
        members.push(parse_member(root, root, &root_doc)?);
    }
    Ok(members)
}

fn expand_glob(root: &Path, glob: &str) -> Vec<PathBuf> {
    match glob.strip_suffix("/*") {
        Some(prefix) => {
            let base = root.join(prefix);
            let mut dirs: Vec<PathBuf> = std::fs::read_dir(&base)
                .map(|rd| {
                    rd.filter_map(Result::ok)
                        .map(|e| e.path())
                        .filter(|p| p.is_dir())
                        .collect()
                })
                .unwrap_or_default();
            dirs.sort();
            dirs
        }
        None => vec![root.join(glob)],
    }
}

fn parse_member(root: &Path, dir: &Path, doc: &Doc) -> Result<Member, String> {
    let name = doc
        .get("package", "name")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{}: missing [package] name", dir.display()))?
        .to_string();
    Ok(Member {
        name,
        dir: dir.strip_prefix(root).unwrap_or(dir).to_path_buf(),
    })
}
