//! Workspace file discovery.
//!
//! A deliberately small recursive walker (no external deps): collects every
//! `.rs` file under the workspace root, skipping build output (`target/`),
//! vendored stand-in crates (`vendor/` is third-party API surface, not ours
//! to lint), VCS internals, and this crate's own lint fixtures (which exist
//! to *contain* violations).

use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into, wherever they appear.
const SKIP_DIRS: [&str; 3] = ["target", "vendor", ".git"];

/// Workspace-relative paths (forward slashes) never linted.
const SKIP_PREFIXES: [&str; 1] = ["crates/mb-lint/tests/fixtures"];

/// All lintable `.rs` files under `root`, workspace-relative with forward
/// slashes, sorted for deterministic output.
pub(crate) fn workspace_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk_dir(root, PathBuf::new(), &mut out)?;
    out.sort();
    Ok(out)
}

fn walk_dir(root: &Path, rel: PathBuf, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(root.join(&rel))? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        let rel_child = rel.join(name);
        let rel_str = rel_child
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if SKIP_DIRS.contains(&name) || SKIP_PREFIXES.contains(&rel_str.as_str()) {
                continue;
            }
            walk_dir(root, rel_child, out)?;
        } else if ty.is_file() && name.ends_with(".rs") {
            out.push(rel_str);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_finds_this_crate_but_not_fixtures_or_vendor() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_sources(&root).expect("walk workspace");
        assert!(files.iter().any(|f| f == "crates/mb-lint/src/walk.rs"));
        assert!(files.iter().any(|f| f == "src/lib.rs"));
        assert!(!files.iter().any(|f| f.starts_with("vendor/")));
        assert!(!files.iter().any(|f| f.starts_with("target/")));
        assert!(!files
            .iter()
            .any(|f| f.starts_with("crates/mb-lint/tests/fixtures/")));
        let sorted = {
            let mut s = files.clone();
            s.sort();
            s
        };
        assert_eq!(files, sorted, "walker output must be sorted");
    }
}
