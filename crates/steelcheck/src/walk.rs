//! Workspace discovery and file classification.
//!
//! The walker visits the workspace in sorted order (determinism: the
//! report must be byte-identical run to run), collects `.rs` sources
//! and manifests, and classifies each file for rule scoping. It never
//! descends into `target/`, `.git/`, or any `fixtures/` directory —
//! fixture files contain deliberate violations for steelcheck's own
//! tests and must not fail the real workspace. Nor does it enter a
//! directory whose `Cargo.toml` declares its own `[workspace]`: as for
//! cargo, that is a separate project, outside this workspace's rules.

use crate::rules::FileClass;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One file selected for scanning.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative path with `/` separators (diagnostic key).
    pub rel: String,
    /// What kind of file this is.
    pub kind: FileKind,
}

/// File species the scanner understands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileKind {
    /// Rust source.
    Rust,
    /// A `Cargo.toml` manifest.
    CargoToml,
    /// The workspace `Cargo.lock`.
    CargoLock,
}

/// Find the workspace root: walk up from `start` until a directory
/// containing a `Cargo.toml` with a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> io::Result<PathBuf> {
    let mut dir = start.canonicalize()?;
    loop {
        if is_workspace_root(&dir)? {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no workspace Cargo.toml found above the starting directory",
            ));
        }
    }
}

/// Does `dir` hold a `Cargo.toml` with a `[workspace]` table?
fn is_workspace_root(dir: &Path) -> io::Result<bool> {
    let manifest = dir.join("Cargo.toml");
    if !manifest.is_file() {
        return Ok(false);
    }
    let text = fs::read_to_string(&manifest)?;
    Ok(text.lines().any(|l| l.trim() == "[workspace]"))
}

/// Collect every scannable file under `root`, sorted by relative path.
pub fn collect(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    walk_dir(root, root, &mut out)?;
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn walk_dir(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        if path.is_dir() {
            if matches!(name.as_str(), "target" | ".git" | "fixtures" | "results") {
                continue;
            }
            if is_workspace_root(&path)? {
                continue;
            }
            walk_dir(root, &path, out)?;
            continue;
        }
        let kind = match name.as_str() {
            "Cargo.toml" => FileKind::CargoToml,
            "Cargo.lock" => FileKind::CargoLock,
            _ if name.ends_with(".rs") => FileKind::Rust,
            _ => continue,
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push(SourceFile {
            abs: path,
            rel,
            kind,
        });
    }
    Ok(())
}

/// Classify a Rust file by its workspace-relative path.
pub fn classify(rel: &str) -> FileClass {
    let bench = rel.starts_with("crates/bench/");
    // Library code: under a crate's `src/` (or the root facade's
    // `src/`), excluding binaries. Tests, examples, and benches are
    // not library code.
    let in_src = rel.contains("/src/") || rel.starts_with("src/");
    let is_bin = rel.contains("/src/bin/") || rel.ends_with("/src/main.rs");
    let in_tests = rel.contains("/tests/") || rel.starts_with("tests/");
    let in_examples = rel.contains("/examples/") || rel.starts_with("examples/");
    let lib_code = in_src && !is_bin && !in_tests && !in_examples;
    let stats_module = rel.ends_with("/stats.rs") || rel.ends_with("/stats/mod.rs");
    // The execution layer: steelpar owns the worker pool, steelserve
    // owns the sockets and the serving threads, and the bench harness
    // times real execution (which may reasonably thread).
    let exec = bench
        || rel.starts_with("crates/steelpar/")
        || rel.starts_with("crates/steelserve/");
    FileClass {
        bench,
        lib_code,
        stats_module,
        exec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        let c = classify("crates/netsim/src/sim.rs");
        assert!(!c.bench && c.lib_code && !c.stats_module && !c.exec);

        let c = classify("crates/steelpar/src/lib.rs");
        assert!(c.exec && c.lib_code && !c.bench);

        let c = classify("crates/steelpar/tests/determinism.rs");
        assert!(c.exec && !c.lib_code);

        let c = classify("crates/steelserve/src/server.rs");
        assert!(c.exec && c.lib_code && !c.bench);

        let c = classify("crates/netsim/src/stats.rs");
        assert!(c.stats_module && c.lib_code);

        let c = classify("crates/bench/src/harness.rs");
        assert!(c.bench);

        let c = classify("crates/bench/src/bin/fig4.rs");
        assert!(c.bench && !c.lib_code);

        let c = classify("crates/steelcheck/src/main.rs");
        assert!(!c.lib_code, "binaries are not library code");

        let c = classify("tests/end_to_end.rs");
        assert!(!c.lib_code && !c.bench);

        let c = classify("examples/quickstart.rs");
        assert!(!c.lib_code);

        let c = classify("src/lib.rs");
        assert!(c.lib_code);
    }

    #[test]
    fn classification_edge_cases() {
        // A helper module nested below a tests/ directory is still test
        // code, not library code.
        let c = classify("crates/netsim/tests/support/helpers.rs");
        assert!(!c.lib_code);

        // tests/ or examples/ as a *crate name* must not be confused
        // with the directories: only path segments count.
        let c = classify("crates/testsuite/src/lib.rs");
        assert!(c.lib_code, "crate named `testsuite` is library code");

        // Nested bins and examples under a crate.
        let c = classify("crates/bench/src/bin/nested/tool.rs");
        assert!(c.bench && !c.lib_code);
        let c = classify("crates/netsim/examples/demo.rs");
        assert!(!c.lib_code);

        // stats detection requires the file itself, not the crate.
        let c = classify("crates/netsim/src/stats/mod.rs");
        assert!(c.stats_module);
        let c = classify("crates/netsim/src/statsig.rs");
        assert!(!c.stats_module);
    }

    #[test]
    fn missing_workspace_manifest_is_an_error() {
        // A directory tree with a crate-level Cargo.toml but no
        // `[workspace]` table anywhere above it.
        let dir = std::env::temp_dir().join("steelcheck_walk_no_ws");
        let inner = dir.join("deep/inner");
        fs::create_dir_all(&inner).expect("mkdir");
        fs::write(
            dir.join("Cargo.toml"),
            "[package]\nname = \"lonely\"\nversion = \"0.0.0\"\n",
        )
        .expect("write manifest");
        let err = find_workspace_root(&inner);
        // The host temp dir could in principle live under some real
        // workspace; only assert when the walk genuinely escaped.
        if let Ok(found) = &err {
            assert!(
                !found.starts_with(&dir),
                "package-only manifest must not count as a workspace root"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finds_this_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.lock").is_file());
    }

    #[test]
    fn collect_skips_nested_workspaces() {
        // A member crate is scanned; a nested project with its own
        // `[workspace]` table is not, exactly as cargo scopes them.
        let dir = std::env::temp_dir().join("steelcheck_walk_nested_ws");
        fs::remove_dir_all(&dir).ok();
        for (rel, text) in [
            ("Cargo.toml", "[workspace]\nmembers = [\"member\"]\n"),
            ("member/Cargo.toml", "[package]\nname = \"member\"\n"),
            ("member/src/lib.rs", "pub fn f() {}\n"),
            (
                "nested/Cargo.toml",
                "[package]\nname = \"nested\"\n\n[workspace]\n",
            ),
            ("nested/src/main.rs", "fn main() {}\n"),
            ("nested/inner/src/lib.rs", "pub fn g() {}\n"),
        ] {
            let path = dir.join(rel);
            fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            fs::write(&path, text).expect("write");
        }
        let rels: Vec<String> = collect(&dir)
            .expect("collect")
            .into_iter()
            .map(|f| f.rel)
            .collect();
        fs::remove_dir_all(&dir).ok();
        assert_eq!(
            rels,
            ["Cargo.toml", "member/Cargo.toml", "member/src/lib.rs"]
        );
    }

    #[test]
    fn collect_skips_fixtures_and_sorts() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files = collect(&root).expect("collect");
        assert!(files.iter().all(|f| !f.rel.contains("fixtures/")));
        let rels: Vec<_> = files.iter().map(|f| f.rel.clone()).collect();
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted);
        assert!(files
            .iter()
            .any(|f| f.rel == "Cargo.lock" && f.kind == FileKind::CargoLock));
    }
}
