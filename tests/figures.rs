//! The headline contract: every committed figure artifact regenerates
//! byte for byte. Each `specs/<name>.json` renders through
//! `steelserve::figures::run_spec` and must equal `results/<name>.txt`.

use std::path::{Path, PathBuf};
use steelserve::figures::run_spec;
use steelserve::spec::Spec;

/// Worker count for `run_spec`: more than one, so the parallel
/// scenario runner is on the checked path. The bytes must not depend
/// on it.
const JOBS: usize = 2;

fn repo_path(dir: &str, file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(dir).join(file)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Render `specs/<name>.json` and byte-compare it with
/// `results/<name>.txt`, reporting the first line that differs.
fn assert_reproduces(name: &str) {
    let spec_path = repo_path("specs", &format!("{name}.json"));
    let spec =
        Spec::parse(&read(&spec_path)).unwrap_or_else(|e| panic!("{}: {e}", spec_path.display()));
    let want = read(&repo_path("results", &format!("{name}.txt")));
    let got = run_spec(&spec, JOBS);
    if got == want {
        return;
    }
    let (line, got_line, want_line) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| (i + 1, g, w))
        .unwrap_or((got.lines().count().min(want.lines().count()) + 1, "", ""));
    panic!(
        "results/{name}.txt differs from the rendered spec at line {line} \
         ({} vs {} bytes)\n  rendered : {got_line}\n  committed: {want_line}",
        got.len(),
        want.len()
    );
}

macro_rules! figure_tests {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                assert_reproduces(stringify!($name));
            }
        )*
        /// Every figure with a test above.
        const FIGURES: &[&str] = &[$(stringify!($name)),*];
    };
}

figure_tests!(challenges, fig1, fig4, fig4_loops, fig5, fig6, fig_campus);

#[test]
fn every_spec_has_a_figure_test() {
    let mut specs: Vec<String> = std::fs::read_dir(repo_path("specs", ""))
        .expect("read specs/")
        .filter_map(|e| {
            let path = e.expect("specs/ entry").path();
            let stem = path.file_stem()?.to_str()?.to_string();
            (path.extension()? == "json").then_some(stem)
        })
        .collect();
    specs.sort();
    assert_eq!(
        specs, FIGURES,
        "add a figure_tests! entry for each new spec"
    );
}
