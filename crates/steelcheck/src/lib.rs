//! # steelcheck
//!
//! In-repo static analysis that enforces the workspace's determinism
//! and hermeticity contract at the source level, so a violation fails
//! the build the moment it is written instead of surfacing later as a
//! golden-output diff that nobody can localize.
//!
//! The analysis has four layers, each feeding the next:
//!
//! 1. **Lexical** ([`lexer`], [`rules`]) — a comment/string-aware token
//!    scan of each file in isolation; rules R1–R6 below.
//! 2. **Call graph** ([`parse`], [`callgraph`]) — a zero-dependency
//!    item/signature parser recovers functions and call expressions
//!    from the token stream, and name resolution links them into a
//!    workspace-wide graph. Resolution is deliberately conservative: a
//!    spurious edge costs at worst one justified suppression, a
//!    missing edge costs a silent hole in the contract.
//! 3. **Reachability** ([`reach`]) — BFS over the graph from the
//!    simulation entry points; rules R7–R9 below, each reporting the
//!    full call path from entry point to offending site.
//! 4. **Control flow & dataflow** ([`cfg`], [`flow`], [`flowrules`]) —
//!    per-function CFGs with lock-guard lifetimes and loop structure,
//!    a forward/backward fixpoint framework, and the interprocedural
//!    rules R11–R13 below: lock discipline, hot-path allocation, and
//!    float-accumulation order.
//!
//! The contract (README, "Static analysis & determinism contract"):
//!
//! - **R1 `nondet-collections`** — no `HashMap`/`HashSet` outside
//!   `crates/bench`: iteration order is per-process random and
//!   silently breaks bit-reproducibility of `results/*.txt`.
//! - **R2 `wall-clock`** — no `Instant`/`SystemTime` outside
//!   `crates/bench`: simulated time comes from the event scheduler.
//! - **R3 `unwrap-in-lib`** — no `.unwrap()`/`.expect(` in library
//!   non-test code: return an error or document the invariant.
//! - **R4 `manifest-hygiene`** — path-only dependencies, no
//!   `source =` entries in `Cargo.lock`, no `[patch]`/`[replace]`.
//! - **R5 `float-hygiene`** — no exact float equality; no
//!   sim-time → float casts outside a stats module.
//! - **R6 `thread-outside-exec`** — no thread spawning or cross-thread
//!   synchronization primitives outside the execution layer
//!   (`crates/steelpar` and `crates/bench`): the parallel runner's
//!   determinism argument rests on every scenario being
//!   single-threaded inside.
//! - **R7 `wallclock-reachable`** — no `Instant`/`SystemTime` read
//!   reachable from a simulation entry point (`netsim::Sim::run*` or a
//!   figure-binary `main`), even through helpers in crates R2 exempts.
//! - **R8 `panic-reachable`** — no `.unwrap()`/`.expect(`/`panic!`/
//!   `unreachable!` reachable from a figure-binary `main`; a figure
//!   run that dies mid-sweep leaves a truncated `results/*.txt`.
//! - **R9 `rng-entropy`** — every `SimRng` construction reachable from
//!   a figure binary must take its seed from an explicit literal,
//!   constant, or CLI argument — never from time or thread state.
//! - **R11 `lock-discipline`** — the workspace-wide lock-order graph
//!   must stay acyclic, and no lock may be held across a blocking call
//!   (`join`, channel `recv`, `accept`, `TcpStream` I/O), even when
//!   the lock was taken several callers up.
//! - **R12 `hot-path-alloc`** — no allocation-shaped call inside a
//!   loop of any function reachable from the simulator's `run*`
//!   methods, the event-queue/`Ctx`/`Bytes` internals, or xdpsim's
//!   compiled `exec_*` paths.
//! - **R13 `float-accum-order`** — every f64 loop accumulation
//!   reachable from a figure binary or the cost-accounting layer must
//!   be justified inline or carried in the committed repo-root
//!   `float_accum.allow` inventory.
//!
//! Findings are suppressed site-by-site with
//! `// steelcheck: allow(<rule>): <justification>` (same line, or the
//! line above when the comment stands alone), or file-by-file through
//! the reviewed [`rules::ALLOWLIST`]. A directive naming an unknown
//! rule is itself a finding (`bad-directive`), and a directive that
//! excuses nothing is flagged `unused-suppression`; neither can be
//! suppressed.
//!
//! The tool is zero-dependency by design — it lexes and parses Rust
//! with its own scanner rather than `syn`, so it builds before
//! everything else and cannot be broken by the code it checks.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod callgraph;
pub mod cfg;
pub mod flow;
pub mod flowrules;
pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod reach;
pub mod report;
pub mod rules;
pub mod walk;

use report::Report;
use std::fs;
use std::io;
use std::path::Path;

/// One Rust source file, lexed and parsed, as consumed by the call
/// graph and reachability layers.
#[derive(Debug)]
pub struct RustFile {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// Path classification (bench / lib / stats / exec).
    pub class: rules::FileClass,
    /// Token stream and comments.
    pub lexed: lexer::Lexed,
    /// Recovered items: functions with their call expressions.
    pub parsed: parse::ParsedFile,
}

/// Run every rule over the workspace rooted at `root`.
///
/// Three phases: first every file is read, lexed, parsed, and scanned
/// lexically (R1–R6); then the call graph is built over all Rust files
/// at once and the reachability rules (R7–R9) run; then the CFG/
/// dataflow rules (R11–R13) run over the same graph, followed by the
/// unused-suppression audit (inline directives *and* the
/// `float_accum.allow` inventory). Returns the finalized (sorted,
/// deduplicated) report; I/O errors on individual files abort the
/// run — a lint pass that silently skips unreadable files cannot be
/// trusted to gate anything.
pub fn run(root: &Path) -> io::Result<Report> {
    let entries = walk::collect(root)?;
    let mut report = Report::default();
    let mut files: Vec<RustFile> = Vec::new();
    let mut supps: Vec<Vec<rules::Suppression>> = Vec::new();

    for f in &entries {
        let text = fs::read_to_string(&f.abs)?;
        match f.kind {
            walk::FileKind::Rust => {
                report.rust_files += 1;
                let lexed = lexer::lex(&text);
                let class = walk::classify(&f.rel);
                let mut s = rules::collect_suppressions(&lexed, &f.rel, &mut report.findings);
                rules::scan_rust(&f.rel, class, &lexed, &mut s, &mut report.findings);
                let parsed = parse::parse(&lexed);
                files.push(RustFile {
                    rel: f.rel.clone(),
                    class,
                    lexed,
                    parsed,
                });
                supps.push(s);
            }
            walk::FileKind::CargoToml => {
                report.manifests += 1;
                manifest::scan_cargo_toml(&f.rel, &text, &mut report.findings);
            }
            walk::FileKind::CargoLock => {
                report.manifests += 1;
                manifest::scan_cargo_lock(&f.rel, &text, &mut report.findings);
            }
        }
    }

    let graph = callgraph::build(&files);
    reach::analyze(&files, &graph, &mut supps, &mut report.findings);

    let inv_text = match fs::read_to_string(root.join(flowrules::INVENTORY_FILE)) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let mut inventory = flowrules::Inventory::parse(&inv_text, &mut report.findings);
    flowrules::analyze(&files, &graph, &mut supps, &mut report.findings, &mut inventory);
    inventory.report_unused(&mut report.findings);

    for (file, s) in files.iter().zip(&supps) {
        rules::report_unused(&file.rel, s, &mut report.findings);
    }

    report.finalize();
    Ok(report)
}

/// Scan a single Rust source string as if it lived at `rel` inside the
/// workspace. Lexical rules only — the interprocedural layer needs the
/// whole workspace, so single-file callers (fixture tests, editor
/// integrations) get R1–R6 plus directive hygiene.
pub fn scan_source(rel: &str, text: &str) -> Vec<report::Finding> {
    let lexed = lexer::lex(text);
    let class = walk::classify(rel);
    let mut findings = Vec::new();
    let mut supps = rules::collect_suppressions(&lexed, rel, &mut findings);
    rules::scan_rust(rel, class, &lexed, &mut supps, &mut findings);
    rules::report_unused(rel, &supps, &mut findings);
    findings.sort();
    findings
}
