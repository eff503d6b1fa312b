//! The lint rules enforcing the determinism contract.
//!
//! Each rule scans the token stream produced by [`crate::lexer`] and
//! emits [`Finding`]s. Rules are deliberately *over-approximate* where
//! precise analysis would need type information: e.g. R1 flags every
//! `HashMap` mention rather than only iterated ones, because iteration
//! is one `for` loop away from any map and the cost of a false
//! positive is a one-line suppression with a written justification.
//!
//! | rule id                | contract clause                                   |
//! |------------------------|---------------------------------------------------|
//! | `nondet-collections`   | R1: no `HashMap`/`HashSet` outside `crates/bench` |
//! | `wall-clock`           | R2: no `Instant`/`SystemTime` outside `crates/bench` |
//! | `unwrap-in-lib`        | R3: no `.unwrap()`/`.expect(` in library non-test code |
//! | `manifest-hygiene`     | R4: path-only deps, no `source =` in Cargo.lock   |
//! | `float-hygiene`        | R5: no float `==`/`!=`, no sim-time → float casts outside stats |
//! | `thread-outside-exec`  | R6: no thread spawning or cross-thread sync outside the execution layer |
//! | `network-outside-serve`| R10: no raw sockets (`std::net`) outside the serving/execution layer |
//!
//! The interprocedural rules R7–R9 live in [`crate::reach`]; the
//! CFG/dataflow rules R11–R13 (`lock-discipline`, `hot-path-alloc`,
//! `float-accum-order`) live in [`crate::flowrules`].

use crate::lexer::{Lexed, TokKind, Token};
use crate::report::Finding;

/// One entry in the rule table: the single source of truth behind
/// `--list-rules`, `--explain`, and the SARIF rule metadata.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable rule id (`wall-clock`, `panic-reachable`, ...).
    pub id: &'static str,
    /// One-line summary for listings.
    pub summary: &'static str,
    /// One-paragraph rationale for `--explain`.
    pub rationale: &'static str,
    /// Whether `// steelcheck: allow(<id>)` may name this rule. The
    /// meta-diagnostics (`bad-directive`, `unused-suppression`) are
    /// deliberately unsuppressible: silencing the auditor defeats it.
    pub suppressible: bool,
}

/// The rule table, in rule-number order, meta-diagnostics last.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "nondet-collections",
        summary: "no HashMap/HashSet outside crates/bench (R1)",
        rationale: "std's hash collections seed RandomState per process, so iteration \
                    order — and anything downstream of it: event ordering, FDB flooding \
                    order, report ordering — varies run to run. One iterated HashMap in a \
                    hot path silently destroys the byte-identical reproduction of \
                    results/*.txt. Use BTreeMap/BTreeSet, or sort before iterating.",
        suppressible: true,
    },
    RuleInfo {
        id: "wall-clock",
        summary: "no Instant/SystemTime outside crates/bench (R2)",
        rationale: "Simulated time comes from the event scheduler's integer Nanos clock; a \
                    host-clock read makes results depend on the machine and the load it is \
                    under. Only the bench harness, which times real execution on purpose, \
                    may touch Instant or SystemTime. This is the lexical (per-site) rule; \
                    wallclock-reachable closes the interprocedural hole.",
        suppressible: true,
    },
    RuleInfo {
        id: "unwrap-in-lib",
        summary: "no .unwrap()/.expect( in library non-test code (R3)",
        rationale: "Library panics turn recoverable conditions into aborts of a whole \
                    figure run. Each remaining site must either return an error or carry a \
                    written invariant in an inline suppression, so the panic surface is an \
                    audited list rather than an accident.",
        suppressible: true,
    },
    RuleInfo {
        id: "manifest-hygiene",
        summary: "path-only deps; no external sources in Cargo.lock (R4)",
        rationale: "The workspace builds fully offline with --frozen. A registry, git, or \
                    bare-version dependency — or a `source =` line in Cargo.lock, or a \
                    [patch]/[replace] section — would reintroduce the network into the \
                    build and unpin the toolchain from the committed tree.",
        suppressible: true,
    },
    RuleInfo {
        id: "float-hygiene",
        summary: "no float ==/!=; no sim-time→float casts outside stats (R5)",
        rationale: "Exact float equality is a latent portability bug, and converting \
                    simulated durations to floats before the reporting edge lets rounding \
                    feed back into scheduling decisions. Sim-time arithmetic stays integer \
                    nanoseconds; floats appear only in stats modules and final reports.",
        suppressible: true,
    },
    RuleInfo {
        id: "thread-outside-exec",
        summary: "no threads/sync primitives outside the execution layer (R6)",
        rationale: "The parallel runner's determinism argument rests on every scenario \
                    being single-threaded inside: a stray spawn in a device model would \
                    race RNG draws and event ordering. Threads and cross-thread sync \
                    primitives live only in crates/steelpar, crates/steelserve, and \
                    crates/bench.",
        suppressible: true,
    },
    RuleInfo {
        id: "wallclock-reachable",
        summary: "no wall-clock read reachable from a simulation entry point (R7)",
        rationale: "Interprocedural closure of wall-clock: an Instant/SystemTime read \
                    hidden two calls deep behind a helper in another crate breaks \
                    determinism exactly as much as an inline one, and is exactly what a \
                    lexical rule cannot see. Entry points are netsim::Sim::run* and the \
                    figure binaries' main; only crates/bench code may touch the host \
                    clock. Findings print the offending call path.",
        suppressible: true,
    },
    RuleInfo {
        id: "panic-reachable",
        summary: "no panic site reachable from a figure binary (R8)",
        rationale: "A panic anywhere in the call graph below a figure binary's main can \
                    abort a published-results run halfway. unwrap/expect/panic!/ \
                    unreachable!/todo!/unimplemented! sites reachable from a figure main \
                    are flagged with their full call path; sites carrying a written \
                    invariant (an inline panic-reachable or unwrap-in-lib suppression) \
                    are the audited exceptions.",
        suppressible: true,
    },
    RuleInfo {
        id: "rng-entropy",
        summary: "SimRng seeds must be explicit, never ambient (R9)",
        rationale: "Every SimRng construction reachable from a figure binary must take \
                    its seed from an explicit literal, constant, or CLI value. A seed \
                    expression that reads the host clock or thread state — directly, or \
                    through any function that transitively can — makes every downstream \
                    draw irreproducible while looking innocently like a plain integer.",
        suppressible: true,
    },
    RuleInfo {
        id: "network-outside-serve",
        summary: "no raw sockets outside the serving/execution layer (R10)",
        rationale: "Simulated networks never touch host sockets: every packet the device \
                    models exchange lives on the integer-nanosecond event clock. A \
                    TcpStream or UdpSocket inside a model would couple scenario behavior \
                    to real I/O timing and remote peer state, silently breaking the \
                    byte-identical contract. Real networking belongs to the serving \
                    layer: std::net lives only in crates/steelserve, crates/steelpar, \
                    and crates/bench.",
        suppressible: true,
    },
    RuleInfo {
        id: "lock-discipline",
        summary: "consistent lock order; no lock held across a blocking call (R11)",
        rationale: "The serving layer's liveness argument is a lock-order argument: two \
                    threads acquiring the same pair of mutexes in opposite orders is a \
                    deadlock waiting for load, and a guard held across a blocking call \
                    (JoinHandle::join, channel recv, TcpStream I/O) stalls every other \
                    thread needing that lock for the full blocking duration. The checker \
                    builds each function's guard-lifetime CFG, propagates held-lock sets \
                    along call edges, and demands the workspace-wide lock-order graph \
                    stay acyclic. Release the guard first (scope it, or drop(guard)), \
                    or split the critical section.",
        suppressible: true,
    },
    RuleInfo {
        id: "hot-path-alloc",
        summary: "no allocation-shaped calls in loops on simulation hot paths (R12)",
        rationale: "The simulator's per-event path runs millions of times per campus \
                    artifact, and its arena node tables, pre-sized event queue and reused \
                    action scratch exist to keep allocation off it; one Vec::new or \
                    clone() in a loop reachable from Sim::run*, the event-queue/Ctx/Bytes \
                    internals, or xdpsim's exec_* quietly re-introduces the cost at 10M \
                    events/sec scale. Hoist the allocation out of the loop, reuse a \
                    scratch buffer, or justify the site inline.",
        suppressible: true,
    },
    RuleInfo {
        id: "float-accum-order",
        summary: "f64 loop accumulation on figure/cost paths needs a justification (R13)",
        rationale: "Float addition is not associative: the order a loop accumulates f64 \
                    values in IS part of the committed figure bytes, and any refactor \
                    that reorders it (parallel chunking, re-associating block sums) \
                    silently moves results/*.txt. Every `+=`/`*=`/sum-shaped f64 \
                    accumulation in a loop reachable from a figure main or the cost \
                    accounting must carry an inline justification or an entry in the \
                    committed float_accum.allow inventory — which doubles as the \
                    work-list for re-specifying the cost accumulator.",
        suppressible: true,
    },
    RuleInfo {
        id: "bad-directive",
        summary: "malformed or unknown steelcheck suppression directive",
        rationale: "A typo'd suppression that silently does nothing is worse than a \
                    failing build: the author believes a site is justified when nothing \
                    is suppressed (or the wrong thing is). Malformed directives and \
                    unknown rule names are reported and cannot themselves be suppressed.",
        suppressible: false,
    },
    RuleInfo {
        id: "unused-suppression",
        summary: "a steelcheck: allow(...) comment suppresses nothing",
        rationale: "Suppressions are an audited debt list; one that no longer matches any \
                    finding is stale documentation that hides real exemptions among dead \
                    ones and survives refactors unexamined. Delete the comment — if the \
                    violation returns, the rule will say so. Unsuppressible, so the \
                    allowlist cannot rot quietly.",
        suppressible: false,
    },
];

/// Stable identifiers of every suppressible rule, rule-number order.
pub const ALL_RULES: &[&str] = &[
    "nondet-collections",
    "wall-clock",
    "unwrap-in-lib",
    "manifest-hygiene",
    "float-hygiene",
    "thread-outside-exec",
    "wallclock-reachable",
    "panic-reachable",
    "rng-entropy",
    "network-outside-serve",
    "lock-discipline",
    "hot-path-alloc",
    "float-accum-order",
];

/// Is `rule` a known suppressible rule id? Used to reject typo'd
/// suppressions (and attempts to suppress the meta-diagnostics).
pub fn is_known_rule(rule: &str) -> bool {
    RULES.iter().any(|r| r.id == rule && r.suppressible)
}

/// Look up a rule's table entry by id.
pub fn rule_info(rule: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == rule)
}

/// How a source file is classified for rule scoping. Derived from its
/// workspace-relative path by [`crate::walk`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FileClass {
    /// Under `crates/bench/` — the measurement harness, exempt from
    /// determinism rules (it times real execution on purpose).
    pub bench: bool,
    /// Library (non-test, non-binary, non-example) source: a file under
    /// `src/` that is not `main.rs` and not under `src/bin/`.
    pub lib_code: bool,
    /// A statistics module (`stats.rs`), where converting simulated
    /// durations to floats for aggregation is the module's purpose.
    pub stats_module: bool,
    /// Part of the execution/serving layer (`crates/steelpar/`,
    /// `crates/steelserve/`, or the bench harness): the only code
    /// allowed to spawn threads, use cross-thread synchronization
    /// primitives, or open host sockets.
    pub exec: bool,
}

/// Per-file, per-rule allowlist entry with a recorded justification.
///
/// Allowlists are for *files whose purpose conflicts with a rule*
/// (e.g. a model whose math is inherently floating-point); one-off
/// sites should use an inline `// steelcheck: allow(rule): why`
/// suppression instead so the justification sits next to the code.
#[derive(Clone, Copy, Debug)]
pub struct AllowEntry {
    /// Workspace-relative path, `/`-separated.
    pub path: &'static str,
    /// Rule id this entry disables for the file.
    pub rule: &'static str,
    /// Why the exemption is sound. Surfaced by `steelcheck --list-allow`.
    pub why: &'static str,
}

/// The built-in allowlist. Keep this short: every entry is a standing
/// exemption reviewed in code review, not an escape hatch.
pub const ALLOWLIST: &[AllowEntry] = &[
    AllowEntry {
        path: "crates/netsim/src/devices.rs",
        rule: "float-hygiene",
        why: "cycle-delay statistics: converts closed NanoDur samples to µs for \
              jitter CDFs; all sim-time arithmetic stays integer upstream",
    },
    AllowEntry {
        path: "crates/rtnet/src/ptp.rs",
        rule: "float-hygiene",
        why: "servo gain math on measured offsets is the PTP model itself; \
              corrections are rounded back to integer nanoseconds before applying",
    },
    AllowEntry {
        path: "crates/xdpsim/src/xdp.rs",
        rule: "float-hygiene",
        why: "per-variant latency reporting converts final NanoDur samples to µs \
              for summaries; the event clock never consumes these floats",
    },
];

/// Is `path` exempt from `rule` via the built-in [`ALLOWLIST`]?
pub fn allowlisted(path: &str, rule: &str) -> bool {
    ALLOWLIST.iter().any(|e| e.path == path && e.rule == rule)
}

/// One inline `// steelcheck: allow(<rule>): why` directive, with the
/// usage bit the unused-suppression audit keys off. A directive is
/// *used* when it actually excuses a finding, in either the lexical or
/// the interprocedural layer.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// Rule id the directive names.
    pub rule: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Standalone comments also shield the following line.
    pub covers_next: bool,
    /// Set once the directive excuses at least one finding.
    pub used: bool,
}

/// Mark-and-test: does a directive in `supps` cover (`rule`, `line`)?
/// The first matching directive is marked used.
pub fn try_suppress(supps: &mut [Suppression], rule: &str, line: u32) -> bool {
    for s in supps.iter_mut() {
        if s.rule == rule && (s.line == line || (s.covers_next && s.line + 1 == line)) {
            s.used = true;
            return true;
        }
    }
    false
}

/// Run the lexical rules (R1–R6) over one file. Suppressions consumed
/// here are marked used in `supps`; the caller owns the later
/// unused-suppression audit (after the interprocedural layer has had
/// its chance to consume them too).
pub fn scan_rust(
    path: &str,
    class: FileClass,
    lexed: &Lexed,
    supps: &mut [Suppression],
    findings: &mut Vec<Finding>,
) {
    let mut raw: Vec<Finding> = Vec::new();
    if !class.bench {
        rule_nondet_collections(path, lexed, &mut raw);
        rule_wall_clock(path, lexed, &mut raw);
        rule_float_hygiene(path, class, lexed, &mut raw);
    }
    if class.lib_code && !class.bench {
        rule_unwrap_in_lib(path, lexed, &mut raw);
    }
    if !class.exec {
        rule_thread_outside_exec(path, lexed, &mut raw);
        rule_network_outside_serve(path, lexed, &mut raw);
    }

    for f in raw {
        if allowlisted(path, &f.rule) {
            continue;
        }
        if try_suppress(supps, &f.rule, f.line) {
            continue;
        }
        findings.push(f);
    }
}

/// Extract `steelcheck: allow(<rule>)` directives from comments.
/// A directive suppresses matching findings on its own line and, when
/// the comment owns its line, on the following line.
///
/// Unknown rule names are themselves reported: a typo'd suppression
/// that silently does nothing is worse than a failing build.
pub fn collect_suppressions(
    lexed: &Lexed,
    path: &str,
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        // Doc comments (`///`, `//!`, `/**`, `/*!`) are documentation —
        // a directive shown there as an example must not take effect.
        if c.text.starts_with('/') || c.text.starts_with('!') || c.text.starts_with('*') {
            continue;
        }
        let Some(idx) = c.text.find("steelcheck:") else {
            continue;
        };
        let rest = c.text[idx + "steelcheck:".len()..].trim_start();
        let Some(args) = rest
            .strip_prefix("allow")
            .map(str::trim_start)
            .and_then(|s| s.strip_prefix('('))
            .and_then(|s| s.split(')').next())
        else {
            findings.push(Finding::new(
                path,
                c.line,
                "bad-directive",
                "malformed steelcheck directive; expected `steelcheck: allow(<rule>)`",
            ));
            continue;
        };
        for rule in args.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            if !is_known_rule(rule) {
                // `bad-directive` is deliberately not in ALL_RULES, so a
                // typo'd suppression can never suppress its own report.
                findings.push(Finding::new(
                    path,
                    c.line,
                    "bad-directive",
                    &format!("suppression names unknown rule `{rule}`"),
                ));
                continue;
            }
            // A comment that owns its line shields the next line too;
            // a trailing comment shields only its own line.
            out.push(Suppression {
                rule: rule.to_string(),
                line: c.line,
                covers_next: c.owns_line,
                used: false,
            });
        }
    }
    out
}

/// Emit an `unused-suppression` finding for every directive that
/// excused nothing in either analysis layer. Call after both layers
/// have run.
pub fn report_unused(path: &str, supps: &[Suppression], findings: &mut Vec<Finding>) {
    for s in supps {
        if !s.used {
            findings.push(Finding::new(
                path,
                s.line,
                "unused-suppression",
                &format!(
                    "`steelcheck: allow({})` suppresses nothing; delete the stale \
                     directive (if the violation returns, the rule will report it)",
                    s.rule
                ),
            ));
        }
    }
}

/// R1: `HashMap`/`HashSet` anywhere outside the bench crate.
fn rule_nondet_collections(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for t in &lexed.tokens {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            out.push(Finding::new(
                path,
                t.line,
                "nondet-collections",
                &format!(
                    "{} iteration order is per-process random and breaks \
                     bit-reproducibility; use BTreeMap/BTreeSet or sort before iterating",
                    t.text
                ),
            ));
        }
    }
}

/// R2: wall-clock time sources outside the bench crate. Simulated time
/// must come from the event scheduler, never the host clock.
fn rule_wall_clock(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for t in &lexed.tokens {
        // Exact-text ident match: `Instant::now`, `std::time::Instant`,
        // and `SystemTime` all hit; `InstantReport` does not.
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            out.push(Finding::new(
                path,
                t.line,
                "wall-clock",
                &format!(
                    "`{}` reads the host clock; simulation time must come from \
                     the event scheduler (bench harness code is exempt)",
                    t.text
                ),
            ));
        }
    }
}

/// R3: `.unwrap()` / `.expect(` in library non-test code. Test modules
/// (`#[cfg(test)]`, `#[test]`) are skipped by region.
fn rule_unwrap_in_lib(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let skip = test_regions(&lexed.tokens);
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if skip.iter().any(|&(lo, hi)| i >= lo && i < hi) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || (t.text != "unwrap" && t.text != "expect") {
            continue;
        }
        let preceded_by_dot = i > 0 && toks[i - 1].is_punct(".");
        let followed_by_paren = i + 1 < toks.len() && toks[i + 1].is_punct("(");
        if !(preceded_by_dot && followed_by_paren) {
            continue;
        }
        // `.unwrap()` must be a *call* with no arguments; `.expect(..)`
        // takes the message. Both are flagged.
        if t.text == "unwrap" && !(i + 2 < toks.len() && toks[i + 2].is_punct(")")) {
            continue; // `.unwrap(x)` is some other method (not Option/Result)
        }
        out.push(Finding::new(
            path,
            t.line,
            "unwrap-in-lib",
            &format!(
                ".{}() in library code; return an error or document the invariant \
                 with `// steelcheck: allow(unwrap-in-lib): <why>`",
                t.text
            ),
        ));
    }
}

/// R6: thread spawning and cross-thread synchronization outside the
/// execution layer. "Parallel across scenarios, serial within a
/// simulation" only holds if nothing below `steelpar` spawns: a thread
/// inside a scenario would race its RNG draws and event order.
/// Over-approximate like R1: any `thread::` path segment or a
/// synchronization-primitive ident is flagged, sites with a written
/// invariant suppress inline.
fn rule_thread_outside_exec(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    const SYNC_IDENTS: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "JoinHandle", "mpsc"];
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_thread_path = t.text == "thread"
            && ((i + 1 < toks.len() && toks[i + 1].is_punct("::"))
                || (i > 0 && toks[i - 1].is_punct("::")));
        let is_sync = SYNC_IDENTS.contains(&t.text.as_str()) || t.text.starts_with("Atomic");
        if !is_thread_path && !is_sync {
            continue;
        }
        out.push(Finding::new(
            path,
            t.line,
            "thread-outside-exec",
            &format!(
                "`{}` spawns or synchronizes threads outside the execution layer; \
                 scenarios must stay single-threaded — fan out in crates/steelpar, \
                 or document the invariant with \
                 `// steelcheck: allow(thread-outside-exec): <why>`",
                t.text
            ),
        ));
    }
}

/// R10: raw sockets outside the serving/execution layer. The
/// steelserve subsystem owns all real networking — a socket anywhere
/// else would let simulation code observe host I/O timing and peer
/// state. Over-approximate like R6: any `net` path segment (as in
/// `std::net::...`) or a socket-type ident is flagged; sites with a
/// written invariant suppress inline.
fn rule_network_outside_serve(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    const SOCKET_IDENTS: &[&str] = &["TcpListener", "TcpStream", "UdpSocket"];
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_net_path = t.text == "net"
            && ((i + 1 < toks.len() && toks[i + 1].is_punct("::"))
                || (i > 0 && toks[i - 1].is_punct("::")));
        let is_socket = SOCKET_IDENTS.contains(&t.text.as_str());
        if !is_net_path && !is_socket {
            continue;
        }
        out.push(Finding::new(
            path,
            t.line,
            "network-outside-serve",
            &format!(
                "`{}` opens or names a host socket outside the serving layer; \
                 simulated packets never touch std::net — serve through \
                 crates/steelserve, or document the invariant with \
                 `// steelcheck: allow(network-outside-serve): <why>`",
                t.text
            ),
        ));
    }
}

/// Token index ranges `[lo, hi)` covered by `#[cfg(test)]` / `#[test]`
/// items (the attribute through the end of the item's brace block).
fn test_regions(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_punct("#") || i + 1 >= toks.len() || !toks[i + 1].is_punct("[") {
            i += 1;
            continue;
        }
        // Collect the attribute tokens up to the matching `]`.
        let attr_start = i;
        let mut j = i + 2;
        let mut depth = 1;
        let mut is_test_attr = false;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct("[") {
                depth += 1;
            } else if toks[j].is_punct("]") {
                depth -= 1;
            } else if toks[j].is_ident("test") {
                is_test_attr = true;
            }
            j += 1;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes, then the item: everything up to
        // the end of its first top-level brace block (or a `;` for
        // items without a body).
        while j + 1 < toks.len() && toks[j].is_punct("#") && toks[j + 1].is_punct("[") {
            let mut d = 1;
            j += 2;
            while j < toks.len() && d > 0 {
                if toks[j].is_punct("[") {
                    d += 1;
                } else if toks[j].is_punct("]") {
                    d -= 1;
                }
                j += 1;
            }
        }
        let mut brace_depth = 0usize;
        let mut entered = false;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("{") {
                brace_depth += 1;
                entered = true;
            } else if t.is_punct("}") {
                brace_depth = brace_depth.saturating_sub(1);
                if entered && brace_depth == 0 {
                    j += 1;
                    break;
                }
            } else if t.is_punct(";") && !entered {
                j += 1;
                break;
            }
            j += 1;
        }
        regions.push((attr_start, j));
        i = j;
    }
    regions
}

/// R5: float hygiene.
///
/// (a) `==` / `!=` with a float-literal operand — exact float equality
///     is a latent nondeterminism and portability bug.
/// (b) casting a simulated duration accessor straight to `f32`/`f64`
///     (`.as_nanos() as f64`) outside a stats module — sim-time
///     arithmetic must stay integer; floats are for final reporting.
fn rule_float_hygiene(path: &str, class: FileClass, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        // (a) float equality.
        if t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=") {
            let float_lhs = i > 0 && toks[i - 1].kind == TokKind::Float;
            let float_rhs = i + 1 < toks.len() && toks[i + 1].kind == TokKind::Float;
            if float_lhs || float_rhs {
                out.push(Finding::new(
                    path,
                    t.line,
                    "float-hygiene",
                    "exact float equality comparison; compare integers or use an \
                     explicit tolerance",
                ));
            }
        }
        // (b) sim-time → float cast.
        if class.stats_module {
            continue;
        }
        const TIME_ACCESSORS: &[&str] = &["as_nanos", "as_micros", "as_millis", "as_secs"];
        if t.kind == TokKind::Ident
            && TIME_ACCESSORS.contains(&t.text.as_str())
            && i + 4 < toks.len()
            && toks[i + 1].is_punct("(")
            && toks[i + 2].is_punct(")")
            && toks[i + 3].is_ident("as")
            && (toks[i + 4].is_ident("f64") || toks[i + 4].is_ident("f32"))
        {
            out.push(Finding::new(
                path,
                t.line,
                "float-hygiene",
                &format!(
                    ".{}() as {} converts sim time to float outside a stats module; \
                     keep scheduler arithmetic integer and convert only in stats/reporting",
                    t.text, toks[i + 4].text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, class: FileClass) -> Vec<Finding> {
        let lexed = lex(src);
        let mut out = Vec::new();
        let mut supps = collect_suppressions(&lexed, "test.rs", &mut out);
        scan_rust("test.rs", class, &lexed, &mut supps, &mut out);
        out
    }

    #[test]
    fn rule_table_is_consistent() {
        // Every suppressible id appears in ALL_RULES and vice versa,
        // ids are unique, and every entry documents itself.
        let suppressible: Vec<&str> = RULES.iter().filter(|r| r.suppressible).map(|r| r.id).collect();
        assert_eq!(suppressible, ALL_RULES.to_vec());
        let mut ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len(), "duplicate rule id");
        for r in RULES {
            assert!(!r.summary.is_empty() && !r.rationale.is_empty(), "{}", r.id);
        }
        assert!(!is_known_rule("unused-suppression"), "meta rules are unsuppressible");
        assert!(!is_known_rule("bad-directive"));
        assert!(is_known_rule("panic-reachable"));
    }

    #[test]
    fn suppression_usage_is_tracked() {
        let lexed = lex(
            "// steelcheck: allow(nondet-collections): lookup-only\n\
             use std::collections::HashMap;\n\
             // steelcheck: allow(wall-clock): stale, nothing here\n\
             let x = 1;\n",
        );
        let mut out = Vec::new();
        let mut supps = collect_suppressions(&lexed, "test.rs", &mut out);
        scan_rust("test.rs", LIB, &lexed, &mut supps, &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert!(supps[0].used, "consumed by the HashMap finding");
        assert!(!supps[1].used, "nothing to suppress");
        report_unused("test.rs", &supps, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "unused-suppression");
        assert_eq!(out[0].line, 3);
    }

    const LIB: FileClass = FileClass {
        bench: false,
        lib_code: true,
        stats_module: false,
        exec: false,
    };

    #[test]
    fn hashmap_flagged_and_suppressed() {
        let hit = run("use std::collections::HashMap;", LIB);
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].rule, "nondet-collections");

        let ok = run(
            "// steelcheck: allow(nondet-collections): lookup-only\nuse std::collections::HashMap;",
            LIB,
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn trailing_suppression_covers_its_own_line() {
        let ok = run(
            "use std::collections::HashMap; // steelcheck: allow(nondet-collections): x",
            LIB,
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn unknown_rule_in_suppression_is_reported() {
        let hit = run("// steelcheck: allow(no-such-rule)\nlet x = 1;", LIB);
        assert_eq!(hit.len(), 1);
        assert!(hit[0].message.contains("unknown rule"));
    }

    #[test]
    fn doc_comment_directives_are_inert() {
        // Neither a bad-directive report nor an active suppression.
        let hits = run(
            "/// Suppress with `// steelcheck: allow(bogus)`.\npub fn f() {}",
            LIB,
        );
        assert!(hits.is_empty(), "{hits:?}");
        let hits = run(
            "/// steelcheck: allow(nondet-collections)\nuse std::collections::HashMap;",
            LIB,
        );
        assert_eq!(hits.len(), 1, "doc comments must not suppress: {hits:?}");
    }

    #[test]
    fn unwrap_in_test_module_ignored() {
        let src = r#"
            pub fn lib_code(x: Option<u32>) -> u32 { x.unwrap() }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); }
            }
        "#;
        let hits = run(src, LIB);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn unwrap_or_not_flagged() {
        let hits = run("pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }", LIB);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn float_equality_flagged() {
        let hits = run("pub fn f(x: f64) -> bool { x == 1.0 }", LIB);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "float-hygiene");
    }

    #[test]
    fn simtime_float_cast_flagged_outside_stats() {
        let src = "pub fn f(d: NanoDur) -> f64 { d.as_nanos() as f64 }";
        assert_eq!(run(src, LIB).len(), 1);
        let stats = FileClass {
            stats_module: true,
            ..LIB
        };
        assert!(run(src, stats).is_empty());
    }

    #[test]
    fn bench_class_exempt_from_determinism_rules() {
        let bench = FileClass {
            bench: true,
            lib_code: false,
            stats_module: false,
            exec: true,
        };
        let src = "use std::time::Instant; use std::collections::HashMap;";
        assert!(run(src, bench).is_empty());
    }

    #[test]
    fn thread_primitives_flagged_outside_exec() {
        for src in [
            "pub fn f() { std::thread::spawn(|| {}); }",
            "use std::thread;",
            "use std::sync::Mutex;",
            "static N: AtomicU64 = AtomicU64::new(0);",
            "use std::sync::mpsc;",
        ] {
            let hits = run(src, LIB);
            assert!(
                hits.iter().all(|h| h.rule == "thread-outside-exec") && !hits.is_empty(),
                "{src}: {hits:?}"
            );
        }
    }

    #[test]
    fn thread_as_plain_ident_or_arc_not_flagged() {
        // A variable named `thread` without a path separator, and `Arc`
        // (immutable sharing is deterministic) are fine.
        for src in [
            "pub fn f(thread: u32) -> u32 { thread + 1 }",
            "use std::sync::Arc;",
        ] {
            let hits = run(src, LIB);
            assert!(hits.is_empty(), "{src}: {hits:?}");
        }
    }

    #[test]
    fn exec_class_exempt_from_thread_rule() {
        let exec = FileClass { exec: true, ..LIB };
        let src = "pub fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        assert!(run(src, exec).is_empty());
        assert_eq!(run(src, LIB).len(), 1, "`thread::` path hit");
    }

    #[test]
    fn thread_rule_suppressible_inline() {
        let src = "// steelcheck: allow(thread-outside-exec): id counter only\n\
                   use std::sync::atomic::AtomicU64;";
        assert!(run(src, LIB).is_empty());
    }

    #[test]
    fn sockets_flagged_outside_serve() {
        for src in [
            "use std::net::TcpListener;",
            "pub fn f() { let _ = TcpStream::connect(\"127.0.0.1:80\"); }",
            "use std::net::UdpSocket;",
            "pub fn f() { let _ = std::net::SocketAddr::from(([0, 0, 0, 0], 0)); }",
        ] {
            let hits = run(src, LIB);
            assert!(
                hits.iter().all(|h| h.rule == "network-outside-serve") && !hits.is_empty(),
                "{src}: {hits:?}"
            );
        }
    }

    #[test]
    fn net_as_plain_ident_not_flagged() {
        // A variable or field named `net` without a path separator is
        // fine — only `net::`/`::net` path segments and socket types hit.
        for src in [
            "pub fn f(net: u32) -> u32 { net + 1 }",
            "pub struct Topo { net: u32 }",
        ] {
            let hits = run(src, LIB);
            assert!(hits.is_empty(), "{src}: {hits:?}");
        }
    }

    #[test]
    fn exec_class_exempt_from_network_rule() {
        let exec = FileClass { exec: true, ..LIB };
        let src = "pub fn f() { let _ = std::net::TcpListener::bind(\"127.0.0.1:0\"); }";
        assert!(run(src, exec).is_empty());
        assert_eq!(run(src, LIB).len(), 2, "`net::` path + TcpListener hit");
    }

    #[test]
    fn network_rule_suppressible_inline() {
        let src = "// steelcheck: allow(network-outside-serve): doc example, never run\n\
                   use std::net::TcpStream;";
        assert!(run(src, LIB).is_empty());
    }
}
