//! `steelbench` — the steelworks benchmark. See `steelbench/README.md`.
//!
//! ```text
//! steelbench --workload <reflect|campus|serve_hit|serve_churn> --seed N --seconds S --trace 0|1
//! steelbench --pin
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer metrics, writes the spans and the layer split under
//! `steelbench/out/`, and appends the run to `steelbench/history.jsonl`.
//! Every workload reports every metric `BENCHMARK.json` lists for its
//! mode, in the same unit; other measurements are printed above as
//! `metric` lines. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`.

mod campus;
mod check;
mod layers;
mod measure;
mod reflect;
#[cfg(test)]
mod selftest;
mod serve;

use check::ROOT;
use measure::{Metric, Report};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use steelserve::sha::sha256_hex;

/// Each workload's development seed (used while tuning the benchmark)
/// and hold-out seed (kept for confirming a claimed gain).
const SEEDS: [(&str, u64, u64); 4] = [
    ("reflect", 360_161, 7_340_033),
    ("campus", 3_235, 7_340_033),
    ("serve_hit", 1, 7_340_033),
    ("serve_churn", 1, 7_340_033),
];

/// Cycles per flow of `reflect` (the committed `fig4_loops` spec's).
const REFLECT_CYCLES: u64 = 10_000;
/// Frames per source of `campus`: one keeps an artifact at ~2–3 s, so a
/// run holds several.
const CAMPUS_CYCLES: u64 = 1;
/// Specs drawn from `sample_mix` to warm the serve workloads' cache. At
/// 256, one set-up is hundreds of round trips, so a scheduling stall of a
/// few ms moves a set-up by a few percent; at 32 it could double one.
const SERVE_MIX: usize = 256;
/// One request in this many posts a fresh spec on `serve_churn`. No
/// caller has a steady mix (the hermetic gate posts each spec cold, then
/// warm: one miss in two). At one in 16 the misses take about 40% of
/// the two cores and the hits most of the rest, so a change to either
/// path shows. At one in two a connection spends over 99% of its time
/// waiting on misses; at one in 512 the workload is almost `serve_hit`.
const CHURN_MISS_EVERY: u64 = 16;

/// The end-to-end metrics `BENCHMARK.json` lists, with their units:
/// what every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics `BENCHMARK.json` lists, with their units: what
/// every workload reports with `--trace 1`.
const PER_LAYER: [(&str, &str); 15] = [
    ("xdpsim.verify_s", "s"),
    ("xdpsim.lower_s", "s"),
    ("xdpsim.frame_ns", "ns"),
    ("xdpsim.loop_frame_ns", "ns"),
    ("netsim.frame_ns", "ns"),
    ("netsim.echo_frame_ns", "ns"),
    ("netsim.tap_frame_ns", "ns"),
    ("netsim.switch_frame_ns", "ns"),
    ("netsim.queue_op_ns", "ns"),
    ("serve.parse_us", "us"),
    ("serve.key_us", "us"),
    ("serve.lookup_us", "us"),
    ("serve.transport_us", "us"),
    ("trace.overhead_pct", "%"),
    ("split.residual_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = SEEDS.iter().map(|s| s.0).collect();
    format!(
        "usage: steelbench --workload <{}> --seed N --seconds S --trace 0|1\n       steelbench --pin",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad("want an unsigned integer"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad("want a number of seconds"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(bad("want 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !SEEDS.iter().any(|s| s.0 == out.workload) {
        return Err(format!("unknown workload `{}`", out.workload));
    }
    Ok(out)
}

/// Client threads, connections and steelpar jobs: at most 2, and at
/// most the machine's parallelism.
fn jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn out_dir() -> PathBuf {
    Path::new(ROOT).join("steelbench/out")
}

fn run(args: &Args) -> Report {
    // Spec seeds travel as JSON integers, which stop at i64::MAX.
    let seed = args.seed & (i64::MAX as u64);
    // Both serve workloads keep one connection per core busy. On one
    // connection the other core idles between requests, and the hit
    // latency then includes how fast the virtual machine wakes an idle
    // core: `hit_rps` swung between 9k and 22k req/s from run to run.
    let serve = |miss_every| serve::Config {
        mix: SERVE_MIX,
        conns: jobs(),
        miss_every,
        seed,
        jobs: jobs(),
        scratch: out_dir(),
    };
    match args.workload.as_str() {
        "reflect" => reflect::run(
            &reflect::Config {
                cycles: REFLECT_CYCLES,
                seed,
                jobs: jobs(),
            },
            args.seconds,
            args.trace,
            None,
        ),
        "campus" => campus::run(
            &campus::Config::campus(CAMPUS_CYCLES, seed, jobs()),
            args.seconds,
            args.trace,
            None,
        ),
        "serve_hit" => serve::run(&serve(0), args.seconds, args.trace, false),
        _ => serve::run(&serve(CHURN_MISS_EVERY), args.seconds, args.trace, false),
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and exactly the
/// `listed` metrics. A listed metric that is missing, in another unit
/// or not finite is an error, not a line without it.
fn result_json(report: &Report, listed: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(listed.len());
    for &(name, unit) in listed {
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != unit || !m.value.is_finite() {
            return Err(format!(
                "metric {name} = {} {}, want a finite value in {unit}",
                m.value, m.unit
            ));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.value
        ));
    }
    let correct = report.failed == 0 && report.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn metrics_obj(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, json_num(m.value)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The layer split, tracing overhead and span self times as a table.
fn split_table(args: &Args, report: &Report) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# steelbench {} seed {} — layer split (traced run)",
        args.workload, args.seed
    );
    for (metric, total, rows) in &report.splits {
        let _ = writeln!(s, "{metric} = {total:.6} (untraced median)");
        let _ = writeln!(
            s,
            "  {:<11} {:<58} {:>12} {:>8}",
            "layer", "part", "value", "share"
        );
        for r in rows {
            let _ = writeln!(
                s,
                "  {:<11} {:<58} {:>12.6} {:>7.1}%",
                r.layer,
                r.part,
                r.value,
                r.value / total * 100.0
            );
        }
        let sum: f64 = rows.iter().map(|r| r.value).sum();
        let _ = writeln!(s, "  {:<11} {:<58} {:>12.6}", "sum", "", sum);
    }
    for (u, t) in report.untraced.iter().filter_map(|u| {
        report
            .traced
            .iter()
            .find(|t| t.name == u.name)
            .map(|t| (u, t))
    }) {
        let _ = writeln!(
            s,
            "tracing overhead on {}: traced {:.6} vs untraced {:.6} {} ({:+.2}%)",
            u.name,
            t.value,
            u.value,
            u.unit,
            (t.value - u.value) / u.value * 100.0
        );
    }
    if let Some(spans) = &report.spans {
        let _ = writeln!(s, "span self time by layer:");
        for (layer, (n, secs)) in spans.self_by_layer() {
            let _ = writeln!(s, "  {layer:<11} {n:>8} spans {secs:>12.6} s");
        }
    }
    s
}

/// The commit being measured: `.git/HEAD` resolved, when present.
fn git_commit() -> Option<String> {
    let git = Path::new(ROOT).join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// SHA-256 over the workspace's manifests and crate sources, so a
/// checkout without git history still keys its history entries.
fn tree_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let root = Path::new(ROOT);
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        all.extend(std::fs::read(&f).unwrap_or_default());
    }
    sha256_hex(&all)
}

/// Write the spans and the split table, and append the run to the history.
fn write_trace(args: &Args, report: &Report, table: &str) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    if let Some(spans) = &report.spans {
        std::fs::write(
            dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed)),
            spans.to_json_lines(),
        )?;
    }
    std::fs::write(dir.join(format!("layers-{}.txt", args.workload)), table)?;
    let commit = git_commit();
    let tree = tree_digest();
    let key = commit.clone().unwrap_or_else(|| format!("tree:{tree}"));
    let counters: Vec<String> = report
        .counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    let line = format!(
        "{{\"key\": \"{key}\", \"commit\": {}, \"tree\": \"{tree}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"jobs\": {}, \"attempted\": {}, \"failed\": {}, \"untraced\": {}, \"traced\": {}, \"layers\": {}, \"counters\": {{{}}}}}\n",
        commit.map_or("null".to_string(), |c| format!("\"{c}\"")),
        args.workload,
        args.seed,
        args.seconds,
        jobs(),
        report.attempted,
        report.failed,
        metrics_obj(&report.untraced),
        metrics_obj(&report.traced),
        metrics_obj(&report.metrics),
        counters.join(", ")
    );
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(Path::new(ROOT).join("steelbench/history.jsonl"))?
        .write_all(line.as_bytes())
}

/// Confirm the committed specs still reproduce `results/`, then pin
/// the artifact digests of `reflect` and `campus` at seeds 0..=63 and
/// every workload's development and hold-out seed.
fn pin() -> ExitCode {
    let root = Path::new(ROOT);
    for (spec_path, result) in [
        reflect::COMMITTED,
        ("specs/fig_campus.json", "results/fig_campus.txt"),
    ] {
        let spec_text = std::fs::read_to_string(root.join(spec_path)).unwrap_or_default();
        let reference = std::fs::read_to_string(root.join(result)).unwrap_or_default();
        let Ok(spec) = steelserve::spec::Spec::parse(&spec_text) else {
            eprintln!(
                "steelbench: cannot parse {}",
                root.join(spec_path).display()
            );
            return ExitCode::FAILURE;
        };
        if steelserve::figures::run_spec(&spec, jobs()) != reference {
            eprintln!("steelbench: {result} is not reproduced by its spec; refusing to pin");
            return ExitCode::FAILURE;
        }
        println!("reproduced {result}");
    }
    let mut seeds: Vec<u64> = (0..64).collect();
    seeds.extend(SEEDS.iter().flat_map(|s| [s.1, s.2]));
    seeds.sort_unstable();
    seeds.dedup();
    let mut out = String::from(
        "# <spec key> <artifact sha256> <workload> <seed>; written by `steelbench --pin`\n",
    );
    for &seed in &seeds {
        let specs = [
            (
                "reflect",
                reflect::Config {
                    cycles: REFLECT_CYCLES,
                    seed,
                    jobs: jobs(),
                }
                .spec(),
            ),
            (
                "campus",
                campus::Config::campus(CAMPUS_CYCLES, seed, jobs()).spec(),
            ),
        ];
        for (name, spec) in specs {
            let art = steelserve::figures::run_spec(&spec, jobs());
            let _ = writeln!(
                out,
                "{} {} {name} {seed}",
                spec.key(),
                sha256_hex(art.as_bytes())
            );
        }
        println!("pinned seed {seed}");
    }
    match std::fs::write(root.join(check::PINS), out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("steelbench: writing {}: {e}", check::PINS);
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--pin"] {
        return pin();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("steelbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!(
        "steelbench {} seed {} seconds {} trace {} jobs {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        jobs()
    );
    let report = run(&args);
    println!(
        "check   {} ({} attempted, {} failed)",
        report.check, report.attempted, report.failed
    );
    for (k, v) in &report.counters {
        println!("counter {k} = {v}");
    }
    for m in &report.metrics {
        println!("metric  {} = {} {}  ({})", m.name, m.value, m.unit, m.note);
    }
    if args.trace {
        let table = split_table(&args, &report);
        print!("{table}");
        if let Err(e) = write_trace(&args, &report, &table) {
            eprintln!("steelbench: writing trace output: {e}");
            return ExitCode::FAILURE;
        }
    }
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match result_json(&report, listed) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("steelbench: {e}");
            ExitCode::FAILURE
        }
    }
}
