//! Self-tests of the benchmark's own checks, at sizes that run in
//! seconds: a tampered reference must count as failed operations, two
//! runs of one workload must print identical deterministic counters,
//! and every workload's result line must hold every metric
//! `BENCHMARK.json` lists for its mode.
//! Run with `cargo test --release --manifest-path steelbench/Cargo.toml`.

use crate::check::{Expected, ROOT};
use crate::measure::Report;
use crate::{campus, reflect, result_json, serve, END_TO_END, PER_LAYER};
use steelserve::figures::run_spec;
use steelserve::sha::sha256_hex;

fn small_reflect() -> reflect::Config {
    reflect::Config {
        cycles: 60,
        seed: 5,
        jobs: 2,
    }
}

fn small_campus() -> campus::Config {
    campus::Config {
        cells: 2,
        leaves_per_cell: 2,
        endpoints_per_leaf: 8,
        period_us: 100,
        cycles: 3,
        seed: 5,
        jobs: 2,
    }
}

fn small_serve(name: &str, conns: usize, miss_every: u64) -> serve::Config {
    serve::Config {
        mix: 6,
        conns,
        miss_every,
        seed: 5,
        jobs: 2,
        scratch: std::path::Path::new(ROOT).join("steelbench/out").join(name),
    }
}

fn assert_clean(r: &Report) {
    assert!(r.attempted > 0, "no operation was checked");
    assert_eq!(r.failed, 0, "{}", r.check);
}

/// The result line holds every `listed` metric, in its unit.
fn assert_lists(r: &Report, listed: &[(&str, &str)]) {
    if let Err(e) = result_json(r, listed) {
        panic!("{e}");
    }
}

#[test]
fn manifest_lists_exactly_the_reported_metrics() {
    let text = std::fs::read_to_string(std::path::Path::new(ROOT).join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let field = |chunk: &str, key: &str| {
        let rest = &chunk[chunk.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let listed: Vec<(String, String)> = text
        .split('{')
        .filter_map(|chunk| Some((field(chunk, "name")?, field(chunk, "unit")?)))
        .collect();
    let ours: Vec<(String, String)> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed, ours);
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    assert_lists(
        &reflect::run(&small_reflect(), 0.05, false, None),
        &END_TO_END,
    );
    assert_lists(
        &campus::run(&small_campus(), 0.05, false, None),
        &END_TO_END,
    );
    let hit = serve::run(&small_serve("selftest-hit", 2, 0), 0.3, false, false);
    assert_clean(&hit);
    assert_lists(&hit, &END_TO_END);
}

#[test]
fn traced_serve_runs_report_every_per_layer_metric() {
    for (name, miss_every) in [("selftest-trace-hit", 0), ("selftest-trace-churn", 4)] {
        let r = serve::run(&small_serve(name, 2, miss_every), 0.3, true, false);
        assert_clean(&r);
        assert_lists(&r, &PER_LAYER);
    }
}

#[test]
fn tampered_reflect_reference_counts_every_artifact_as_failed() {
    let cfg = small_reflect();
    let mut bytes = run_spec(&cfg.spec(), 1);
    bytes.replace_range(0..1, "!");
    let tampered = Expected::Bytes {
        source: "a tampered copy".into(),
        bytes,
    };
    let r = reflect::run(&cfg, 0.05, false, Some(tampered));
    assert!(r.attempted > 0);
    assert_eq!(r.failed, r.attempted);
}

#[test]
fn tampered_campus_digest_counts_every_artifact_as_failed() {
    let cfg = small_campus();
    let mut sha = sha256_hex(run_spec(&cfg.spec(), 1).as_bytes());
    let flipped = if sha.starts_with('0') { "1" } else { "0" };
    sha.replace_range(0..1, flipped);
    let r = campus::run(&cfg, 0.05, false, Some(Expected::Digest { sha256: sha }));
    assert!(r.attempted > 0);
    assert_eq!(r.failed, r.attempted);
}

#[test]
fn tampered_serve_reference_counts_as_failed() {
    let r = serve::run(&small_serve("selftest-tamper", 1, 0), 0.2, false, true);
    assert!(
        r.failed > 0,
        "a wrong expected body must fail its responses"
    );
    assert!(r.failed < r.attempted, "the other warm specs still pass");
}

#[test]
fn reflect_twice_gives_identical_counters() {
    let a = reflect::run(&small_reflect(), 0.05, true, None);
    let b = reflect::run(&small_reflect(), 0.05, true, None);
    assert_clean(&a);
    assert_clean(&b);
    assert!(a.counters.contains_key("xdpsim.frames") && a.counters.contains_key("artifact_sha256"));
    assert_eq!(a.counters, b.counters);
    assert_lists(&a, &PER_LAYER);
}

#[test]
fn campus_twice_gives_identical_counters() {
    let a = campus::run(&small_campus(), 0.05, true, None);
    let b = campus::run(&small_campus(), 0.05, true, None);
    assert_clean(&a);
    assert_clean(&b);
    assert!(a.counters.contains_key("netsim.events") && a.counters.contains_key("artifact_sha256"));
    assert_eq!(a.counters, b.counters);
    assert_lists(&a, &PER_LAYER);
}

#[test]
fn serve_churn_twice_gives_identical_counters() {
    let a = serve::run(&small_serve("selftest-churn-a", 2, 8), 0.3, false, false);
    let b = serve::run(&small_serve("selftest-churn-b", 2, 8), 0.3, false, false);
    assert_clean(&a);
    assert_clean(&b);
    assert!(a.metrics.iter().any(|m| m.name == "miss_p50_ms"));
    assert_eq!(a.counters, b.counters);
    assert_lists(&a, &END_TO_END);
}
