//! `campus`: the 100k-node scale of `specs/fig_campus.json` through
//! `steelserve::figures::run_spec`, which runs `core::run_campus` on
//! netsim at 10⁵ nodes.

use crate::check::{self, artifact_window, Expected};
use crate::layers::{span_median, UnitCosts};
use crate::measure::{median, peak_rss_mb, serial_ops, Metric, Report, SplitRow, Tracer};
use std::time::Instant;
use steelserve::figures::run_spec;
use steelserve::spec::{CampusScale, Spec};
use steelworks_core::prelude::{run_campus, CampusConfig, CampusResult};
use steelworks_netsim::time::NanoDur;

/// Workload size: one campus scale point.
#[derive(Clone, Debug)]
pub struct Config {
    /// Cells on the backbone ring.
    pub cells: u64,
    /// Leaves per cell.
    pub leaves_per_cell: u64,
    /// Endpoints per leaf.
    pub endpoints_per_leaf: u64,
    /// Send period, microseconds.
    pub period_us: u64,
    /// Frames per source.
    pub cycles: u64,
    /// World seed.
    pub seed: u64,
    /// steelpar width.
    pub jobs: usize,
}

impl Config {
    /// The `campus` row of `specs/fig_campus.json` at `cycles` and `seed`.
    pub fn campus(cycles: u64, seed: u64, jobs: usize) -> Config {
        Config {
            cells: 16,
            leaves_per_cell: 16,
            endpoints_per_leaf: 392,
            period_us: 1_000,
            cycles,
            seed,
            jobs,
        }
    }

    /// The ~10k-node `mid` row at the same cycles and seed.
    fn mid(&self) -> Config {
        Config {
            cells: 8,
            leaves_per_cell: 8,
            endpoints_per_leaf: 156,
            ..self.clone()
        }
    }

    /// The spec every artifact is rendered from.
    pub fn spec(&self) -> Spec {
        Spec::Campus {
            scales: vec![CampusScale {
                name: "campus".to_string(),
                cells: self.cells,
                leaves_per_cell: self.leaves_per_cell,
                endpoints_per_leaf: self.endpoints_per_leaf,
                period_us: self.period_us,
                cycles: self.cycles,
                seed: self.seed,
            }],
        }
    }

    fn world(&self, cycles: u64) -> CampusConfig {
        CampusConfig {
            cells: self.cells as usize,
            leaves_per_cell: self.leaves_per_cell as usize,
            endpoints_per_leaf: self.endpoints_per_leaf as usize,
            period: NanoDur::from_micros(self.period_us),
            cycles,
            seed: self.seed,
        }
    }
}

/// Run `cfg`'s world at `cycles` `reps` times; median seconds and the
/// last result.
fn campus_runs(
    t: &mut Tracer,
    name: &'static str,
    cfg: &Config,
    cycles: u64,
    reps: usize,
) -> (f64, CampusResult) {
    let world = cfg.world(cycles);
    let (secs, mut outs) = span_median(t, name, reps, || run_campus(&world));
    (secs, outs.pop().expect("at least one run"))
}

/// Seconds per event the cycles add to a world: (run at `cycles` − run
/// at 0 cycles) ÷ the events between them.
fn event_ns(full: (f64, &CampusResult), empty: (f64, &CampusResult)) -> f64 {
    let added = full
        .1
        .events_processed
        .saturating_sub(empty.1.events_processed)
        .max(1);
    (full.0 - empty.0) * 1e9 / added as f64
}

/// Run the workload: end-to-end metrics, or with `trace` the layer split.
pub fn run(cfg: &Config, seconds: f64, trace: bool, expected: Option<Expected>) -> Report {
    let spec = cfg.spec();
    let mut report = Report::default();
    let expected = expected.unwrap_or_else(|| check::resolve(&spec, None, || run_spec(&spec, 1)));
    report.check = expected.label();
    let mut t = Tracer::new(trace, Instant::now(), 0);
    // Set-up: build, freeze and audit the world without running a cycle.
    let (setup_s, empty) = campus_runs(&mut t, "core.run_campus_0_cycles", cfg, 0, 5);
    let setup = Metric {
        name: "setup_s",
        value: setup_s,
        unit: "s",
        note: "median of 5 set-ups: run_campus at 0 cycles (build, freeze, audit)".to_string(),
    };
    let what = format!("artifacts at jobs {}", cfg.jobs);

    if !trace {
        let times = artifact_window(
            &spec,
            cfg.jobs,
            seconds,
            &expected,
            &mut report,
            &mut Tracer::off(),
        );
        report.metrics.push(setup);
        report.metrics.extend(serial_ops(&times, &what));
        report.metric(
            "peak_rss_mb",
            peak_rss_mb(),
            "MB",
            "VmHWM at the end of the run",
        );
        return report;
    }

    let half = seconds / 2.0;
    let untraced = artifact_window(
        &spec,
        cfg.jobs,
        half,
        &expected,
        &mut report,
        &mut Tracer::off(),
    );
    let traced = artifact_window(&spec, cfg.jobs, half, &expected, &mut report, &mut t);
    let run_s = median(&untraced);
    let run_s_traced = median(&traced);

    // run_spec at jobs 1 and run_campus back to back: their difference
    // is the render, paired so that a slow host phase hits both.
    let world = cfg.world(cfg.cycles);
    let (mut full_secs, mut renders, mut full, mut art) = (Vec::new(), Vec::new(), None, None);
    for rep in 0..3 {
        let (a, spec_s) = t.timed("steelserve.run_spec_jobs1", rep, || run_spec(&spec, 1));
        report.checked(expected.matches(&a));
        let (out, campus_s) = t.timed("core.run_campus", rep, || run_campus(&world));
        full_secs.push(campus_s);
        renders.push(spec_s - campus_s);
        full = Some(out);
        art = Some(a);
    }
    let full = full.expect("three paired runs");
    let full_s = median(&full_secs);
    let render = median(&renders);
    let mid = cfg.mid();
    let (mid_empty_s, mid_empty) = campus_runs(&mut t, "core.run_campus_mid_0_cycles", &mid, 0, 5);
    let (mid_full_s, mid_full) = campus_runs(&mut t, "core.run_campus_mid", &mid, cfg.cycles, 5);
    let per_event = event_ns((full_s, &full), (setup_s, &empty));
    let per_event_10k = event_ns((mid_full_s, &mid_full), (mid_empty_s, &mid_empty));
    // The queue replay holds one timer per source, each re-armed once a period.
    let served = [(spec.clone(), art.expect("three paired runs"))];
    let u = UnitCosts::measure(
        &mut t,
        full.sources as usize,
        cfg.period_us * 1_000,
        &served,
        &[],
        &crate::out_dir(),
    );
    let added = full.events_processed.saturating_sub(empty.events_processed) as f64;
    let queue_s = added * u.queue_ns * 1e-9;

    let row = |layer, part: &str, secs: f64| SplitRow {
        layer,
        part: part.to_string(),
        value: secs * 1e3,
    };
    // Nothing replays dispatch, links, switches and sinks on their own,
    // so they stay in the residual, together with any error of the
    // periodic-timer model behind `queue_s`, which it applies to every
    // added event.
    let residual = run_s - (setup_s + queue_s + render);
    let rows = vec![
        row(
            "netsim",
            "build, freeze, audit the world (setup_s)",
            setup_s,
        ),
        row(
            "netsim",
            "event queue model: added events x netsim.queue_op_ns",
            queue_s,
        ),
        row(
            "steelserve",
            "render: run_spec at jobs 1 minus run_campus, paired",
            render,
        ),
        row(
            "residual",
            "dispatch, links, switches, sinks; queue-model error",
            residual,
        ),
    ];
    report
        .splits
        .push(("op_p50_ms (ms per artifact)".to_string(), run_s * 1e3, rows));
    report.untraced = vec![setup];
    report.untraced.extend(serial_ops(&untraced, &what));
    report.traced = serial_ops(&traced, &what);

    u.report(&mut report);
    report.metric(
        "trace.overhead_pct",
        (run_s_traced - run_s) / run_s * 100.0,
        "%",
        "traced op_p50_ms vs untraced op_p50_ms",
    );
    report.metric(
        "split.residual_pct",
        residual / run_s * 100.0,
        "%",
        "residual as a share of op_p50_ms",
    );
    report.metric(
        "netsim.event_ns",
        per_event,
        "ns",
        format!(
            "(run_campus at {} cycles - at 0) / added events, {} nodes",
            cfg.cycles, full.nodes
        ),
    );
    report.metric(
        "netsim.event_ns_10k",
        per_event_10k,
        "ns",
        format!("the same at the mid scale, {} nodes", mid_full.nodes),
    );
    report.metric(
        "steelserve.render_s",
        render,
        "s",
        "run_spec at jobs 1 minus run_campus, median of 3 back-to-back pairs",
    );
    report.count(
        "netsim.events",
        full.events_processed,
        "CampusResult.events_processed",
    );
    report.count(
        "netsim.frames_delivered",
        full.frames_received,
        "CampusResult.frames_received",
    );
    report.count(
        "netsim.switch_forwarded",
        full.switch_forwarded,
        "CampusResult.switch_forwarded",
    );
    report.count(
        "netsim.peak_queue_depth",
        full.peak_queue_depth as u64,
        "CampusResult.peak_queue_depth",
    );
    report.count(
        "netsim.link_drops",
        full.link_drops,
        "CampusResult.link_drops",
    );
    report.spans = Some(t);
    report
}
