//! `reflect`: the bounded-loop Fig. 4 artifact (`specs/fig4_loops.json`
//! shape: 6 straight-line reflection variants, the 1- and 25-flow TS
//! runs, 3 loop programs) through `steelserve::figures::run_spec`.

use crate::check::{self, artifact_window, Expected};
use crate::layers::{span_median, Prog, UnitCosts, CYCLE, REFLECT_TIMERS};
use crate::measure::{
    median, peak_rss_mb, repeat_timed, serial_ops, Metric, Report, SplitRow, Tracer,
};
use std::time::Instant;
use steelserve::figures::run_spec;
use steelserve::spec::Spec;
use steelworks_core::prelude::{run_reflection, ReflectionConfig};
use steelworks_xdpsim::prelude::ReflectVariant;

/// The committed spec this workload reproduces at its reference seed.
pub const COMMITTED: (&str, &str) = ("specs/fig4_loops.json", "results/fig4_loops.txt");

/// Workload size.
#[derive(Clone, Debug)]
pub struct Config {
    /// Cycles per flow.
    pub cycles: u64,
    /// Spec seed.
    pub seed: u64,
    /// steelpar width.
    pub jobs: usize,
}

impl Config {
    /// The spec every artifact is rendered from.
    pub fn spec(&self) -> Spec {
        Spec::Fig4 {
            cycles: self.cycles,
            seed: self.seed,
            loops: 1,
        }
    }
}

/// One of the artifact's 11 reflection scenarios.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    prog: Prog,
    flows: u32,
}

fn scenarios() -> Vec<Scenario> {
    let one = |prog| Scenario { prog, flows: 1 };
    let ts = Prog::Straight(ReflectVariant::Ts);
    ReflectVariant::ALL
        .iter()
        .map(|&v| one(Prog::Straight(v)))
        .chain([
            one(ts),
            Scenario {
                prog: ts,
                flows: 25,
            },
        ])
        .chain(
            Prog::all()
                .into_iter()
                .filter(|p| matches!(p, Prog::Loop(_)))
                .map(one),
        )
        .collect()
}

/// What a user pays before the first frame: parse the spec, then
/// verify and lower its 9 programs.
fn setup(text: &str) {
    std::hint::black_box(Spec::parse(text).expect("the canonical spec parses"));
    for p in Prog::all() {
        std::hint::black_box(p.attach());
    }
}

/// Run the workload: end-to-end metrics, or with `trace` the layer split.
pub fn run(cfg: &Config, seconds: f64, trace: bool, expected: Option<Expected>) -> Report {
    let spec = cfg.spec();
    let mut report = Report::default();
    let expected =
        expected.unwrap_or_else(|| check::resolve(&spec, Some(COMMITTED), || run_spec(&spec, 1)));
    report.check = expected.label();
    let text = spec.canonical();
    let setups = repeat_timed(5, 0.3, || setup(&text));
    let setup = Metric {
        name: "setup_s",
        value: median(&setups),
        unit: "s",
        note: format!(
            "median of {} set-ups: parse + verify and lower 9 programs",
            setups.len()
        ),
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

    // End to end, untraced then traced, half the window each.
    let half = seconds / 2.0;
    let untraced = artifact_window(
        &spec,
        cfg.jobs,
        half,
        &expected,
        &mut report,
        &mut Tracer::off(),
    );
    let mut t = Tracer::new(true, Instant::now(), 0);
    let traced = artifact_window(&spec, cfg.jobs, half, &expected, &mut report, &mut t);
    let run_s = median(&untraced);
    let run_s_traced = median(&traced);

    // core: the 11 scenarios through run_reflection.
    let scens = scenarios();
    let mut scen_secs: Vec<Vec<f64>> = vec![Vec::new(); scens.len()];
    let mut frames = vec![0u64; scens.len()];
    let (mut tx, mut aborted, mut taps) = (0u64, 0u64, 0u64);
    for rep in 0..3 {
        for (i, sc) in scens.iter().enumerate() {
            let rcfg = ReflectionConfig {
                variant: match sc.prog {
                    Prog::Straight(v) => v,
                    Prog::Loop(_) => ReflectVariant::Base,
                },
                loop_variant: match sc.prog {
                    Prog::Loop(l) => Some(l),
                    Prog::Straight(_) => None,
                },
                flows: sc.flows,
                cycles: cfg.cycles,
                seed: cfg.seed,
                ..ReflectionConfig::default()
            };
            let (out, secs) = t.timed("core.run_reflection", i as u64, || run_reflection(&rcfg));
            scen_secs[i].push(secs);
            if rep == 0 {
                frames[i] = out.stats.runs;
                tx += out.stats.tx;
                aborted += out.stats.aborted;
                taps += out.tap_records as u64;
            }
        }
    }
    let scen_med: Vec<f64> = scen_secs.iter().map(|v| median(v)).collect();
    let scen_sum: f64 = scen_med.iter().sum();
    let scen_max = scen_med.iter().copied().fold(0.0, f64::max);

    // steelserve: the same artifact at jobs 1, serially.
    let (jobs1_s, mut arts) = span_median(&mut t, "steelserve.run_spec_jobs1", 3, || {
        run_spec(&spec, 1)
    });
    for art in &arts {
        report.checked(expected.matches(art));
    }
    let served = [(spec.clone(), arts.pop().expect("three artifacts"))];
    let u = UnitCosts::measure(
        &mut t,
        REFLECT_TIMERS,
        CYCLE.as_nanos(),
        &served,
        &[],
        &crate::out_dir(),
    );

    // The serial split of one artifact.
    let progs = Prog::all();
    let prog_index = |p: Prog| progs.iter().position(|q| q.name() == p.name()).unwrap_or(0);
    let (mut attach_s, mut echo_s, mut tap_s, mut switch_s, mut exec_s) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (sc, &n) in scens.iter().zip(&frames) {
        let n = n as f64 * 1e-9;
        let p = prog_index(sc.prog);
        attach_s += u.attach_s[p];
        echo_s += n * u.echo_ns;
        tap_s += n * 2.0 * u.tap_ns;
        exec_s += n * u.xdp_ns[p];
        if sc.flows > 1 {
            switch_s += n * u.switch_ns;
        }
    }
    let analysis = scen_sum - (attach_s + echo_s + tap_s + switch_s + exec_s);
    let render = jobs1_s - scen_sum;
    let row = |layer, part: &str, secs: f64| SplitRow {
        layer,
        part: part.to_string(),
        value: secs * 1e3,
    };
    let rows = vec![
        row("xdpsim", "attach: verify + lower, 11 scenarios", attach_s),
        row(
            "netsim",
            "hops there and back + re-send timer: netsim.echo_frame_ns",
            echo_s,
        ),
        row("netsim", "tap, both directions", tap_s),
        row("netsim", "switch there and back (25-flow run)", switch_s),
        row("xdpsim", "VM execution, cost charging, host noise", exec_s),
        row(
            "residual",
            "core.analysis_s: tap pairing, CDFs, jitter, unattributed",
            analysis,
        ),
        row(
            "steelserve",
            "render: run_spec at jobs 1 minus the scenarios",
            render,
        ),
        row(
            "steelpar",
            "jobs-2 fan-out: op_p50 minus run_spec at jobs 1",
            run_s - jobs1_s,
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
        analysis / run_s * 100.0,
        "%",
        "core.analysis_s as a share of op_p50_ms",
    );
    report.metric(
        "core.scenario_sum_s",
        scen_sum,
        "s",
        "11 run_reflection calls, medians of 3, summed",
    );
    report.metric("core.scenario_max_s", scen_max, "s", "the longest scenario");
    report.metric(
        "core.analysis_s",
        analysis,
        "s",
        "residual of core.scenario_sum_s after the per-frame layer costs",
    );
    report.metric(
        "steelpar.efficiency",
        scen_sum / (cfg.jobs as f64 * run_s),
        "ratio",
        format!("core.scenario_sum_s / (jobs {} x op_p50)", cfg.jobs),
    );
    report.metric(
        "steelserve.render_s",
        render,
        "s",
        "run_spec at jobs 1 minus core.scenario_sum_s",
    );
    let n_frames: u64 = frames.iter().sum();
    report.count(
        "xdpsim.frames",
        n_frames,
        "XdpStats.runs over the 11 scenarios",
    );
    report.count("xdpsim.tx", tx, "XdpStats.tx");
    report.count("xdpsim.aborted", aborted, "XdpStats.aborted");
    report.count(
        "netsim.tap_records",
        taps,
        "tap records over the 11 scenarios",
    );
    report.spans = Some(t);
    report
}
