//! Measurement primitives shared by every workload: order statistics,
//! the in-memory span recorder, peak memory, and the result record a
//! workload fills in.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `values` (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `op_p50_ms` and `ops_per_s` of operations run one after another,
/// from each one's wall seconds.
pub fn serial_ops(times: &[f64], what: &str) -> Vec<Metric> {
    let total: f64 = times.iter().sum();
    vec![
        Metric {
            name: "op_p50_ms",
            value: median(times) * 1e3,
            unit: "ms",
            note: format!("median of {} {what}", times.len()),
        },
        Metric {
            name: "ops_per_s",
            value: times.len() as f64 / total,
            unit: "1/s",
            note: format!("{} {what} / their summed wall time", times.len()),
        },
    ]
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Call `f` until `min_reps` calls have run and `min_secs` have passed;
/// return each call's wall time in seconds.
pub fn repeat_timed(min_reps: usize, min_secs: f64, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

/// One timed call the benchmark made into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.function`, e.g. `xdpsim.verify`.
    pub name: &'static str,
    /// Recording thread (0 for the main thread, 1.. for clients).
    pub thread: u32,
    /// Operation id: spans of one artifact or request share it.
    pub op: u64,
    /// Index of the enclosing span in the merged log.
    pub parent: Option<usize>,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans in memory on one thread; a disabled tracer only runs
/// the closures, so traced and untraced passes share one code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// A tracer for `thread`, timing from `epoch`.
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Does this tracer record spans?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer for another thread of the same run.
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer::new(self.enabled, self.epoch, thread)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for operation `op`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            thread: self.thread,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Run `f` inside a span and also return its wall time in seconds.
    pub fn timed<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let out = self.span(name, op, |_| f());
        (out, t.elapsed().as_secs_f64())
    }

    /// Fold another thread's spans into this log.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Durations in seconds of every span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Span count and summed self time (seconds) per layer.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.layer()).or_default();
            e.0 += 1;
            e.1 += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"thread\":{},\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}\n",
                s.name, s.thread, s.op, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How the value was formed (sample count, deterministic counters).
    pub note: String,
}

/// A row of a traced run's layer split.
#[derive(Clone, Debug)]
pub struct SplitRow {
    /// Layer (`netsim`, `xdpsim`, ...) or `residual`.
    pub layer: &'static str,
    /// What the row covers.
    pub part: String,
    /// Contribution, in the unit of the split's end-to-end metric.
    pub value: f64,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output did not match.
    pub failed: u64,
    /// What the outputs were checked against.
    pub check: String,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Deterministic counters and digests, printed beside the timings.
    pub counters: BTreeMap<String, String>,
    /// Traced runs: the untraced end-to-end metrics measured alongside.
    pub untraced: Vec<Metric>,
    /// Traced runs: the same end-to-end metrics with tracing on.
    pub traced: Vec<Metric>,
    /// Traced runs: each end-to-end number split, its value, and rows.
    pub splits: Vec<(String, f64, Vec<SplitRow>)>,
    /// Traced runs: the spans recorded.
    pub spans: Option<Tracer>,
}

impl Report {
    /// Record one checked operation.
    pub fn checked(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Add a metric.
    pub fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Add a deterministic counter.
    pub fn counter(&mut self, name: &str, value: impl ToString) {
        self.counters.insert(name.to_string(), value.to_string());
    }

    /// Add an exact count, both as a metric and as a deterministic counter.
    pub fn count(&mut self, name: &'static str, value: u64, note: &str) {
        self.metric(name, value as f64, "count", note);
        self.counter(name, value);
    }
}
