//! Reusable traffic endpoints: periodic sources, echo reflectors, and
//! counting sinks. Higher crates build protocol-specific devices; these
//! cover tests, calibration and background-load generation.

use crate::bytes::Bytes;
use crate::frame::{ethertype, EthFrame, MacAddr, VlanTag};
use crate::node::{Ctx, Device, PortId};
use crate::stats::BinnedSeries;
use crate::time::{NanoDur, Nanos};

/// Emits one fixed-size frame per interval, optionally jittered and
/// bounded in count — the workhorse load generator.
#[derive(Debug)]
pub struct PeriodicSource {
    name: String,
    /// Destination MAC of generated frames.
    pub dst: MacAddr,
    /// Source MAC of generated frames.
    pub src: MacAddr,
    /// Payload size in bytes.
    pub payload_len: usize,
    /// Inter-frame interval.
    pub interval: NanoDur,
    /// Uniform send jitter in `[0, jitter]` added to each cycle.
    pub jitter: NanoDur,
    /// Stop after this many frames (`None` = run forever).
    pub limit: Option<u64>,
    /// Optional VLAN tag.
    pub vlan: Option<VlanTag>,
    /// Ethertype.
    pub ethertype: u16,
    /// Egress port.
    pub port: PortId,
    /// Delay before the first frame.
    pub start_offset: NanoDur,
    sent: u64,
    running: bool,
}

impl PeriodicSource {
    /// A source sending `payload_len`-byte frames every `interval`.
    pub fn new(
        name: impl Into<String>,
        src: MacAddr,
        dst: MacAddr,
        payload_len: usize,
        interval: NanoDur,
    ) -> Self {
        PeriodicSource {
            name: name.into(),
            dst,
            src,
            payload_len,
            interval,
            jitter: NanoDur::ZERO,
            limit: None,
            vlan: None,
            ethertype: ethertype::SIM_TEST,
            port: PortId(0),
            start_offset: NanoDur::ZERO,
            sent: 0,
            running: true,
        }
    }

    /// Delay the first frame (builder style) — used to phase-stagger
    /// multiple cyclic sources.
    pub fn with_start_offset(mut self, offset: NanoDur) -> Self {
        self.start_offset = offset;
        self
    }

    /// Tag generated frames (builder style).
    pub fn with_vlan(mut self, tag: VlanTag) -> Self {
        self.vlan = Some(tag);
        self
    }

    /// Bound the number of frames (builder style).
    pub fn with_limit(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }

    /// Add uniform send jitter (builder style).
    pub fn with_jitter(mut self, jitter: NanoDur) -> Self {
        self.jitter = jitter;
        self
    }

    /// Frames emitted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Stop generating (takes effect at the next cycle).
    pub fn stop(&mut self) {
        self.running = false;
    }
}

/// Timer used by [`PeriodicSource`]; also reusable by external failure
/// injection: `sim.inject_timer(node, at, STOP_TOKEN)` halts the source.
pub const SOURCE_CYCLE_TOKEN: u64 = 0;
/// Injecting this token stops a [`PeriodicSource`] — crash injection.
pub const SOURCE_STOP_TOKEN: u64 = 0xDEAD;

impl Device for PeriodicSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.timer_in(self.start_offset, SOURCE_CYCLE_TOKEN);
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: EthFrame) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == SOURCE_STOP_TOKEN {
            self.running = false;
            return;
        }
        if token != SOURCE_CYCLE_TOKEN || !self.running {
            return;
        }
        if let Some(limit) = self.limit {
            if self.sent >= limit {
                return;
            }
        }
        let mut f = EthFrame::new(
            self.dst,
            self.src,
            self.ethertype,
            Bytes::from(vec![0u8; self.payload_len]),
        );
        if let Some(tag) = self.vlan {
            f = f.with_vlan(tag);
        }
        ctx.send(self.port, f);
        self.sent += 1;
        let mut next = self.interval;
        if self.jitter.as_nanos() > 0 {
            next += NanoDur(ctx.rng().below(self.jitter.as_nanos() + 1));
        }
        ctx.timer_in(next, SOURCE_CYCLE_TOKEN);
    }
}

/// Emits frames with exponential inter-arrival times — memoryless IT
/// background traffic (requests, telemetry) to contrast with the
/// deterministic cyclic sources of OT.
#[derive(Debug)]
pub struct PoissonSource {
    name: String,
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload size in bytes.
    pub payload_len: usize,
    /// Mean inter-frame gap (1/λ).
    pub mean_gap: NanoDur,
    /// Stop after this many frames (`None` = run forever).
    pub limit: Option<u64>,
    /// Egress port.
    pub port: PortId,
    sent: u64,
}

impl PoissonSource {
    /// A Poisson source with the given mean gap.
    pub fn new(
        name: impl Into<String>,
        src: MacAddr,
        dst: MacAddr,
        payload_len: usize,
        mean_gap: NanoDur,
    ) -> Self {
        PoissonSource {
            name: name.into(),
            dst,
            src,
            payload_len,
            mean_gap,
            limit: None,
            port: PortId(0),
            sent: 0,
        }
    }

    /// Bound the number of frames (builder style).
    pub fn with_limit(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }

    /// Frames emitted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

impl Device for PoissonSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let gap = NanoDur(ctx.rng().exponential(self.mean_gap.as_nanos() as f64) as u64);
        ctx.timer_in(gap, SOURCE_CYCLE_TOKEN);
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: EthFrame) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != SOURCE_CYCLE_TOKEN {
            return;
        }
        if let Some(limit) = self.limit {
            if self.sent >= limit {
                return;
            }
        }
        self.sent += 1;
        let payload = Bytes::from(vec![0u8; self.payload_len]);
        ctx.send(
            self.port,
            EthFrame::new(self.dst, self.src, ethertype::SIM_TEST, payload),
        );
        let gap = NanoDur(ctx.rng().exponential(self.mean_gap.as_nanos() as f64) as u64);
        ctx.timer_in(gap, SOURCE_CYCLE_TOKEN);
    }
}

/// Reflects every received frame back out the ingress port with source
/// and destination swapped, after a fixed turnaround time — a wire-level
/// ping responder used to calibrate reflection baselines.
#[derive(Debug)]
pub struct EchoDevice {
    name: String,
    /// Processing time between full reception and starting the reply.
    pub turnaround: NanoDur,
    reflected: u64,
    pending: Vec<(Nanos, PortId, EthFrame)>,
}

impl EchoDevice {
    /// An echo device with the given turnaround.
    pub fn new(name: impl Into<String>, turnaround: NanoDur) -> Self {
        EchoDevice {
            name: name.into(),
            turnaround,
            reflected: 0,
            pending: Vec::new(),
        }
    }

    /// Frames reflected so far.
    pub fn reflected(&self) -> u64 {
        self.reflected
    }
}

impl Device for EchoDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, mut frame: EthFrame) {
        std::mem::swap(&mut frame.src, &mut frame.dst);
        self.reflected += 1;
        if self.turnaround.as_nanos() == 0 {
            ctx.send(port, frame);
        } else {
            // Defer via self-timer; stash the frame.
            self.pending
                .push((ctx.now() + self.turnaround, port, frame));
            ctx.timer_in(self.turnaround, 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let now = ctx.now();
        let mut rest = Vec::new();
        for (at, port, frame) in self.pending.drain(..) {
            if at <= now {
                ctx.send(port, frame);
            } else {
                rest.push((at, port, frame));
            }
        }
        self.pending = rest;
    }
}

/// Counts and time-stamps every arriving frame; optionally bins arrivals
/// into a [`BinnedSeries`] (Fig. 5's packets-per-50-ms view).
#[derive(Debug)]
pub struct CounterSink {
    name: String,
    arrivals: Vec<Nanos>,
    series: Option<BinnedSeries>,
}

impl CounterSink {
    /// A sink recording raw arrival timestamps.
    pub fn new(name: impl Into<String>) -> Self {
        CounterSink {
            name: name.into(),
            arrivals: Vec::new(),
            series: None,
        }
    }

    /// Also bin arrivals with the given bin width.
    pub fn with_series(mut self, bin: NanoDur) -> Self {
        self.series = Some(BinnedSeries::new(bin));
        self
    }

    /// Number of frames received.
    pub fn count(&self) -> u64 {
        self.arrivals.len() as u64
    }

    /// Raw arrival instants.
    pub fn arrivals(&self) -> &[Nanos] {
        &self.arrivals
    }

    /// Inter-arrival gaps.
    pub fn inter_arrivals(&self) -> Vec<NanoDur> {
        self.arrivals.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The binned series if configured.
    pub fn series(&self) -> Option<&BinnedSeries> {
        self.series.as_ref()
    }
}

impl Device for CounterSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _port: PortId, _frame: EthFrame) {
        self.arrivals.push(ctx.now());
        if let Some(series) = &mut self.series {
            series.record(ctx.now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::sim::Simulator;

    #[test]
    fn periodic_source_paces_frames() {
        let mut sim = Simulator::new(1);
        let src = sim.add_node(
            PeriodicSource::new(
                "src",
                MacAddr::local(1),
                MacAddr::local(2),
                46,
                NanoDur::from_micros(100),
            )
            .with_limit(50),
        );
        let dst = sim.add_node(CounterSink::new("dst"));
        sim.connect(src, PortId(0), dst, PortId(0), LinkSpec::gigabit());
        sim.run_until(Nanos::from_millis(10));
        let sink = sim.node_ref::<CounterSink>(dst);
        assert_eq!(sink.count(), 50);
        for gap in sink.inter_arrivals() {
            assert_eq!(gap, NanoDur::from_micros(100));
        }
    }

    #[test]
    fn jittered_source_varies_gaps() {
        let mut sim = Simulator::new(2);
        let src = sim.add_node(
            PeriodicSource::new(
                "src",
                MacAddr::local(1),
                MacAddr::local(2),
                46,
                NanoDur::from_micros(100),
            )
            .with_limit(100)
            .with_jitter(NanoDur::from_micros(20)),
        );
        let dst = sim.add_node(CounterSink::new("dst"));
        sim.connect(src, PortId(0), dst, PortId(0), LinkSpec::gigabit());
        sim.run_until(Nanos::from_millis(20));
        let gaps = sim.node_ref::<CounterSink>(dst).inter_arrivals();
        let distinct: std::collections::BTreeSet<u64> = gaps.iter().map(|g| g.as_nanos()).collect();
        assert!(
            distinct.len() > 5,
            "jitter produced {} gaps",
            distinct.len()
        );
        for g in &gaps {
            assert!(*g >= NanoDur::from_micros(100));
            assert!(*g <= NanoDur::from_micros(120));
        }
    }

    #[test]
    fn stop_token_halts_source() {
        let mut sim = Simulator::new(3);
        let src = sim.add_node(PeriodicSource::new(
            "src",
            MacAddr::local(1),
            MacAddr::local(2),
            46,
            NanoDur::from_micros(100),
        ));
        let dst = sim.add_node(CounterSink::new("dst"));
        sim.connect(src, PortId(0), dst, PortId(0), LinkSpec::gigabit());
        sim.inject_timer(src, Nanos::from_micros(450), SOURCE_STOP_TOKEN);
        sim.run_until(Nanos::from_millis(5));
        // Frames at t=0,100,200,300,400 then stopped.
        assert_eq!(sim.node_ref::<CounterSink>(dst).count(), 5);
    }

    #[test]
    fn poisson_source_rate_and_variability() {
        let mut sim = Simulator::new(9);
        let src = sim.add_node(
            PoissonSource::new(
                "poisson",
                MacAddr::local(1),
                MacAddr::local(2),
                100,
                NanoDur::from_micros(100),
            )
            .with_limit(2_000),
        );
        let dst = sim.add_node(CounterSink::new("dst"));
        sim.connect(src, PortId(0), dst, PortId(0), LinkSpec::gigabit());
        sim.run_to_quiescence();
        let sink = sim.node_ref::<CounterSink>(dst);
        assert_eq!(sink.count(), 2_000);
        let gaps = sink.inter_arrivals();
        let mean = gaps.iter().map(|g| g.as_nanos() as f64).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 100_000.0).abs() < 8_000.0, "mean gap {mean}");
        // Memoryless arrivals: CV of gaps ≈ 1 (deterministic would be 0).
        let var = gaps
            .iter()
            .map(|g| (g.as_nanos() as f64 - mean).powi(2))
            .sum::<f64>()
            / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 0.8 && cv < 1.2, "cv = {cv}");
    }

    #[test]
    fn echo_reflects_with_turnaround() {
        let mut sim = Simulator::new(4);
        let src = sim.add_node(
            PeriodicSource::new(
                "src",
                MacAddr::local(1),
                MacAddr::local(2),
                46,
                NanoDur::from_micros(50),
            )
            .with_limit(10),
        );
        let echo = sim.add_node(EchoDevice::new("echo", NanoDur::from_micros(5)));
        sim.connect(src, PortId(0), echo, PortId(0), LinkSpec::gigabit());
        sim.run_until(Nanos::from_millis(2));
        assert_eq!(sim.node_ref::<EchoDevice>(echo).reflected(), 10);
        // Source received all reflections back.
        let c = sim.trace().counters();
        assert_eq!(c.delivered, 20);
    }

    #[test]
    fn counter_series_bins() {
        let mut sim = Simulator::new(5);
        let src = sim.add_node(
            PeriodicSource::new(
                "src",
                MacAddr::local(1),
                MacAddr::local(2),
                46,
                NanoDur::from_millis(1),
            )
            .with_limit(100),
        );
        let dst = sim.add_node(CounterSink::new("dst").with_series(NanoDur::from_millis(50)));
        sim.connect(src, PortId(0), dst, PortId(0), LinkSpec::gigabit());
        sim.run_until(Nanos::from_millis(200));
        let sink = sim.node_ref::<CounterSink>(dst);
        let series = sink.series().unwrap();
        assert_eq!(series.total(), 100);
        assert_eq!(series.counts()[0], 50);
        assert_eq!(series.counts()[1], 50);
    }
}
