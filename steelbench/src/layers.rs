//! Replays of each layer's work through that layer's own public entry
//! points. Each builds its world outside the timed call, so a span
//! covers only the layer's work. [`UnitCosts`] runs all of them; every
//! traced run measures it, whichever layers its workload uses.

use crate::measure::{median, Report, Tracer};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;
use steelserve::cache::ResultCache;
use steelserve::spec::Spec;
use steelworks_netsim::event::{EventKind, EventQueue};
use steelworks_netsim::prelude::*;
use steelworks_xdpsim::prelude::*;

/// Payload bytes of every reflection frame (the workload's frame size).
const PAYLOAD: usize = 50;
/// Cycle time of every reflection flow.
pub const CYCLE: NanoDur = NanoDur(1_000_000);
/// Timers pending in the largest reflection scenario: 25 flows and the
/// host's re-send timer.
pub const REFLECT_TIMERS: usize = 26;
/// Turnaround of the echo baselines. It is non-zero so that the echo
/// re-sends each frame through a self-timer, as an `XdpHost` does for
/// an XDP_TX verdict; an echo baseline then has a reflecting host's
/// event shape without its VM.
const TURNAROUND: NanoDur = NanoDur(5_000);

/// A reflection program under test: name, whether it loops, and a
/// fresh `(program, maps)` pair per attach.
#[derive(Clone, Copy, Debug)]
pub enum Prog {
    /// A straight-line Traffic Reflection variant.
    Straight(ReflectVariant),
    /// A bounded-loop corpus program.
    Loop(LoopVariant),
}

impl Prog {
    /// The 9 programs of the `fig4_loops` artifact.
    pub fn all() -> Vec<Prog> {
        ReflectVariant::ALL
            .iter()
            .map(|&v| Prog::Straight(v))
            .chain(LoopVariant::ALL.iter().map(|&l| Prog::Loop(l)))
            .collect()
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Prog::Straight(v) => v.name(),
            Prog::Loop(l) => l.name(),
        }
    }

    /// Build the program and the maps it runs against.
    pub fn build(self) -> (Program, MapSet) {
        let (maps, rb) = standard_maps();
        let prog = match self {
            Prog::Straight(v) => reflect_variant(v, rb),
            Prog::Loop(l) => loop_variant(l),
        };
        (prog, maps)
    }

    /// Verify and lower: what attaching the program costs.
    pub fn attach(self) -> XdpHost {
        let (prog, maps) = self.build();
        XdpHost::new("bench-host", prog, maps, HostProfile::preempt_rt())
            .expect("the shipped reflection programs verify")
    }
}

fn horizon(cycles: u64) -> Nanos {
    Nanos::ZERO + CYCLE * cycles + NanoDur::from_millis(50)
}

fn source(i: u32, dst: MacAddr, cycles: u64, flows: u32) -> PeriodicSource {
    let phase = NanoDur(CYCLE.as_nanos() * u64::from(i) / u64::from(flows));
    PeriodicSource::new(
        format!("flow{i}"),
        MacAddr::local(0x0200 + i as u16),
        dst,
        PAYLOAD,
        CYCLE,
    )
    .with_limit(cycles)
    .with_start_offset(phase)
}

/// Which netsim path a frame replay exercises.
#[derive(Clone, Copy, Debug)]
pub enum Path {
    /// One source, one link, one counting sink.
    Link,
    /// The same with the Fig. 3 tap on the link.
    Tapped,
    /// One source, one link, an echo device that sends every frame back:
    /// link hops there and back plus the turnaround timer.
    Echo,
    /// `flows` staggered sources through a learning switch to an echo
    /// device and back (so the switch learns its port and forwards
    /// instead of flooding, as it does for the XDP host).
    Switched(u32),
    /// One source feeding an XDP host that reflects every frame.
    Xdp(Prog),
}

/// Build the world for `path` at `cycles` frames per flow, then time
/// running it to the horizon inside a span. Returns seconds and the
/// frames the path carried.
fn frame_replay(
    tracer: &mut Tracer,
    name: &'static str,
    op: u64,
    path: Path,
    cycles: u64,
) -> (f64, u64) {
    let mut sim = Simulator::new(1);
    let sink_mac = MacAddr::local(0x0100);
    let frames = match path {
        Path::Link | Path::Tapped | Path::Echo | Path::Xdp(_) => {
            let src = sim.add_node(source(0, sink_mac, cycles, 1));
            let dst = match path {
                Path::Xdp(p) => sim.add_node(p.attach()),
                Path::Echo => sim.add_node(EchoDevice::new("echo", TURNAROUND)),
                _ => sim.add_node(CounterSink::new("sink")),
            };
            let link = sim.connect(src, PortId(0), dst, PortId(0), LinkSpec::gigabit());
            if matches!(path, Path::Tapped) {
                sim.attach_tap(link, Tap::new(0.5, NanoDur(8)));
            }
            cycles
        }
        Path::Switched(flows) => {
            let sw = sim.add_node(LearningSwitch::new(
                "agg",
                SwitchConfig {
                    ports: flows as usize + 1,
                    forwarding_latency: NanoDur(1_000),
                    queue_capacity: 1024,
                },
            ));
            for i in 0..flows {
                let src = sim.add_node(source(i, sink_mac, cycles, flows));
                sim.connect(src, PortId(0), sw, PortId(i as usize), LinkSpec::gigabit());
            }
            let dst = sim.add_node(EchoDevice::new("echo", TURNAROUND));
            sim.connect(
                sw,
                PortId(flows as usize),
                dst,
                PortId(0),
                LinkSpec::gigabit(),
            );
            cycles * u64::from(flows)
        }
    };
    let (_, secs) = tracer.timed(name, op, || sim.run_until(horizon(cycles)));
    (secs, frames)
}

/// Median nanoseconds per frame over `reps` replays of `path`.
fn frame_ns(tracer: &mut Tracer, name: &'static str, path: Path, cycles: u64, reps: usize) -> f64 {
    let per_frame: Vec<f64> = (0..reps)
        .map(|rep| {
            let (secs, frames) = frame_replay(tracer, name, rep as u64, path, cycles);
            secs * 1e9 / frames as f64
        })
        .collect();
    median(&per_frame)
}

/// `EventQueue` hold model of periodic timers: `pending` timers spread
/// uniformly over one `period_ns`; each operation pops the earliest and
/// re-arms it one period later, as a `PeriodicSource` does. Returns the
/// median nanoseconds per pop+push pair over `reps` batches of `ops`.
fn queue_op_ns(
    tracer: &mut Tracer,
    pending: usize,
    period_ns: u64,
    ops: usize,
    reps: usize,
) -> f64 {
    let mut rng = SimRng::seed_from_u64(0x0E0E);
    let mut q = EventQueue::new();
    q.reserve(pending + 1);
    for i in 0..pending {
        q.push(
            Nanos(rng.below(period_ns)),
            EventKind::Timer {
                node: NodeId(0),
                token: i as u64,
            },
        );
    }
    let per_op: Vec<f64> = (0..reps)
        .map(|rep| {
            let (_, secs) = tracer.timed("netsim.queue_hold", rep as u64, || {
                for _ in 0..ops {
                    let ev = q.pop().expect("the hold model keeps the queue populated");
                    q.push(Nanos(ev.at.0 + period_ns), ev.kind);
                }
            });
            secs * 1e9 / ops as f64
        })
        .collect();
    median(&per_op)
}

/// Median seconds of `f` over `reps` calls, each inside a span.
pub fn span_median<R>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> (f64, Vec<R>) {
    let mut secs = Vec::with_capacity(reps);
    let mut outs = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (out, s) = tracer.timed(name, rep as u64, &mut f);
        secs.push(s);
        outs.push(out);
    }
    (median(&secs), outs)
}

/// Median µs per call of `f` over 200 timed batches, each one span of
/// at least 250 calls: whole passes over `items`.
fn per_call_us<T>(t: &mut Tracer, name: &'static str, items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let passes = (250 / items.len().max(1)).max(1);
    let (_, per_call) = span_median(t, name, 200, || {
        let start = Instant::now();
        for _ in 0..passes {
            items.iter().for_each(&mut f);
        }
        start.elapsed().as_secs_f64() * 1e6 / (passes * items.len()) as f64
    });
    median(&per_call)
}

/// Exact bytes of a request and its response for a body of `req` bytes
/// answered with an artifact of `resp` bytes (the formats of
/// `steelserve::http`).
fn wire_sizes(req: usize, resp: usize) -> [usize; 4] {
    let req_head =
        format!("POST /run HTTP/1.1\r\nHost: steelserve\r\nContent-Length: {req}\r\n\r\n");
    let resp_head = format!(
        "HTTP/1.1 200 OK\r\nContent-Length: {resp}\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: keep-alive\r\nX-Steelserve-Cache: hit\r\n\r\n"
    );
    [req_head.len(), req, resp_head.len(), resp]
}

/// Median loopback round trip (µs) carrying the byte counts of serving
/// `served` between two benchmark-owned sockets, with no server logic.
fn transport_us(t: &mut Tracer, served: &[(Spec, String)], rounds: usize) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let mut rng = SimRng::seed_from_u64(0x7A_0000);
    let plan: Vec<[usize; 4]> = (0..rounds)
        .map(|_| {
            let (spec, art) = &served[rng.below(served.len() as u64) as usize];
            wire_sizes(spec.canonical().len(), art.len())
        })
        .collect();
    let largest = plan
        .iter()
        .map(|s| s.iter().sum::<usize>())
        .max()
        .unwrap_or(0);
    let bytes = vec![b'x'; largest];
    let echo_plan = plan.clone();
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut buf = vec![0u8; largest];
        let out = vec![b'y'; largest];
        for [qh, qb, rh, rb] in echo_plan {
            s.read_exact(&mut buf[..qh + qb])?;
            s.write_all(&out[..rh])?;
            s.write_all(&out[..rb])?;
        }
        Ok(())
    });
    let mut c = TcpStream::connect(addr).expect("connect to the echo socket");
    c.set_nodelay(true).expect("set TCP_NODELAY");
    let mut buf = vec![0u8; largest];
    let mut rtts = Vec::with_capacity(plan.len());
    t.span("transport.echo", 0, |_| {
        for &[qh, qb, rh, rb] in &plan {
            let sent = Instant::now();
            c.write_all(&bytes[..qh]).expect("write request head");
            c.write_all(&bytes[..qb]).expect("write request body");
            c.read_exact(&mut buf[..rh + rb]).expect("read response");
            rtts.push(sent.elapsed().as_nanos() as f64);
        }
    });
    drop(c);
    echo.join().expect("echo thread").expect("echo socket");
    median(&rtts) / 1e3
}

/// Frames per flow of every frame replay (the `reflect` workload's cycles).
const REPLAY_FRAMES: u64 = 10_000;

/// What each layer costs per unit of work, replayed through its public
/// entry points. The result line of every traced run holds every
/// per-layer metric, so each workload measures all of these; only the
/// event queue's timer count and the served specs come from the
/// workload. A change to one layer then moves its unit cost in
/// every workload's trace, and the end-to-end metrics say whether the
/// workload felt it.
pub struct UnitCosts {
    /// `verify` on the 9 programs, seconds (median of 10 sets).
    pub verify_s: f64,
    /// `XdpHost::new` minus `verify` on the same programs, seconds.
    pub lower_s: f64,
    /// Median `XdpHost::new` seconds of each program, `Prog::all()` order.
    pub attach_s: Vec<f64>,
    /// ns per frame: `PeriodicSource` -> `CounterSink` on one link.
    pub link_ns: f64,
    /// ns per frame the Fig. 3 tap adds to `link_ns`.
    pub tap_ns: f64,
    /// ns per frame: source -> `EchoDevice` and back, re-sent from a timer.
    pub echo_ns: f64,
    /// ns per frame 25 staggered flows through a `LearningSwitch` add
    /// to `echo_ns`.
    pub switch_ns: f64,
    /// ns per frame of each program's `XdpHost` beyond `echo_ns`, in
    /// `Prog::all()` order: VM execution, cost charging, host noise.
    pub xdp_ns: Vec<f64>,
    /// ns per `EventQueue` pop+push at the workload's timer count.
    pub queue_ns: f64,
    /// µs per `Spec::parse` of a served request body.
    pub parse_us: f64,
    /// µs per `Spec::key`.
    pub key_us: f64,
    /// µs per `ResultCache::lookup` of a stored key.
    pub lookup_us: f64,
    /// µs per loopback round trip at the served byte counts.
    pub transport_us: f64,
    timers: usize,
    served: usize,
    entries: u64,
}

impl UnitCosts {
    /// Measure every unit cost. The event queue holds `timers` periodic
    /// timers of period `period_ns`; the serve path parses, keys, looks
    /// up and carries `served`, in a scratch cache under `scratch`
    /// whose memo also holds `memo_extra`.
    pub fn measure(
        t: &mut Tracer,
        timers: usize,
        period_ns: u64,
        served: &[(Spec, String)],
        memo_extra: &[Spec],
        scratch: &std::path::Path,
    ) -> UnitCosts {
        // xdpsim: attach cost of each program, verify alone and verify + lower.
        let progs = Prog::all();
        let mut host_new: Vec<Vec<f64>> = vec![Vec::new(); progs.len()];
        let (mut verify_sets, mut new_sets) = (Vec::new(), Vec::new());
        for _ in 0..10 {
            let (mut v_sum, mut n_sum) = (0.0, 0.0);
            for (i, p) in progs.iter().enumerate() {
                let (prog, maps) = p.build();
                let (ok, v) = t.timed("xdpsim.verify", i as u64, || verify(&prog, &maps).is_ok());
                assert!(ok, "{} verifies", p.name());
                let (prog, maps) = p.build();
                let (host, n) = t.timed("xdpsim.host_new", i as u64, || {
                    XdpHost::new("bench-host", prog, maps, HostProfile::preempt_rt())
                });
                assert!(host.is_ok(), "{} attaches", p.name());
                host_new[i].push(n);
                v_sum += v;
                n_sum += n;
            }
            verify_sets.push(v_sum);
            new_sets.push(n_sum);
        }
        let verify_s = median(&verify_sets);

        // netsim and xdpsim per-frame costs. A reflected frame crosses
        // its link twice and is re-sent from a timer, so a host's VM
        // cost is its replay minus an echo baseline of that event shape.
        let n = REPLAY_FRAMES;
        let link_ns = frame_ns(t, "netsim.link_run", Path::Link, n, 5);
        let tap_ns = frame_ns(t, "netsim.tap_run", Path::Tapped, n, 5) - link_ns;
        let echo_ns = frame_ns(t, "netsim.echo_run", Path::Echo, n, 5);
        let switch_ns = frame_ns(t, "netsim.switch_run", Path::Switched(25), n, 3) - echo_ns;
        let xdp_ns = progs
            .iter()
            .map(|&p| frame_ns(t, "xdpsim.host_run", Path::Xdp(p), n, 3) - echo_ns)
            .collect();
        let queue_ns = queue_op_ns(t, timers, period_ns, timers.max(200_000), 5);

        // steelserve: the serve path of the workload's specs.
        let bodies: Vec<String> = served.iter().map(|(s, _)| s.canonical()).collect();
        let parse_us = per_call_us(t, "steelserve.spec_parse", &bodies, |b| {
            std::hint::black_box(Spec::parse(b).expect("served bodies parse"));
        });
        let key_us = per_call_us(t, "steelserve.spec_key", served, |(s, _)| {
            std::hint::black_box(s.key());
        });
        let dir = scratch.join(format!("owned-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("open a benchmark-owned cache");
        for (spec, art) in served {
            cache.store(spec, art).expect("store a served artifact");
        }
        // Lookups never read these values; they only size the memo.
        for spec in memo_extra {
            cache.store(spec, "").expect("store a placeholder entry");
        }
        let keys: Vec<String> = served.iter().map(|(s, _)| s.key()).collect();
        let lookup_us = per_call_us(t, "steelserve.cache_lookup", &keys, |k| {
            std::hint::black_box(cache.lookup(k).expect("stored keys hit"));
        });
        let entries = cache.stats().stores;
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
        let transport_us = transport_us(t, served, 20_000);

        UnitCosts {
            verify_s,
            lower_s: median(&new_sets) - verify_s,
            attach_s: host_new.iter().map(|v| median(v)).collect(),
            link_ns,
            tap_ns,
            echo_ns,
            switch_ns,
            xdp_ns,
            queue_ns,
            parse_us,
            key_us,
            lookup_us,
            transport_us,
            timers,
            served: served.len(),
            entries,
        }
    }

    /// Mean of `xdp_ns` over the loop programs, or over the others.
    fn mean_xdp_ns(&self, looping: bool) -> f64 {
        let v: Vec<f64> = Prog::all()
            .iter()
            .zip(&self.xdp_ns)
            .filter(|(p, _)| matches!(p, Prog::Loop(_)) == looping)
            .map(|(_, x)| *x)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// Add every unit cost to `report` as a per-layer metric.
    pub fn report(&self, report: &mut Report) {
        report.metric(
            "xdpsim.verify_s",
            self.verify_s,
            "s",
            "verify on the 9 programs, median of 10 sets",
        );
        report.metric(
            "xdpsim.lower_s",
            self.lower_s,
            "s",
            "XdpHost::new minus verify, 9 programs",
        );
        report.metric(
            "xdpsim.frame_ns",
            self.mean_xdp_ns(false),
            "ns",
            "source -> XdpHost and back per frame minus netsim.echo_frame_ns, mean of 6 straight-line programs",
        );
        report.metric(
            "xdpsim.loop_frame_ns",
            self.mean_xdp_ns(true),
            "ns",
            "the same, mean of the 3 loop programs",
        );
        report.metric(
            "netsim.frame_ns",
            self.link_ns,
            "ns",
            "PeriodicSource -> CounterSink on one link",
        );
        report.metric(
            "netsim.echo_frame_ns",
            self.echo_ns,
            "ns",
            "PeriodicSource -> EchoDevice (5 us turnaround, re-sent from a timer) and back",
        );
        report.metric(
            "netsim.tap_frame_ns",
            self.tap_ns,
            "ns",
            "the same as netsim.frame_ns with the Fig. 3 tap, minus netsim.frame_ns",
        );
        report.metric(
            "netsim.switch_frame_ns",
            self.switch_ns,
            "ns",
            "25 sources through a LearningSwitch to an EchoDevice and back, minus netsim.echo_frame_ns",
        );
        report.metric(
            "netsim.queue_op_ns",
            self.queue_ns,
            "ns",
            format!("EventQueue pop+push, {} periodic timers", self.timers),
        );
        report.metric(
            "serve.parse_us",
            self.parse_us,
            "us",
            format!("Spec::parse per call over {} request bodies", self.served),
        );
        report.metric("serve.key_us", self.key_us, "us", "Spec::key per call");
        report.metric(
            "serve.lookup_us",
            self.lookup_us,
            "us",
            format!("ResultCache::lookup per call, {} entries", self.entries),
        );
        report.metric(
            "serve.transport_us",
            self.transport_us,
            "us",
            "loopback round trip at the served byte counts, no server logic",
        );
    }
}
