//! `perf` — the hot-path performance trajectory.
//!
//! Micro- and macro-benchmarks of the code the optimization passes
//! target: the transmit/deliver event loop, the event queue under
//! shallow and deep backlogs, tap observation, the fig4-shaped
//! end-to-end reflection scenario, and the `steelpar` scenario fan-out
//! at one worker vs the machine's parallelism. Run with
//! `BENCH_JSON=results/BENCH_perf.json cargo run --release -p
//! steelworks-bench --bin perf` to record a trajectory point;
//! `--samples N` adjusts the per-bench sample count and
//! `--filter <substr>` runs only the rows whose name contains the
//! substring (e.g. `--filter xdpsim` re-runs the VM rows in
//! isolation).

use steelworks_bench::harness::Harness;
use steelworks_core::prelude::*;
use steelworks_netsim::bytes::Bytes;
use steelworks_netsim::event::{EventKind, EventQueue};
use steelworks_netsim::frame::{ethertype, EthFrame, MacAddr};
use steelworks_netsim::node::NodeId;
use steelworks_netsim::prelude::*;
use steelworks_netsim::tap::{Tap, TapDir};
use steelworks_netsim::time::Nanos;
use steelworks_xdpsim::cost::{BlockPlan, CostModel};
use steelworks_xdpsim::prelude::{
    loop_variant, lower, reflect_variant, run_lowered, standard_maps, verify, verify_with_proof,
    LoopVariant, ReflectVariant, XdpContext,
};

fn bench_transmit_deliver(h: &mut Harness) {
    // The loop the netsim hot-path pass targets: frames serialized over
    // a direct link, boxed arrival events, per-frame dispatch.
    h.bench("perf/transmit_deliver/10k_direct", || {
        let mut sim = Simulator::new(1);
        let src = sim.add_node(
            PeriodicSource::new(
                "src",
                MacAddr::local(1),
                MacAddr::local(2),
                46,
                NanoDur::from_micros(1),
            )
            .with_limit(10_000),
        );
        let dst = sim.add_node(CounterSink::new("dst"));
        sim.connect(src, PortId(0), dst, PortId(0), LinkSpec::gigabit());
        sim.run_to_quiescence();
        assert_eq!(sim.trace().counters().delivered, 10_000);
    });
    // Same loop with a tap on the link and a lossy/corrupting fault
    // model: exercises the indexed tap pass and in-place corruption.
    h.bench("perf/transmit_deliver/10k_tapped_faulty", || {
        let mut sim = Simulator::new(1);
        let src = sim.add_node(
            PeriodicSource::new(
                "src",
                MacAddr::local(1),
                MacAddr::local(2),
                200,
                NanoDur::from_micros(1),
            )
            .with_limit(10_000),
        );
        let dst = sim.add_node(CounterSink::new("dst"));
        let link = sim.connect(
            src,
            PortId(0),
            dst,
            PortId(0),
            LinkSpec::gigabit().with_faults(FaultSpec {
                drop_prob: 0.01,
                corrupt_prob: 0.05,
                ..FaultSpec::default()
            }),
        );
        sim.attach_tap(link, Tap::hardware_default());
        sim.run_to_quiescence();
    });
}

fn bench_event_queue(h: &mut Harness) {
    // Steady-state push/pop against a shallow, a deep, and a
    // campus-deep backlog. Each push lands behind every pending event,
    // an in-order FIFO that no figure produces: the binary heap pays
    // O(log pending) here, so these rows grow with the backlog. The
    // rows that track real traffic are the e2e ones below.
    for &pending in &[1_000usize, 100_000, 1_000_000] {
        let mut q = EventQueue::new();
        q.reserve(pending + 1);
        for i in 0..pending {
            q.push(
                Nanos(i as u64),
                EventKind::Timer {
                    node: NodeId(0),
                    token: i as u64,
                },
            );
        }
        let mut t = pending as u64;
        h.bench_inner(format!("perf/event_queue/push_pop_{pending}_pending"), 64, || {
            q.push(
                Nanos(t),
                EventKind::FrameArrival {
                    node: NodeId(0),
                    port: PortId(0),
                    frame: Box::new(EthFrame::new(
                        MacAddr::local(1),
                        MacAddr::local(2),
                        ethertype::SIM_TEST,
                        Bytes::from_static(&[0u8; 46]),
                    )),
                },
            );
            t += 1;
            q.pop()
        });
    }
}

fn bench_tap_observe(h: &mut Harness) {
    let frame = EthFrame::new(
        MacAddr::local(1),
        MacAddr::local(2),
        ethertype::SIM_TEST,
        Bytes::from_static(&[0u8; 46]),
    );
    let mut tap = Tap::hardware_default();
    let mut t = 0u64;
    h.bench_inner("perf/tap/observe", 256, || {
        t += 8;
        tap.observe(Nanos(t), TapDir::AToB, &frame);
        if tap.records().len() >= 65_536 {
            tap.clear();
        }
    });
}

fn bench_fig4_e2e(h: &mut Harness) {
    // The fig4-shaped end-to-end scenario at reduced cycle count: the
    // whole XDP host + link + tap pipeline, as the figure binaries
    // drive it.
    h.bench("perf/e2e/fig4_ts_500_cycles", || {
        run_reflection(&ReflectionConfig {
            variant: ReflectVariant::Ts,
            cycles: 500,
            seed: 0x57EE1,
            ..ReflectionConfig::default()
        })
        .tap_records
    });
    // The same pipeline with a bounded-loop program: every frame pays
    // the verifier-bounded payload scan, so this row tracks the fused
    // per-block cost accounting and the fuel check on the VM hot path.
    h.bench("perf/e2e/fig4_loops", || {
        run_reflection(&ReflectionConfig {
            variant: ReflectVariant::Base,
            loop_variant: Some(LoopVariant::PayloadScan),
            cycles: 500,
            seed: 0x57EE1,
            ..ReflectionConfig::default()
        })
        .tap_records
    });
}

fn bench_verify_loop_corpus(h: &mut Harness) {
    // The interval verifier itself: worklist fixpoint with widening
    // over all three loop programs (back-edges, joins, fuel
    // derivation). Straight-line verification is a subset of this
    // work, so one row covers the analysis cost trajectory.
    let (maps, _rb) = standard_maps();
    h.bench("perf/xdpsim/verify_loop_corpus", move || {
        let mut fuel = 0u64;
        for v in LoopVariant::ALL {
            let stats = verify(&loop_variant(v), &maps)
                // steelcheck: allow(panic-reachable): the corpus is verified in unit tests; a rejection here is a broken build
                .expect("shipped loop program verifies");
            fuel += stats.max_insns;
        }
        fuel
    });
}

fn bench_lower_corpus(h: &mut Harness) {
    // The lowering pass itself (load-time cost): verify-with-proof plus
    // compile for all nine shipped programs.
    let (maps, rb) = standard_maps();
    h.bench("perf/xdpsim/lower_corpus", move || {
        let mut elided = 0usize;
        let progs = LoopVariant::ALL
            .iter()
            .map(|&v| loop_variant(v))
            .chain(ReflectVariant::ALL.iter().map(|&v| reflect_variant(v, rb)));
        for p in progs {
            let (_, proof) = verify_with_proof(&p, &maps)
                // steelcheck: allow(panic-reachable): the corpus is verified in unit tests; a rejection here is a broken build
                .expect("shipped program verifies");
            // steelcheck: allow(panic-reachable): lowering any verified program is covered by the differential oracle
            let lp = lower(&p, &proof).expect("verified program lowers");
            elided += lp.elided_checks();
        }
        elided
    });
}

fn bench_exec_lowered_vs_interp(h: &mut Harness) {
    // The VM hot path in isolation, same program + packet sweep through
    // both engines: the ratio of these two rows is the pure execution
    // speedup of proof-elided lowering, without the host/NIC/netsim
    // layers the e2e rows carry.
    let (maps, _rb) = standard_maps();
    let prog = loop_variant(LoopVariant::PayloadScan);
    let (stats, proof) = verify_with_proof(&prog, &maps)
        // steelcheck: allow(panic-reachable): the corpus is verified in unit tests; a rejection here is a broken build
        .expect("shipped loop program verifies");
    // steelcheck: allow(panic-reachable): lowering any verified program is covered by the differential oracle
    let lp = lower(&prog, &proof).expect("verified program lowers");
    let plan = BlockPlan::new(&prog);
    let cm = CostModel::default();
    let runs = 200u64;
    {
        let (prog, maps, cm, plan) = (prog.clone(), maps.clone(), cm.clone(), plan.clone());
        h.bench("perf/xdpsim/exec_lowered_vs_interp/interp", move || {
            let mut maps = maps.clone();
            let mut rng = SimRng::seed_from_u64(0x1077);
            let mut insns = 0u64;
            for i in 0..runs {
                let mut pkt = vec![0u8; 64];
                pkt[0] = i as u8;
                let r = steelworks_xdpsim::vm::run_with(
                    &prog,
                    Some(&plan),
                    stats.max_insns,
                    &mut pkt,
                    XdpContext::default(),
                    &mut maps,
                    &cm,
                    i,
                    0,
                    &mut rng,
                );
                insns += r.cost.insns;
            }
            insns
        });
    }
    h.bench("perf/xdpsim/exec_lowered_vs_interp/lowered", move || {
        let mut maps = maps.clone();
        let mut rng = SimRng::seed_from_u64(0x1077);
        let mut insns = 0u64;
        for i in 0..runs {
            let mut pkt = vec![0u8; 64];
            pkt[0] = i as u8;
            let r = run_lowered(
                &lp,
                &mut pkt,
                XdpContext::default(),
                &mut maps,
                &cm,
                i,
                0,
                &mut rng,
            );
            insns += r.cost.insns;
        }
        insns
    });
}

fn bench_campus_e2e(h: &mut Harness) {
    // A reduced campus (4 cells × 4 leaves × 64 endpoints ≈ 4k nodes)
    // through the full build/run/audit path: the arena node table and
    // the event queue under thousands of periodic timers, on their
    // intended workload shape.
    h.bench("perf/e2e/fig_campus_4k_nodes", || {
        let cfg = CampusConfig {
            cells: 4,
            leaves_per_cell: 4,
            endpoints_per_leaf: 64,
            period: NanoDur::from_micros(500),
            cycles: 5,
            seed: 0xCA9,
        };
        let r = run_campus(&cfg);
        assert_eq!(r.frames_received, r.frames_sent);
        r.events_processed
    });
}

fn bench_steelpar_fanout(h: &mut Harness) {
    // The fig6-shaped sweep through the scenario runner at one worker
    // vs the machine's parallelism. On a multi-core box the ratio of
    // these two rows is the scenario-level speedup; outputs are
    // byte-identical either way.
    let cfg = StudyConfig::default();
    let grid: Vec<(TopologyKind, usize)> = TopologyKind::ALL
        .iter()
        .flat_map(|&k| cfg.client_counts.iter().map(move |&n| (k, n)))
        .collect();
    let auto = steelpar::resolve_jobs(None);
    for (label, jobs) in [("jobs1", 1usize), ("jobs_auto", auto)] {
        let grid = &grid;
        let cfg = &cfg;
        h.bench(format!("perf/steelpar/fig6_sweep_{label}"), move || {
            steelpar::run(jobs, grid.clone(), |(k, n)| {
                evaluate_point(k, steelworks_mlnet::prelude::MlApp::ALL[0], n, cfg).latency_ms
            })
            .len()
        });
    }
}

fn bench_steelcheck_scan(h: &mut Harness) {
    // The four-layer static-analysis gate over the full workspace:
    // lex + parse every file, build the call graph, then run the
    // reachability BFS and the CFG/dataflow fixpoints. The gate runs
    // on every `check_hermetic.sh` invocation and inside `cargo
    // test`, so its latency is part of the edit-compile-verify loop
    // this trajectory tracks.
    let root = steelcheck::walk::find_workspace_root(std::path::Path::new("."))
        // steelcheck: allow(panic-reachable): dies before any sampling starts; the bench must run from inside the repo
        .expect("workspace root");
    h.bench("perf/steelcheck/workspace_scan", move || {
        // steelcheck: allow(panic-reachable): an unreadable source file is a broken checkout, not a measurement
        let report = steelcheck::run(&root).expect("workspace scan");
        assert_eq!(report.findings.len(), 0, "gate must stay clean");
        report.rust_files
    });
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let samples = args
        .iter()
        .position(|a| a == "--samples")
        .and_then(|i| args.get(i + 1).and_then(|s| s.parse::<usize>().ok()))
        .unwrap_or(20);
    let filter = args
        .iter()
        .position(|a| a == "--filter")
        .and_then(|i| args.get(i + 1).cloned());
    let _ = steelpar::take_jobs_arg(&mut args);
    let mut h = Harness::new("perf").samples(samples).filter(filter);
    bench_transmit_deliver(&mut h);
    bench_event_queue(&mut h);
    bench_tap_observe(&mut h);
    bench_verify_loop_corpus(&mut h);
    bench_lower_corpus(&mut h);
    bench_exec_lowered_vs_interp(&mut h);
    bench_fig4_e2e(&mut h);
    bench_campus_e2e(&mut h);
    bench_steelpar_fanout(&mut h);
    bench_steelcheck_scan(&mut h);
    h.finish();
}
