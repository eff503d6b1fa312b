//! `serve_hit` and `serve_churn`: an in-process `steelserve` server on
//! a scratch cache, driven in a closed loop over keep-alive
//! connections, the way `steelserve post` and the hermetic gate call it.

use crate::layers::{UnitCosts, CYCLE, REFLECT_TIMERS};
use crate::measure::{median, peak_rss_mb, Metric, Report, SplitRow, Tracer};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;
use steelserve::cache::ResultCache;
use steelserve::figures::run_spec;
use steelserve::http::{header, Client};
use steelserve::json::Value;
use steelserve::server::{bind, ServerConfig};
use steelserve::sha::sha256_hex;
use steelserve::spec::{sample_mix, Spec};
use steelworks_netsim::rng::SimRng;
use steelworks_netsim::stats::quantile_sorted;

/// Workload shape.
#[derive(Clone, Debug)]
pub struct Config {
    /// Specs drawn from `sample_mix` to warm the cache.
    pub mix: usize,
    /// Client connections, one thread each.
    pub conns: usize,
    /// One request in `miss_every` posts a spec never seen before (0: none).
    pub miss_every: u64,
    /// Seed of the `sample_mix` draw and the request order.
    pub seed: u64,
    /// The server's miss-executor width.
    pub jobs: usize,
    /// Where scratch caches go.
    pub scratch: PathBuf,
}

/// The warm set: distinct specs, their request bodies, and the
/// artifacts `figures::run_spec` gives for them.
struct Warm {
    bodies: Vec<String>,
    keys: Vec<String>,
    specs: Vec<Spec>,
    expected: Vec<String>,
}

fn warm_set(cfg: &Config) -> Warm {
    let mut seen = std::collections::BTreeSet::new();
    let specs: Vec<Spec> = sample_mix(cfg.mix, cfg.seed)
        .into_iter()
        .filter(|s| seen.insert(s.key()))
        .collect();
    Warm {
        bodies: specs.iter().map(Spec::canonical).collect(),
        keys: specs.iter().map(Spec::key).collect(),
        expected: steelpar::run(cfg.jobs, specs.clone(), |s| run_spec(&s, 1)),
        specs,
    }
}

/// Specs never posted before, drawn on demand from a seeded stream.
struct Fresh {
    rng: SimRng,
    seen: std::collections::BTreeSet<String>,
    specs: Vec<Spec>,
}

impl Fresh {
    fn new(seed: u64, warm: &Warm) -> Mutex<Fresh> {
        Mutex::new(Fresh {
            rng: SimRng::seed_from_u64(seed ^ 0xC4_0000),
            seen: warm.keys.iter().cloned().collect(),
            specs: Vec::new(),
        })
    }

    fn next(&mut self) -> (usize, String) {
        loop {
            let draw = self.rng.next_u64() >> 1;
            let spec = sample_mix(1, draw)
                .pop()
                .expect("sample_mix(1) yields one spec");
            if self.seen.insert(spec.key()) {
                let body = spec.canonical();
                self.specs.push(spec);
                return (self.specs.len() - 1, body);
            }
        }
    }
}

/// A server running on its own thread over a scratch cache.
struct Running {
    addr: String,
    handle: JoinHandle<std::io::Result<()>>,
}

fn start(dir: &Path, jobs: usize) -> Running {
    let server = bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        crosscheck_every: 0,
        cache_dir: dir.to_path_buf(),
    })
    .expect("bind a loopback port and open the scratch cache");
    let addr = server.local_addr().to_string();
    Running {
        addr,
        handle: std::thread::spawn(move || server.serve_forever()),
    }
}

/// Read `GET /stats`, shut the server down and wait for it. The cache
/// directory stays, so the next server can start on it.
fn stop(r: Running) -> Option<Value> {
    let mut client = Client::connect(&r.addr);
    let stats = client
        .request("GET", "/stats", b"")
        .ok()
        .and_then(|resp| Value::parse(&String::from_utf8_lossy(&resp.body)).ok());
    let _ = client.request("POST", "/shutdown", b"");
    drop(client);
    let _ = r.handle.join();
    stats
}

/// Is `resp` a 200 with disposition `want`?
fn ok_response(resp: &steelserve::http::Response, want: &str) -> bool {
    resp.status == 200 && header(&resp.headers, "X-Steelserve-Cache") == Some(want)
}

/// Post every warm spec once: each must have disposition `want` and the
/// right body.
fn warm_up(r: &Running, warm: &Warm, want: &str, report: &mut Report) {
    let mut client = Client::connect(&r.addr);
    for (body, expected) in warm.bodies.iter().zip(&warm.expected) {
        let ok = client
            .request("POST", "/run", body.as_bytes())
            .is_ok_and(|resp| ok_response(&resp, want) && resp.body == expected.as_bytes());
        report.checked(ok);
    }
}

/// Timed set-ups (server restarts) per run; `setup_s` is their median.
/// The first half runs before the window and the rest after it: 41
/// set-ups take about a second, and the host's speed drifts in
/// stretches of 10–40 s, so one slow stretch must not hold them all.
const SETUPS: usize = 41;

/// Start a server on the filled cache in `dir` `n` times, timing each
/// set-up (bind, then one warming POST per warm spec, each a hit read
/// from disk) into `setups`. Every server but the last is stopped; the
/// last is returned running.
fn time_setups(
    n: usize,
    dir: &Path,
    cfg: &Config,
    warm: &Warm,
    setups: &mut Vec<f64>,
    report: &mut Report,
) -> Running {
    let mut server = None;
    for _ in 0..n {
        if let Some(s) = server.take() {
            stop(s);
        }
        let t0 = Instant::now();
        let s = start(dir, cfg.jobs);
        warm_up(&s, warm, "hit", report);
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    server.expect("at least one set-up")
}

/// Time slices per window. Latency percentiles and rates are medians
/// over the slices (1 s each at `--seconds 25`), so a host hiccup of a
/// few seconds moves a few slices rather than the reported value.
const SLICES: usize = 25;

/// What the connections saw during the window.
#[derive(Default)]
struct Seen {
    /// Requests completed in each full slice, over connections.
    slice_done: Vec<u64>,
    /// p50 round trip (ns) of each connection's slices, all requests.
    slice_p50: Vec<f64>,
    hits: u64,
    /// Round trip (ns) of every miss.
    misses: Vec<f64>,
    /// `(fresh spec index, body SHA-256)` of each miss, checked after
    /// the window.
    miss_digests: Vec<(usize, String)>,
    attempted: u64,
    failed: u64,
}

impl Seen {
    fn new() -> Seen {
        Seen {
            slice_done: vec![0; SLICES],
            ..Seen::default()
        }
    }

    /// Record the p50 round trip of one connection's slice.
    fn close_slice(&mut self, lat: &mut Vec<f64>) {
        lat.sort_by(f64::total_cmp);
        if let Some(p50) = quantile_sorted(lat, 0.50) {
            self.slice_p50.push(p50);
        }
        lat.clear();
    }
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    cfg: &Config,
    conn: usize,
    addr: &str,
    warm: &Warm,
    fresh: &Mutex<Fresh>,
    start: Instant,
    seconds: f64,
    t: &mut Tracer,
) -> Seen {
    let mut rng = SimRng::seed_from_u64(cfg.seed.wrapping_mul(31).wrapping_add(conn as u64));
    let mut client = Client::connect(addr);
    let mut seen = Seen::new();
    let slice = seconds / SLICES as f64;
    let (mut lat, mut cur) = (Vec::new(), 0);
    let mut op = (conn as u64) << 40;
    while start.elapsed().as_secs_f64() < seconds {
        op += 1;
        let fresh_spec = (cfg.miss_every > 0 && rng.below(cfg.miss_every) == 0).then(|| {
            fresh
                .lock()
                .expect("no client panics holding the fresh-spec stream")
                .next()
        });
        let hit_index = rng.below(warm.bodies.len() as u64) as usize;
        let body = fresh_spec
            .as_ref()
            .map_or(warm.bodies[hit_index].as_bytes(), |(_, b)| b.as_bytes());
        let sent = Instant::now();
        let resp = t.span("steelserve.post_run", op, |_| {
            client.request("POST", "/run", body)
        });
        let ns = sent.elapsed().as_nanos() as f64;
        let s = (start.elapsed().as_secs_f64() / slice) as usize;
        if s != cur {
            seen.close_slice(&mut lat);
            cur = s;
        }
        seen.attempted += 1;
        let ok = match (&resp, &fresh_spec) {
            (Ok(r), None) => ok_response(r, "hit") && r.body == warm.expected[hit_index].as_bytes(),
            (Ok(r), Some(_)) => ok_response(r, "miss"),
            (Err(_), _) => false,
        };
        if !ok {
            seen.failed += 1;
            continue;
        }
        if s < SLICES {
            seen.slice_done[s] += 1;
            lat.push(ns);
        }
        match (resp, fresh_spec) {
            (Ok(r), Some((idx, _))) => {
                seen.misses.push(ns);
                seen.miss_digests.push((idx, sha256_hex(&r.body)));
            }
            _ => seen.hits += 1,
        }
    }
    seen.close_slice(&mut lat);
    seen
}

/// The closed-loop window: `cfg.conns` client threads for `seconds`.
fn window(
    cfg: &Config,
    r: &Running,
    warm: &Warm,
    fresh: &Mutex<Fresh>,
    seconds: f64,
    t: &mut Tracer,
) -> Seen {
    let start = Instant::now();
    let per_conn: Vec<(Seen, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|conn| {
                let mut ct = t.fork(conn as u32 + 1);
                scope.spawn(move || {
                    let seen =
                        client_loop(cfg, conn, &r.addr, warm, fresh, start, seconds, &mut ct);
                    (seen, ct)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Seen::new();
    for (seen, ct) in per_conn {
        t.absorb(ct);
        for i in 0..SLICES {
            all.slice_done[i] += seen.slice_done[i];
        }
        all.slice_p50.extend(seen.slice_p50);
        all.hits += seen.hits;
        all.misses.extend(seen.misses);
        all.miss_digests.extend(seen.miss_digests);
        all.attempted += seen.attempted;
        all.failed += seen.failed;
    }
    all
}

/// The end-to-end numbers of one window.
struct E2e {
    op_p50_ms: f64,
    ops_per_s: f64,
    miss_p50_ms: f64,
    miss_p90_ms: f64,
    hits: u64,
    misses: u64,
}

fn e2e(seen: &Seen, seconds: f64) -> E2e {
    let slice = seconds / SLICES as f64;
    let mut misses = seen.misses.clone();
    misses.sort_by(f64::total_cmp);
    let miss_ms = |q| quantile_sorted(&misses, q).unwrap_or(f64::NAN) / 1e6;
    let per_s: Vec<f64> = seen.slice_done.iter().map(|&n| n as f64 / slice).collect();
    E2e {
        op_p50_ms: median(&seen.slice_p50) / 1e6,
        ops_per_s: median(&per_s),
        miss_p50_ms: miss_ms(0.50),
        miss_p90_ms: miss_ms(0.90),
        hits: seen.hits,
        misses: seen.misses.len() as u64,
    }
}

/// Miss bodies re-rendered and compared per run. Every miss is checked
/// for status and disposition in the window; re-rendering every body
/// too would cost as much CPU again as the misses did in the window, so
/// a seeded sample of this many is checked against `figures::run_spec`.
const MISS_BODY_CHECKS: usize = 256;

/// Check a seeded sample of miss bodies against `figures::run_spec` for
/// their specs. Returns the sampled specs with their artifacts.
fn check_misses(
    cfg: &Config,
    seen: &Seen,
    fresh: &Mutex<Fresh>,
    report: &mut Report,
    t: &mut Tracer,
) -> Vec<(Spec, String)> {
    let mut picks = seen.miss_digests.clone();
    let n = picks.len().min(MISS_BODY_CHECKS);
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x5A_0000);
    // Partial Fisher-Yates: the first `n` picks are a uniform sample.
    for i in 0..n {
        let j = i + rng.below((picks.len() - i) as u64) as usize;
        picks.swap(i, j);
    }
    picks.truncate(n);
    let sample: Vec<Spec> = {
        let stream = fresh.lock().expect("clients have exited");
        picks
            .iter()
            .map(|(idx, _)| stream.specs[*idx].clone())
            .collect()
    };
    let artifacts: Vec<String> = if t.enabled() {
        sample
            .iter()
            .enumerate()
            .map(|(i, s)| t.span("steelserve.run_spec_jobs1", i as u64, |_| run_spec(s, 1)))
            .collect()
    } else {
        steelpar::run(cfg.jobs, sample.clone(), |s| run_spec(&s, 1))
    };
    for ((_, digest), art) in picks.iter().zip(&artifacts) {
        report.checked(sha256_hex(art.as_bytes()) == *digest);
    }
    sample.into_iter().zip(artifacts).collect()
}

fn stats_counters(report: &mut Report, stats: Option<&Value>) {
    for (name, field) in [
        ("serve.requests", "requests"),
        ("serve.hits", "run_hits"),
        ("serve.misses", "run_misses"),
        ("serve.waits", "run_waits"),
        ("serve.errors", "run_errors"),
        ("cache.stores", "cache_stores"),
        ("cache.evictions", "cache_evictions"),
    ] {
        let v = stats
            .and_then(|s| s.get(field))
            .and_then(Value::as_int)
            .unwrap_or(-1);
        report.metric(
            name,
            v as f64,
            "count",
            format!("GET /stats {field} at the end"),
        );
    }
}

/// Run the workload: end-to-end metrics, or with `trace` the layer split.
/// `tamper` replaces the expected artifact of the first warm spec, so
/// a self-test can check that mismatches are counted.
pub fn run(cfg: &Config, seconds: f64, trace: bool, tamper: bool) -> Report {
    let mut report = Report {
        check: format!("correctness: every response is 200 with the expected X-Steelserve-Cache disposition; warming and hit bodies equal figures::run_spec, miss bodies on a seeded sample of {MISS_BODY_CHECKS}"),
        ..Report::default()
    };
    let mut warm = warm_set(cfg);
    if tamper {
        warm.expected[0].push('!');
    }
    report.counter("warm_specs", warm.specs.len());
    report.counter("warm_sha256", sha256_hex(warm.expected.concat().as_bytes()));

    // The cache is filled once, cold: the server computes every warm
    // spec as a miss. Set-up is then timed as a restart on that cache:
    // bind, then warm the memo with one POST per distinct spec, each a hit
    // read from disk. Timing the cold fill instead would time the
    // run_spec cost of whichever specs the seed draws.
    let dir = cfg.scratch.join(format!("cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = start(&dir, cfg.jobs);
    warm_up(&cold, &warm, "miss", &mut report);
    stop(cold);
    let mut setups = Vec::with_capacity(SETUPS);
    let server = time_setups(SETUPS / 2, &dir, cfg, &warm, &mut setups, &mut report);
    let fresh = Fresh::new(cfg.seed, &warm);

    let seconds_each = if trace { seconds / 2.0 } else { seconds };
    let seen = window(
        cfg,
        &server,
        &warm,
        &fresh,
        seconds_each,
        &mut Tracer::off(),
    );
    let mut t = Tracer::new(trace, Instant::now(), 0);
    let traced = trace.then(|| window(cfg, &server, &warm, &fresh, seconds_each, &mut t));
    let stats = stop(server);
    let last = time_setups(
        SETUPS - SETUPS / 2,
        &dir,
        cfg,
        &warm,
        &mut setups,
        &mut report,
    );
    stop(last);
    let _ = std::fs::remove_dir_all(&dir);
    let setup = Metric {
        name: "setup_s",
        value: median(&setups),
        unit: "s",
        note: format!(
            "median of {SETUPS} set-ups, half before the window and half after: bind on the filled cache + {} warming POSTs",
            warm.specs.len()
        ),
    };
    let untraced = e2e(&seen, seconds_each);
    report.attempted += seen.attempted;
    report.failed += seen.failed;
    let mut all_misses = seen;
    if let Some(tseen) = &traced {
        report.attempted += tseen.attempted;
        report.failed += tseen.failed;
        all_misses
            .miss_digests
            .extend(tseen.miss_digests.iter().cloned());
    }
    let fresh_artifacts = check_misses(cfg, &all_misses, &fresh, &mut report, &mut t);

    let churn = cfg.miss_every > 0;
    let e2e_metrics = |m: &E2e| {
        vec![
            Metric {
                name: "op_p50_ms",
                value: m.op_p50_ms,
                unit: "ms",
                note: format!(
                    "{} hits, {} misses; median over {SLICES} slices of each connection's p50",
                    m.hits, m.misses
                ),
            },
            Metric {
                name: "ops_per_s",
                value: m.ops_per_s,
                unit: "1/s",
                note: format!(
                    "completed requests, median over {SLICES} slices, {} connections, closed loop",
                    cfg.conns
                ),
            },
        ]
    };
    let miss_metrics = |m: &E2e| {
        let note = format!("{} misses over the whole window", m.misses);
        [
            ("miss_p50_ms", m.miss_p50_ms),
            ("miss_p90_ms", m.miss_p90_ms),
        ]
        .map(|(name, value)| Metric {
            name,
            value,
            unit: "ms",
            note: note.clone(),
        })
    };

    if !trace {
        report.metrics.push(setup);
        report.metrics.extend(e2e_metrics(&untraced));
        report.metric(
            "peak_rss_mb",
            peak_rss_mb(),
            "MB",
            "VmHWM at the end of the run",
        );
        if churn {
            report.metrics.extend(miss_metrics(&untraced));
        }
        return report;
    }
    let tseen = traced.expect("traced window ran");
    let traced_e2e = e2e(&tseen, seconds_each);
    report.untraced = vec![setup];
    report.untraced.extend(e2e_metrics(&untraced));
    report.traced = e2e_metrics(&traced_e2e);

    // Layer replays on benchmark-owned objects: the serve path of every
    // warm spec and sampled fresh spec, with the memo at the run's final
    // entry count. Unsampled miss bodies were not kept.
    let mut served: Vec<(Spec, String)> = warm
        .specs
        .iter()
        .cloned()
        .zip(warm.expected.iter().cloned())
        .collect();
    served.extend(fresh_artifacts.iter().cloned());
    let sampled: std::collections::BTreeSet<String> =
        fresh_artifacts.iter().map(|(s, _)| s.key()).collect();
    let unsampled: Vec<Spec> = {
        let stream = fresh.lock().expect("clients have exited");
        stream
            .specs
            .iter()
            .filter(|s| !sampled.contains(&s.key()))
            .cloned()
            .collect()
    };
    // Only misses simulate here, small fig4 and campus specs among
    // others; the queue replay takes the reflection workload's shape.
    let u = UnitCosts::measure(
        &mut t,
        REFLECT_TIMERS,
        CYCLE.as_nanos(),
        &served,
        &unsampled,
        &cfg.scratch,
    );
    let op_us = untraced.op_p50_ms * 1e3;
    let hit_residual = op_us - (u.parse_us + u.key_us + u.lookup_us + u.transport_us);
    let row = |layer, part: &str, value| SplitRow {
        layer,
        part: part.to_string(),
        value,
    };
    report.splits.push((
        "op_p50_ms (us per request; the median request is a hit)".to_string(),
        op_us,
        vec![
            row("steelserve", "Spec::parse", u.parse_us),
            row("steelserve", "Spec::key", u.key_us),
            row("steelserve", "ResultCache::lookup", u.lookup_us),
            row("transport", "loopback round trip", u.transport_us),
            row(
                "residual",
                "framing, connection thread, stats mutex",
                hit_residual,
            ),
        ],
    ));
    u.report(&mut report);
    report.metric(
        "trace.overhead_pct",
        (traced_e2e.op_p50_ms - untraced.op_p50_ms) / untraced.op_p50_ms * 100.0,
        "%",
        "traced op_p50_ms vs untraced",
    );
    report.metric(
        "split.residual_pct",
        hit_residual / op_us * 100.0,
        "%",
        "residual as a share of op_p50_ms",
    );
    report.metric(
        "serve.hit_residual_us",
        hit_residual,
        "us",
        "op_p50_ms - (parse + key + lookup + transport)",
    );
    if churn {
        report.metrics.extend(miss_metrics(&untraced));
        let store_dir = cfg.scratch.join(format!("store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let cache = ResultCache::open(&store_dir).expect("open a benchmark-owned cache");
        let (_, store_s) = t.timed("steelserve.cache_store", 0, || {
            for (s, a) in &fresh_artifacts {
                cache.store(s, a).expect("store a fresh artifact");
            }
        });
        drop(cache);
        let _ = std::fs::remove_dir_all(&store_dir);
        let store_us = store_s * 1e6 / fresh_artifacts.len().max(1) as f64;
        let run_spec_ms = median(&t.durations("steelserve.run_spec_jobs1")) * 1e3;
        let miss_residual = untraced.miss_p50_ms
            - (u.parse_us + u.key_us + store_us + u.transport_us) / 1e3
            - run_spec_ms;
        report.metric(
            "serve.run_spec_ms",
            run_spec_ms,
            "ms",
            format!(
                "figures::run_spec at jobs 1, median over {} sampled fresh specs",
                fresh_artifacts.len()
            ),
        );
        report.metric(
            "serve.store_us",
            store_us,
            "us",
            "ResultCache::store per fresh artifact into a scratch directory",
        );
        report.metric(
            "serve.miss_residual_ms",
            miss_residual,
            "ms",
            "miss_p50_ms - (parse + key + run_spec + store + transport)",
        );
        report.splits.push((
            "miss_p50_ms (ms per miss)".to_string(),
            untraced.miss_p50_ms,
            vec![
                row(
                    "steelserve",
                    "Spec::parse + Spec::key",
                    (u.parse_us + u.key_us) / 1e3,
                ),
                row(
                    "steelserve",
                    "figures::run_spec at jobs 1 (median)",
                    run_spec_ms,
                ),
                row("steelserve", "ResultCache::store", store_us / 1e3),
                row("transport", "loopback round trip", u.transport_us / 1e3),
                row(
                    "residual",
                    "executor hand-off, in-flight dedup, framing",
                    miss_residual,
                ),
            ],
        ));
    }
    stats_counters(&mut report, stats.as_ref());
    report.spans = Some(t);
    report
}
