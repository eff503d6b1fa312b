//! The declarative scenario-spec format.
//!
//! A spec is a small JSON object naming a figure and its parameters —
//! the whole experiment as data. Every figure the repo publishes
//! (`results/*.txt`) is expressible as a spec; the shipped defaults
//! live in `specs/*.json` and regenerate the committed outputs
//! byte-for-byte, whether run through the figure binaries or through a
//! `steelserve` instance.
//!
//! Three forms of one spec:
//!
//! - **authored** — whatever the user wrote. Missing parameters take
//!   figure defaults; unknown keys are rejected (a typo'd knob must not
//!   silently run the default experiment).
//! - **canonical** — [`Spec::canonical`]: compact JSON, sorted keys,
//!   every parameter explicit. Structurally equal specs have equal
//!   canonical bytes, so the canonical form is what gets hashed.
//! - **content address** — [`Spec::key`]: SHA-256 of the canonical
//!   bytes. Determinism makes the result cache infinitely valid:
//!   `hash(spec) → bytes`, forever.
//!
//! Numbers are integers only (see [`crate::json`]); fractional knobs
//! scale their unit (`accuracy_pct`, `period_us`).

use crate::json::Value;
use crate::sha::sha256_hex;
use std::collections::BTreeMap;
use std::fmt;
use steelworks_core::campus::CampusConfig;
use steelworks_netsim::time::NanoDur;

/// The standard figure seed (`steelworks_bench::FIGURE_SEED`).
pub const FIGURE_SEED: u64 = 0x57EE1;

/// Names of every figure a spec can express, in `results/` order.
pub const FIGURES: &[&str] = &["challenges", "fig1", "fig4", "fig5", "fig6", "fig_campus"];

/// One campus scale point (a row of `fig_campus`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampusScale {
    /// Display label (`small`, `mid`, `campus`, ...).
    pub name: String,
    /// Production cells on the backbone ring.
    pub cells: u64,
    /// Leaf switches per cell.
    pub leaves_per_cell: u64,
    /// Endpoints per leaf (even, ≥ 8).
    pub endpoints_per_leaf: u64,
    /// Cyclic send period, microseconds.
    pub period_us: u64,
    /// Frames per source.
    pub cycles: u64,
    /// World seed.
    pub seed: u64,
}

impl CampusScale {
    /// The campus world this scale builds.
    pub fn config(&self) -> CampusConfig {
        CampusConfig {
            cells: self.cells as usize,
            leaves_per_cell: self.leaves_per_cell as usize,
            endpoints_per_leaf: self.endpoints_per_leaf as usize,
            period: NanoDur::from_micros(self.period_us),
            cycles: self.cycles,
            seed: self.seed,
        }
    }
}

/// A parsed, validated scenario spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Spec {
    /// Fig. 1 — term occurrences over the calibrated synthetic corpus.
    Fig1 {
        /// Papers to synthesize.
        papers: u64,
        /// Corpus seed.
        seed: u64,
    },
    /// Fig. 4 — Traffic Reflection delay/jitter CDFs.
    Fig4 {
        /// Cycles per flow.
        cycles: u64,
        /// Simulation seed.
        seed: u64,
        /// Include the bounded-loop program corpus (0 = off, 1 = on).
        /// Additive: 0 reproduces the pre-corpus artifact byte-for-byte.
        loops: u64,
    },
    /// Fig. 5 — InstaPLC switchover + planned-migration companion.
    Fig5 {
        /// Scenario seed.
        seed: u64,
        /// Primary vPLC crash instant, milliseconds.
        crash_at_ms: u64,
        /// Planned-migration instant, milliseconds.
        migrate_at_ms: u64,
        /// Planned failback instant, milliseconds.
        failback_at_ms: u64,
    },
    /// Fig. 6 — ML-aware topology study.
    Fig6 {
        /// Accuracy target, percent (90 ⇒ 0.90).
        accuracy_pct: u64,
        /// Client counts to sweep.
        client_counts: Vec<u64>,
    },
    /// §2 challenge numbers.
    Challenges {
        /// Monte-Carlo trials per estimate.
        trials: u64,
    },
    /// fig_campus — the campus scaling study.
    Campus {
        /// Scale points, printed in order.
        scales: Vec<CampusScale>,
    },
}

/// A spec-layer error (parse, unknown figure/key, out-of-range value).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// Human-readable description.
    pub msg: String,
}

impl SpecError {
    fn new(msg: impl Into<String>) -> SpecError {
        SpecError { msg: msg.into() }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error: {}", self.msg)
    }
}

impl std::error::Error for SpecError {}

/// Pull an integer field (with bounds) out of an object, falling back
/// to `default` when absent.
fn field_u64(
    obj: &BTreeMap<String, Value>,
    key: &str,
    default: u64,
    lo: u64,
    hi: u64,
) -> Result<u64, SpecError> {
    let v = match obj.get(key) {
        None => return Ok(default),
        Some(v) => v
            .as_int()
            .ok_or_else(|| SpecError::new(format!("`{key}` must be an integer")))?,
    };
    let v = u64::try_from(v).map_err(|_| SpecError::new(format!("`{key}` must be >= 0")))?;
    if v < lo || v > hi {
        return Err(SpecError::new(format!(
            "`{key}` = {v} is outside the accepted range {lo}..={hi}"
        )));
    }
    Ok(v)
}

/// Reject keys the figure does not understand: a typo'd parameter must
/// fail loudly, not silently run the default experiment.
fn reject_unknown(
    obj: &BTreeMap<String, Value>,
    figure: &str,
    known: &[&str],
) -> Result<(), SpecError> {
    for key in obj.keys() {
        if key != "figure" && !known.contains(&key.as_str()) {
            // steelcheck: allow(hot-path-alloc): error path, spec validation aborts here
            return Err(SpecError::new(format!(
                "unknown key `{key}` for figure `{figure}` (accepted: {})",
                known.join(", ")
            )));
        }
    }
    Ok(())
}

impl Spec {
    /// The figure defaults — exactly the configuration the committed
    /// `results/<figure>.txt` was generated with.
    pub fn default_for(figure: &str) -> Option<Spec> {
        match figure {
            "fig1" => Some(Spec::Fig1 {
                papers: 160,
                seed: FIGURE_SEED,
            }),
            "fig4" => Some(Spec::Fig4 {
                cycles: 10_000,
                seed: FIGURE_SEED,
                loops: 0,
            }),
            "fig5" => Some(Spec::Fig5 {
                seed: 0x1A57,
                crash_at_ms: 1_200,
                migrate_at_ms: 1_000,
                failback_at_ms: 2_000,
            }),
            "fig6" => Some(Spec::Fig6 {
                accuracy_pct: 90,
                client_counts: vec![32, 64, 128, 256],
            }),
            "challenges" => Some(Spec::Challenges { trials: 5_000 }),
            "fig_campus" => Some(Spec::Campus {
                scales: default_campus_scales(),
            }),
            _ => None,
        }
    }

    /// The figure this spec drives.
    pub fn figure(&self) -> &'static str {
        match self {
            Spec::Fig1 { .. } => "fig1",
            Spec::Fig4 { .. } => "fig4",
            Spec::Fig5 { .. } => "fig5",
            Spec::Fig6 { .. } => "fig6",
            Spec::Challenges { .. } => "challenges",
            Spec::Campus { .. } => "fig_campus",
        }
    }

    /// Parse and validate a spec document.
    pub fn parse(text: &str) -> Result<Spec, SpecError> {
        let value = Value::parse(text).map_err(|e| SpecError::new(e.to_string()))?;
        Spec::from_value(&value)
    }

    /// Build a spec from a parsed JSON value. Missing parameters take
    /// figure defaults; unknown keys and out-of-range values error.
    /// The ranges bound what a served request may ask a worker to
    /// simulate — a spec is untrusted input once a server listens.
    pub fn from_value(value: &Value) -> Result<Spec, SpecError> {
        let obj = value
            .as_obj()
            .ok_or_else(|| SpecError::new("spec must be a JSON object"))?;
        let figure = obj
            .get("figure")
            .and_then(Value::as_str)
            .ok_or_else(|| SpecError::new("spec needs a string `figure` field"))?;
        match figure {
            "fig1" => {
                reject_unknown(obj, figure, &["papers", "seed"])?;
                Ok(Spec::Fig1 {
                    papers: field_u64(obj, "papers", 160, 1, 10_000)?,
                    seed: field_u64(obj, "seed", FIGURE_SEED, 0, i64::MAX as u64)?,
                })
            }
            "fig4" => {
                reject_unknown(obj, figure, &["cycles", "seed", "loops"])?;
                Ok(Spec::Fig4 {
                    cycles: field_u64(obj, "cycles", 10_000, 1, 1_000_000)?,
                    seed: field_u64(obj, "seed", FIGURE_SEED, 0, i64::MAX as u64)?,
                    loops: field_u64(obj, "loops", 0, 0, 1)?,
                })
            }
            "fig5" => {
                reject_unknown(
                    obj,
                    figure,
                    &["seed", "crash_at_ms", "migrate_at_ms", "failback_at_ms"],
                )?;
                Ok(Spec::Fig5 {
                    seed: field_u64(obj, "seed", 0x1A57, 0, i64::MAX as u64)?,
                    // The shape checks slice series around the crash
                    // bin, so the crash must fall well inside the 3 s
                    // scenario: bins exist up to 2 950 ms and the
                    // pre-crash window needs bins 5..crash-1.
                    crash_at_ms: field_u64(obj, "crash_at_ms", 1_200, 400, 2_800)?,
                    migrate_at_ms: field_u64(obj, "migrate_at_ms", 1_000, 100, 2_500)?,
                    failback_at_ms: field_u64(obj, "failback_at_ms", 2_000, 200, 2_900)?,
                })
            }
            "fig6" => {
                reject_unknown(obj, figure, &["accuracy_pct", "client_counts"])?;
                let counts = match obj.get("client_counts") {
                    None => vec![32, 64, 128, 256],
                    Some(v) => {
                        let arr = v.as_arr().ok_or_else(|| {
                            SpecError::new("`client_counts` must be an array of integers")
                        })?;
                        if arr.is_empty() || arr.len() > 16 {
                            return Err(SpecError::new("`client_counts` needs 1..=16 entries"));
                        }
                        let mut out = Vec::with_capacity(arr.len());
                        for v in arr {
                            let n = v.as_int().filter(|&n| (1..=4_096).contains(&n)).ok_or_else(
                                || SpecError::new("each client count must be in 1..=4096"),
                            )?;
                            out.push(n as u64);
                        }
                        out
                    }
                };
                Ok(Spec::Fig6 {
                    accuracy_pct: field_u64(obj, "accuracy_pct", 90, 1, 100)?,
                    client_counts: counts,
                })
            }
            "challenges" => {
                reject_unknown(obj, figure, &["trials"])?;
                Ok(Spec::Challenges {
                    trials: field_u64(obj, "trials", 5_000, 10, 1_000_000)?,
                })
            }
            "fig_campus" => {
                reject_unknown(obj, figure, &["scales"])?;
                let scales = match obj.get("scales") {
                    None => default_campus_scales(),
                    Some(v) => {
                        let arr = v
                            .as_arr()
                            .ok_or_else(|| SpecError::new("`scales` must be an array"))?;
                        if arr.is_empty() || arr.len() > 8 {
                            return Err(SpecError::new("`scales` needs 1..=8 entries"));
                        }
                        let mut out = Vec::with_capacity(arr.len());
                        for v in arr {
                            out.push(parse_scale(v)?);
                        }
                        out
                    }
                };
                Ok(Spec::Campus { scales })
            }
            other => Err(SpecError::new(format!(
                "unknown figure `{other}` (one of: {})",
                FIGURES.join(", ")
            ))),
        }
    }

    /// Render as a JSON value with every parameter explicit.
    pub fn to_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("figure".into(), Value::Str(self.figure().into()));
        let int = |n: u64| Value::Int(n as i64);
        match self {
            Spec::Fig1 { papers, seed } => {
                obj.insert("papers".into(), int(*papers));
                obj.insert("seed".into(), int(*seed));
            }
            Spec::Fig4 {
                cycles,
                seed,
                loops,
            } => {
                obj.insert("cycles".into(), int(*cycles));
                obj.insert("seed".into(), int(*seed));
                // Omitted at 0: the default canonical bytes — and with
                // them every cached content address — stay exactly what
                // they were before the loop corpus existed.
                if *loops != 0 {
                    obj.insert("loops".into(), int(*loops));
                }
            }
            Spec::Fig5 {
                seed,
                crash_at_ms,
                migrate_at_ms,
                failback_at_ms,
            } => {
                obj.insert("seed".into(), int(*seed));
                obj.insert("crash_at_ms".into(), int(*crash_at_ms));
                obj.insert("migrate_at_ms".into(), int(*migrate_at_ms));
                obj.insert("failback_at_ms".into(), int(*failback_at_ms));
            }
            Spec::Fig6 {
                accuracy_pct,
                client_counts,
            } => {
                obj.insert("accuracy_pct".into(), int(*accuracy_pct));
                obj.insert(
                    "client_counts".into(),
                    Value::Arr(client_counts.iter().map(|&n| int(n)).collect()),
                );
            }
            Spec::Challenges { trials } => {
                obj.insert("trials".into(), int(*trials));
            }
            Spec::Campus { scales } => {
                let items = scales
                    .iter()
                    .map(|s| {
                        let mut m = BTreeMap::new();
                        m.insert("name".into(), Value::Str(s.name.clone()));
                        m.insert("cells".into(), int(s.cells));
                        m.insert("leaves_per_cell".into(), int(s.leaves_per_cell));
                        m.insert("endpoints_per_leaf".into(), int(s.endpoints_per_leaf));
                        m.insert("period_us".into(), int(s.period_us));
                        m.insert("cycles".into(), int(s.cycles));
                        m.insert("seed".into(), int(s.seed));
                        Value::Obj(m)
                    })
                    .collect();
                obj.insert("scales".into(), Value::Arr(items));
            }
        }
        Value::Obj(obj)
    }

    /// Canonical bytes: compact JSON, sorted keys, defaults explicit.
    pub fn canonical(&self) -> String {
        self.to_value().compact()
    }

    /// Human-oriented rendering (the `specs/*.json` on-disk form).
    pub fn pretty(&self) -> String {
        self.to_value().pretty()
    }

    /// The content address: SHA-256 of the canonical bytes, lowercase
    /// hex. Two specs share a key iff they describe the same scenario.
    pub fn key(&self) -> String {
        sha256_hex(self.canonical().as_bytes())
    }
}

/// The three committed `fig_campus` scale points (small / mid / campus,
/// matching `CampusConfig::{small,mid,large}`).
fn default_campus_scales() -> Vec<CampusScale> {
    vec![
        CampusScale {
            name: "small".into(),
            cells: 2,
            leaves_per_cell: 2,
            endpoints_per_leaf: 8,
            period_us: 100,
            cycles: 20,
            seed: 0xCA1,
        },
        CampusScale {
            name: "mid".into(),
            cells: 8,
            leaves_per_cell: 8,
            endpoints_per_leaf: 156,
            period_us: 1_000,
            cycles: 10,
            seed: 0xCA2,
        },
        CampusScale {
            name: "campus".into(),
            cells: 16,
            leaves_per_cell: 16,
            endpoints_per_leaf: 392,
            period_us: 1_000,
            cycles: 10,
            seed: 0xCA3,
        },
    ]
}

/// Largest campus world one scale may build, in nodes. The per-field
/// ranges alone allow 64 × 64 × 1,024, a world of 4.2M nodes and
/// several GB; this leaves room for a 10⁶-node row (about 1.2 GB).
const MAX_CAMPUS_NODES: usize = 1 << 20;

fn parse_scale(value: &Value) -> Result<CampusScale, SpecError> {
    let obj = value
        .as_obj()
        .ok_or_else(|| SpecError::new("each scale must be an object"))?;
    for key in obj.keys() {
        if !matches!(
            key.as_str(),
            "name" | "cells" | "leaves_per_cell" | "endpoints_per_leaf" | "period_us" | "cycles"
                | "seed"
        ) {
            // steelcheck: allow(hot-path-alloc): error path, spec validation aborts here
            return Err(SpecError::new(format!("unknown scale key `{key}`")));
        }
    }
    let name = obj
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| SpecError::new("each scale needs a string `name`"))?;
    if name.is_empty() || name.len() > 24 || !name.chars().all(|c| c.is_ascii_graphic()) {
        return Err(SpecError::new(
            "scale `name` must be 1..=24 printable ASCII characters",
        ));
    }
    let endpoints = field_u64(obj, "endpoints_per_leaf", 8, 8, 1_024)?;
    if endpoints % 2 != 0 {
        return Err(SpecError::new("`endpoints_per_leaf` must be even"));
    }
    let scale = CampusScale {
        name: name.to_string(),
        cells: field_u64(obj, "cells", 2, 2, 64)?,
        leaves_per_cell: field_u64(obj, "leaves_per_cell", 2, 2, 64)?,
        endpoints_per_leaf: endpoints,
        period_us: field_u64(obj, "period_us", 100, 10, 1_000_000)?,
        cycles: field_u64(obj, "cycles", 10, 1, 1_000)?,
        seed: field_u64(obj, "seed", 0xCA1, 0, i64::MAX as u64)?,
    };
    let nodes = scale.config().node_count();
    if nodes > MAX_CAMPUS_NODES {
        return Err(SpecError::new(format!(
            "scale `{name}` is a world of {nodes} nodes; at most {MAX_CAMPUS_NODES} are allowed"
        )));
    }
    Ok(scale)
}

/// A seeded mix of cheap, distinct scenario specs for the closed-loop
/// load generator: every figure kind is represented, parameters stay
/// small enough that a cold miss completes in milliseconds, and the
/// draw is a pure function of `(count, seed)` so a load run is
/// reproducible request-for-request.
pub fn sample_mix(count: usize, seed: u64) -> Vec<Spec> {
    let mut rng = steelworks_netsim::rng::SimRng::seed_from_u64(seed);
    // Seeds stay in 0..=i64::MAX so they survive the integer-only JSON
    // wire format (see `crate::json`).
    let draw_seed = |rng: &mut steelworks_netsim::rng::SimRng| rng.next_u64() >> 1;
    (0..count)
        .map(|i| match rng.below(5) {
            0 => Spec::Fig4 {
                cycles: rng.range(20, 60),
                seed: draw_seed(&mut rng),
                loops: 0,
            },
            1 => Spec::Fig1 {
                papers: rng.range(4, 12),
                seed: draw_seed(&mut rng),
            },
            2 => Spec::Challenges {
                trials: rng.range(200, 5_000),
            },
            3 => Spec::Fig6 {
                accuracy_pct: rng.range(80, 96),
                client_counts: vec![32, rng.range(48, 200)],
            },
            _ => Spec::Campus {
                scales: vec![CampusScale {
                    name: format!("load{i}"),
                    cells: 2,
                    leaves_per_cell: 2,
                    endpoints_per_leaf: 8,
                    period_us: 100,
                    cycles: rng.range(2, 8),
                    seed: draw_seed(&mut rng),
                }],
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_has_a_default() {
        for fig in FIGURES {
            let spec = Spec::default_for(fig).expect(fig);
            assert_eq!(spec.figure(), *fig);
            // The default round-trips through its own canonical form.
            let back = Spec::parse(&spec.canonical()).expect(fig);
            assert_eq!(back, spec);
            let back = Spec::parse(&spec.pretty()).expect(fig);
            assert_eq!(back, spec);
        }
        assert!(Spec::default_for("fig9").is_none());
    }

    #[test]
    fn minimal_spec_fills_defaults() {
        let spec = Spec::parse(r#"{"figure": "fig4"}"#).expect("minimal");
        assert_eq!(spec, Spec::default_for("fig4").expect("default"));
        // ... and its canonical form materializes every parameter.
        assert_eq!(
            spec.canonical(),
            r#"{"cycles":10000,"figure":"fig4","seed":360161}"#
        );
    }

    #[test]
    fn fig4_loops_field_is_additive() {
        // loops: 1 round-trips, is materialized in the canonical form,
        // and yields a different cache address.
        let on = Spec::parse(r#"{"figure": "fig4", "loops": 1}"#).expect("loops on");
        assert_eq!(
            on.canonical(),
            r#"{"cycles":10000,"figure":"fig4","loops":1,"seed":360161}"#
        );
        assert_eq!(Spec::parse(&on.canonical()).expect("round-trip"), on);
        // loops: 0 is the default and stays OUT of the canonical form,
        // so pre-corpus specs keep their exact bytes and cache keys.
        let off = Spec::parse(r#"{"figure": "fig4", "loops": 0}"#).expect("loops off");
        assert_eq!(off, Spec::default_for("fig4").expect("default"));
        assert_ne!(on.key(), off.key());
        // Out-of-range values are rejected.
        assert!(Spec::parse(r#"{"figure": "fig4", "loops": 2}"#).is_err());
    }

    #[test]
    fn key_is_whitespace_and_order_insensitive() {
        let a = Spec::parse(r#"{"figure":"fig4","cycles":10000,"seed":359137}"#).expect("a");
        let b = Spec::parse("{\n  \"seed\": 359137,\n  \"figure\": \"fig4\",\n  \"cycles\": 10000\n}")
            .expect("b");
        assert_eq!(a.key(), b.key());
        // A changed parameter changes the address.
        let c = Spec::parse(r#"{"figure":"fig4","cycles":10001}"#).expect("c");
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn unknown_figure_and_keys_rejected() {
        assert!(Spec::parse(r#"{"figure": "fig9"}"#).is_err());
        assert!(Spec::parse(r#"{"figure": "fig4", "cycels": 10}"#).is_err());
        assert!(Spec::parse(r#"{"figure": "fig_campus", "scales": [{"name": "x", "sells": 2}]}"#)
            .is_err());
        assert!(Spec::parse(r#"[1]"#).is_err());
        assert!(Spec::parse(r#"{"cycles": 10}"#).is_err(), "figure is required");
    }

    #[test]
    fn out_of_range_values_rejected() {
        for bad in [
            r#"{"figure": "fig4", "cycles": 0}"#,
            r#"{"figure": "fig4", "cycles": 100000000}"#,
            r#"{"figure": "fig4", "cycles": -5}"#,
            r#"{"figure": "fig1", "papers": 1000000}"#,
            r#"{"figure": "fig5", "crash_at_ms": 10}"#,
            r#"{"figure": "fig6", "client_counts": []}"#,
            r#"{"figure": "fig6", "client_counts": [0]}"#,
            r#"{"figure": "fig_campus", "scales": []}"#,
            r#"{"figure": "fig_campus", "scales": [{"name": "x", "endpoints_per_leaf": 9}]}"#,
            r#"{"figure": "fig_campus", "scales": [{"name": "x", "cells": 64, "leaves_per_cell": 64, "endpoints_per_leaf": 1024}]}"#,
            r#"{"figure": "challenges", "trials": 1}"#,
        ] {
            assert!(Spec::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    /// Every field of a scale can be in range while the world is not:
    /// the node count is bounded too, with room for a 10⁶-node row.
    #[test]
    fn campus_world_size_bounded() {
        let scale = |cells, leaves, endpoints| {
            Spec::parse(&format!(
                r#"{{"figure": "fig_campus", "scales": [{{"name": "x", "cells": {cells}, "leaves_per_cell": {leaves}, "endpoints_per_leaf": {endpoints}}}]}}"#
            ))
        };
        let err = scale(64, 64, 1_024).expect_err("4.2M nodes").to_string();
        assert!(err.contains("4198528 nodes"), "{err}");
        // 1,000,512 nodes.
        assert!(scale(32, 32, 976).is_ok());
    }

    #[test]
    fn sample_mix_is_reproducible_and_distinct() {
        let a = sample_mix(64, 0x10AD);
        let b = sample_mix(64, 0x10AD);
        assert_eq!(a, b);
        let keys: std::collections::BTreeSet<String> = a.iter().map(Spec::key).collect();
        assert_eq!(keys.len(), a.len(), "mix keys collide");
        let other = sample_mix(64, 0x10AE);
        assert_ne!(a, other);
        // Every spec in the mix is valid by construction.
        for spec in &a {
            assert_eq!(Spec::parse(&spec.canonical()).expect("valid"), *spec);
        }
    }
}
