//! What a workload's artifacts are checked against, and the pinned
//! digest file that extends the committed `results/*.txt` references
//! to other seeds.

use crate::measure::{Report, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use steelserve::figures::run_spec;
use steelserve::sha::sha256_hex;
use steelserve::spec::Spec;

/// The repository root this benchmark was built in.
pub const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// Pinned artifact digests: `<spec key> <artifact sha256> <workload> <seed>`.
pub const PINS: &str = "steelbench/digests.txt";

fn read(rel: &str) -> Option<String> {
    std::fs::read_to_string(std::path::Path::new(ROOT).join(rel)).ok()
}

/// The reference one workload's artifacts must match.
#[derive(Clone, Debug)]
pub enum Expected {
    /// Byte-equal to a committed `results/*.txt` file.
    Bytes {
        /// Where the bytes came from.
        source: String,
        /// The reference artifact.
        bytes: String,
    },
    /// SHA-256 equal to a digest pinned in [`PINS`].
    Digest {
        /// The pinned digest.
        sha256: String,
    },
    /// No reference exists: equal to the jobs-1 artifact's digest.
    Determinism {
        /// Digest of the jobs-1 artifact.
        sha256: String,
    },
}

impl Expected {
    /// Does `artifact` match the reference?
    pub fn matches(&self, artifact: &str) -> bool {
        match self {
            Expected::Bytes { bytes, .. } => artifact == bytes,
            Expected::Digest { sha256 } | Expected::Determinism { sha256 } => {
                sha256_hex(artifact.as_bytes()) == *sha256
            }
        }
    }

    /// One line saying what kind of check this is.
    pub fn label(&self) -> String {
        match self {
            Expected::Bytes { source, .. } => format!("correctness: byte-equal to {source}"),
            Expected::Digest { .. } => format!("correctness: artifact digest pinned in {PINS}"),
            Expected::Determinism { .. } => {
                "determinism (not correctness): no reference at this seed, jobs-2 artifacts must equal the jobs-1 digest".to_string()
            }
        }
    }
}

/// Parse the pinned-digest file into `spec key -> artifact digest`.
pub fn parse_pins(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            Some((fields.next()?.to_string(), fields.next()?.to_string()))
        })
        .collect()
}

/// Pick the strongest reference available for `spec`: the committed
/// result when `spec` equals the committed spec at `committed.0`, else a
/// pinned digest, else a determinism check against `jobs1()`.
pub fn resolve(
    spec: &Spec,
    committed: Option<(&str, &str)>,
    jobs1: impl FnOnce() -> String,
) -> Expected {
    if let Some((spec_path, result_path)) = committed {
        let same = read(spec_path)
            .and_then(|text| Spec::parse(&text).ok())
            .is_some_and(|c| c == *spec);
        if same {
            if let Some(bytes) = read(result_path) {
                return Expected::Bytes {
                    source: result_path.to_string(),
                    bytes,
                };
            }
        }
    }
    let pins = parse_pins(&read(PINS).unwrap_or_default());
    match pins.get(&spec.key()) {
        Some(sha256) => Expected::Digest {
            sha256: sha256.clone(),
        },
        None => Expected::Determinism {
            sha256: sha256_hex(jobs1().as_bytes()),
        },
    }
}

/// Render `spec` at `jobs` until `seconds` have passed (at least once),
/// checking every artifact against `expected` and recording its size
/// and digest as counters. Returns each artifact's wall seconds.
pub fn artifact_window(
    spec: &Spec,
    jobs: usize,
    seconds: f64,
    expected: &Expected,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut digests = BTreeSet::new();
    while times.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (art, secs) = tracer.timed("steelserve.run_spec", times.len() as u64, || {
            run_spec(spec, jobs)
        });
        times.push(secs);
        report.checked(expected.matches(&art));
        digests.insert(sha256_hex(art.as_bytes()));
        report.counter("artifact_bytes", art.len());
    }
    let sha = match digests.len() {
        1 => digests.into_iter().next().unwrap_or_default(),
        n => format!("VARIES ({n} distinct)"),
    };
    report.counter("artifact_sha256", sha);
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_parse_skips_comments() {
        let pins = parse_pins("# key sha workload seed\nabc def reflect 1\n\n");
        assert_eq!(pins.len(), 1);
        assert_eq!(pins["abc"], "def");
    }
}
