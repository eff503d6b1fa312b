//! Link fault injection.
//!
//! Following the smoltcp example-suite idiom, every link direction can
//! be configured to drop, corrupt, duplicate, delay-reorder, or
//! rate-limit frames. Industrial protocols live or die by their
//! behaviour under exactly these faults (a PROFINET watchdog expiring
//! after a burst of drops halts a production cell), so fault injection
//! is a first-class feature rather than a test-only afterthought.

use crate::rng::SimRng;
use crate::time::{NanoDur, Nanos};

/// What the injector decided to do with one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Deliver unmodified, on time.
    Deliver,
    /// Silently discard.
    Drop,
    /// Deliver with one payload byte flipped.
    Corrupt,
    /// Deliver late by the given extra delay (causes reordering).
    Delay(NanoDur),
    /// Deliver the original and an identical duplicate.
    Duplicate,
}

/// Token bucket used for rate limiting, refilled on a fixed interval
/// (matching the smoltcp `--shaping-interval` model).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: u32,
    tokens: u32,
    refill_every: NanoDur,
    last_refill: Nanos,
}

impl TokenBucket {
    /// Bucket holding `capacity` frame tokens, fully refilled every
    /// `refill_every`.
    pub fn new(capacity: u32, refill_every: NanoDur) -> Self {
        assert!(capacity > 0 && refill_every.as_nanos() > 0);
        TokenBucket {
            capacity,
            tokens: capacity,
            refill_every,
            last_refill: Nanos::ZERO,
        }
    }

    /// Try to take one token at time `now`; `false` means over-rate.
    pub fn admit(&mut self, now: Nanos) -> bool {
        let elapsed = now.saturating_since(self.last_refill);
        if elapsed >= self.refill_every {
            let periods = elapsed.as_nanos() / self.refill_every.as_nanos();
            self.tokens = self.capacity;
            self.last_refill += self.refill_every * periods;
        }
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }
}

/// Per-direction fault model for a link.
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    /// Probability a frame is silently dropped.
    pub drop_prob: f64,
    /// Probability one payload byte is flipped.
    pub corrupt_prob: f64,
    /// Probability a frame is duplicated.
    pub duplicate_prob: f64,
    /// Probability a frame is delayed by up to `reorder_max_delay`.
    pub reorder_prob: f64,
    /// Maximum extra delay applied to reordered frames.
    pub reorder_max_delay: NanoDur,
    /// Frames larger than this (wire length, bytes) are dropped.
    pub size_limit: Option<usize>,
    /// Token-bucket rate limit: (capacity, refill interval).
    pub rate_limit: Option<(u32, NanoDur)>,
}

impl FaultSpec {
    /// A perfectly clean link.
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// A lossy link dropping with probability `p`.
    pub fn lossy(p: f64) -> Self {
        FaultSpec {
            drop_prob: p,
            ..FaultSpec::default()
        }
    }

    /// True when no fault can ever trigger. A link with such a spec
    /// gets no injector and no fault stream: the engine delivers every
    /// frame unchanged.
    pub fn is_none(&self) -> bool {
        self.drop_prob <= 0.0
            && self.corrupt_prob <= 0.0
            && self.duplicate_prob <= 0.0
            && self.reorder_prob <= 0.0
            && self.size_limit.is_none()
            && self.rate_limit.is_none()
    }
}

/// Stateful injector instantiated per link direction.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: FaultSpec,
    bucket: Option<TokenBucket>,
    dropped: u64,
    corrupted: u64,
    duplicated: u64,
    reordered: u64,
    rate_limited: u64,
}

impl FaultInjector {
    /// Instantiate an injector for one link direction.
    pub fn new(spec: FaultSpec) -> Self {
        let bucket = spec
            .rate_limit
            .map(|(cap, every)| TokenBucket::new(cap, every));
        FaultInjector {
            spec,
            bucket,
            dropped: 0,
            corrupted: 0,
            duplicated: 0,
            reordered: 0,
            rate_limited: 0,
        }
    }

    /// Decide the fate of one frame of `wire_len` bytes at time `now`.
    pub fn judge(&mut self, now: Nanos, wire_len: usize, rng: &mut SimRng) -> FaultVerdict {
        if let Some(limit) = self.spec.size_limit {
            if wire_len > limit {
                self.dropped += 1;
                return FaultVerdict::Drop;
            }
        }
        if let Some(bucket) = &mut self.bucket {
            if !bucket.admit(now) {
                self.rate_limited += 1;
                return FaultVerdict::Drop;
            }
        }
        if rng.chance(self.spec.drop_prob) {
            self.dropped += 1;
            return FaultVerdict::Drop;
        }
        if rng.chance(self.spec.corrupt_prob) {
            self.corrupted += 1;
            return FaultVerdict::Corrupt;
        }
        if rng.chance(self.spec.duplicate_prob) {
            self.duplicated += 1;
            return FaultVerdict::Duplicate;
        }
        if rng.chance(self.spec.reorder_prob) && self.spec.reorder_max_delay.as_nanos() > 0 {
            self.reordered += 1;
            let extra = NanoDur(rng.below(self.spec.reorder_max_delay.as_nanos()) + 1);
            return FaultVerdict::Delay(extra);
        }
        FaultVerdict::Deliver
    }

    /// Frames dropped by probability or size limit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
    /// Frames corrupted.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }
    /// Frames duplicated.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }
    /// Frames delayed for reordering.
    pub fn reordered(&self) -> u64 {
        self.reordered
    }
    /// Frames dropped by the rate limiter.
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_injector_is_transparent() {
        let mut inj = FaultInjector::new(FaultSpec::none());
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(inj.judge(Nanos(0), 64, &mut rng), FaultVerdict::Deliver);
        }
    }

    #[test]
    fn drop_probability_roughly_respected() {
        let mut inj = FaultInjector::new(FaultSpec::lossy(0.3));
        let mut rng = SimRng::seed_from_u64(2);
        let n = 10_000;
        let mut drops = 0;
        for _ in 0..n {
            if inj.judge(Nanos(0), 64, &mut rng) == FaultVerdict::Drop {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate={rate}");
        assert_eq!(inj.dropped(), drops);
    }

    #[test]
    fn size_limit_drops_big_frames() {
        let mut inj = FaultInjector::new(FaultSpec {
            size_limit: Some(128),
            ..FaultSpec::default()
        });
        let mut rng = SimRng::seed_from_u64(3);
        assert_eq!(inj.judge(Nanos(0), 64, &mut rng), FaultVerdict::Deliver);
        assert_eq!(inj.judge(Nanos(0), 129, &mut rng), FaultVerdict::Drop);
    }

    #[test]
    fn token_bucket_limits_and_refills() {
        let mut tb = TokenBucket::new(2, NanoDur::from_millis(50));
        assert!(tb.admit(Nanos(0)));
        assert!(tb.admit(Nanos(1)));
        assert!(!tb.admit(Nanos(2)));
        // After the refill interval the bucket is full again.
        assert!(tb.admit(Nanos::from_millis(50)));
        assert!(tb.admit(Nanos::from_millis(51)));
        assert!(!tb.admit(Nanos::from_millis(52)));
    }

    #[test]
    fn reorder_delay_bounded() {
        let spec = FaultSpec {
            reorder_prob: 1.0,
            reorder_max_delay: NanoDur(100),
            ..FaultSpec::default()
        };
        let mut inj = FaultInjector::new(spec);
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..100 {
            match inj.judge(Nanos(0), 64, &mut rng) {
                FaultVerdict::Delay(d) => {
                    assert!(d.as_nanos() >= 1 && d.as_nanos() <= 100)
                }
                v => panic!("expected delay, got {v:?}"),
            }
        }
    }

    #[test]
    fn verdict_priority_drop_before_corrupt() {
        // With drop_prob = 1.0 nothing else ever triggers.
        let spec = FaultSpec {
            drop_prob: 1.0,
            corrupt_prob: 1.0,
            ..FaultSpec::default()
        };
        let mut inj = FaultInjector::new(spec);
        let mut rng = SimRng::seed_from_u64(5);
        assert_eq!(inj.judge(Nanos(0), 64, &mut rng), FaultVerdict::Drop);
        assert_eq!(inj.corrupted(), 0);
    }
}
