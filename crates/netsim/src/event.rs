//! The event queue at the heart of the discrete-event engine.
//!
//! Events are totally ordered by `(time, sequence)`: two events scheduled
//! for the same instant fire in the order they were scheduled. This makes
//! every simulation a deterministic function of its inputs and seed.
//!
//! The queue is a `std::collections::BinaryHeap` under the reversed
//! `(time, seq)` order on [`Event`]: O(log n) per push or pop, with
//! nothing to tune. `seq` is unique, so no two events compare equal and
//! the pop order is fixed by the push sequence alone. Keep it that way:
//! a calendar queue tuned on in-order FIFO traffic was 4× slower than
//! this heap on `fig_campus`'s 50k periodic timers (DESIGN.md §9).

use crate::frame::EthFrame;
use crate::node::{NodeId, PortId};
use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// A frame finishes arriving at a node's port.
    FrameArrival {
        /// Receiving node.
        node: NodeId,
        /// Receiving port on that node.
        port: PortId,
        /// The frame (possibly corrupted in flight), boxed so the
        /// event stays small: heap sifts move a pointer instead of a
        /// full inline frame.
        frame: Box<EthFrame>,
    },
    /// A device timer expires. `token` is device-defined.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Device-defined discriminator.
        token: u64,
    },
}

/// A scheduled event.
#[derive(Debug)]
pub struct Event {
    /// When the event fires.
    pub at: Nanos,
    /// Tie-break: schedule order.
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Deterministic priority queue of pending events, earliest
/// `(time, seq)` first.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    /// Next schedule-order tie-break.
    next_seq: u64,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `kind` at absolute time `at`.
    pub fn push(&mut self, at: Nanos, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Make room for at least `additional` more events, so callers that
    /// know the topology size allocate once instead of on the hot path.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn timer(node: usize, token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(node),
            token,
        }
    }

    fn token_of(e: Event) -> u64 {
        match e.kind {
            EventKind::Timer { token, .. } => token,
            _ => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Nanos(30), timer(0, 3));
        q.push(Nanos(10), timer(0, 1));
        q.push(Nanos(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(token_of).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        for token in 0..100 {
            q.push(Nanos(5), timer(0, token));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(token_of).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Nanos(7), timer(0, 0));
        q.push(Nanos(3), timer(0, 1));
        assert_eq!(q.peek_time(), Some(Nanos(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Nanos(7)));
    }

    #[test]
    fn push_after_peek_can_tighten_the_minimum() {
        let mut q = EventQueue::new();
        q.push(Nanos(50), timer(0, 0));
        assert_eq!(q.peek_time(), Some(Nanos(50)));
        // A later push with an earlier time becomes the new minimum.
        q.push(Nanos(40), timer(0, 1));
        assert_eq!(q.peek_time(), Some(Nanos(40)));
        // An equal-time push does not overtake it (older seq wins).
        q.push(Nanos(40), timer(0, 2));
        assert_eq!(token_of(q.pop().expect("pending")), 1);
        assert_eq!(token_of(q.pop().expect("pending")), 2);
        assert_eq!(token_of(q.pop().expect("pending")), 0);
    }

    #[test]
    fn far_future_events_pop_after_near_ones() {
        let mut q = EventQueue::new();
        q.push(Nanos(5), timer(0, 0));
        q.push(Nanos(1 << 40), timer(0, 1));
        q.push(Nanos(6), timer(0, 2));
        q.push(Nanos((1 << 40) + 1), timer(0, 3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(token_of).collect();
        assert_eq!(order, vec![0, 2, 1, 3]);
    }

    #[test]
    fn drain_refill_cycles_keep_order() {
        // Draining to empty and refilling at a later base time must not
        // lose or reorder anything.
        let mut q = EventQueue::new();
        for round in 0..5u64 {
            let base = round * 1_000_000;
            for i in 0..300u64 {
                q.push(Nanos(base + (i * 37) % 500), timer(0, i));
            }
            let mut last: Option<(Nanos, u64)> = None;
            let mut popped = 0;
            while let Some(e) = q.pop() {
                assert!(
                    last.is_none_or(|l| (e.at, e.seq) > l),
                    "order violated in round {round}"
                );
                last = Some((e.at, e.seq));
                popped += 1;
            }
            assert_eq!(popped, 300);
        }
    }

    /// Ordering oracle that shares no code with the heap: pending
    /// `(at, token)` pairs in push order, stable-sorted by time alone
    /// before each pop, so equal times leave in push order by
    /// construction rather than by comparing `seq`.
    #[derive(Default)]
    struct SortedVecQueue {
        pending: Vec<(Nanos, u64)>,
    }

    impl SortedVecQueue {
        fn push(&mut self, at: Nanos, token: u64) {
            self.pending.push((at, token));
        }
        fn pop(&mut self) -> Option<(Nanos, u64)> {
            if self.pending.is_empty() {
                return None;
            }
            self.pending.sort_by_key(|&(at, _)| at);
            Some(self.pending.remove(0))
        }
    }

    /// Drive the queue and the sorted-`Vec` oracle through the same
    /// seeded workload and assert identical pop sequences.
    fn assert_matches_oracle(seed: u64, ops: usize, time_spread: u64, far_prob: f64) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut queue = EventQueue::new();
        let mut oracle = SortedVecQueue::default();
        let mut now = 0u64;
        let mut token = 0u64;
        for op in 0..ops {
            // Mixed workload: mostly pushes early, then drain pressure.
            let push = queue.is_empty() || rng.below(100) < if op < ops / 2 { 70 } else { 35 };
            if push {
                let mut at = now + rng.below(time_spread);
                if far_prob > 0.0 && rng.below(1000) < (far_prob * 1000.0) as u64 {
                    // Far-future spike, orders of magnitude past the rest.
                    at = now + time_spread * 1000 + rng.below(time_spread);
                }
                if rng.below(10) == 0 {
                    at = now; // deliberate same-time tie burst
                }
                queue.push(Nanos(at), timer(0, token));
                oracle.push(Nanos(at), token);
                token += 1;
            } else {
                match (queue.pop(), oracle.pop()) {
                    (Some(x), Some(y)) => {
                        now = now.max(x.at.0);
                        assert_eq!((x.at, token_of(x)), y, "divergence at op {op}");
                    }
                    (None, None) => {}
                    (x, y) => panic!(
                        "length divergence at op {op}: queue={:?} oracle={:?}",
                        x.map(|e| e.at),
                        y
                    ),
                }
            }
        }
        // Full drain must agree too.
        loop {
            match (queue.pop(), oracle.pop()) {
                (Some(x), Some(y)) => assert_eq!((x.at, token_of(x)), y),
                (None, None) => break,
                _ => panic!("drain length divergence"),
            }
        }
    }

    #[test]
    fn matches_sorted_oracle_dense_times() {
        assert_matches_oracle(0xC0FFEE, 20_000, 64, 0.0);
    }

    #[test]
    fn matches_sorted_oracle_sparse_times() {
        assert_matches_oracle(0xBEEF, 20_000, 1_000_000, 0.0);
    }

    #[test]
    fn matches_sorted_oracle_with_ties_and_far_future() {
        assert_matches_oracle(0x5EED, 20_000, 10_000, 0.02);
    }

    #[test]
    fn matches_sorted_oracle_across_seeds() {
        for seed in 1..=8u64 {
            assert_matches_oracle(seed, 4_000, 1 << (seed % 20), 0.01);
        }
    }
}
