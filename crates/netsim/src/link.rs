//! Point-to-point full-duplex links.
//!
//! A link connects exactly two node ports. Each direction has its own
//! transmitter state (serialization occupies the wire), propagation
//! delay, fault injector (on faulty links only), and attached taps.
//! Shared media are modelled with switches, as in any modern Ethernet
//! deployment.

use crate::fault::{FaultInjector, FaultSpec};
use crate::node::{NodeId, PortId};
use crate::rng::SimRng;
use crate::tap::TapId;
use crate::time::{NanoDur, Nanos};

/// Handle to a link within a simulation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub usize);

/// Static parameters of a link (symmetric for both directions).
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// Line rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: NanoDur,
    /// Fault model applied independently per direction.
    pub faults: FaultSpec,
}

impl LinkSpec {
    /// Gigabit Ethernet over a few metres of copper (5 ns/m ≈ 25 ns).
    pub fn gigabit() -> Self {
        LinkSpec {
            bandwidth_bps: 1_000_000_000,
            propagation: NanoDur(25),
            faults: FaultSpec::none(),
        }
    }

    /// 10G data-center link (short fiber run).
    pub fn ten_gigabit() -> Self {
        LinkSpec {
            bandwidth_bps: 10_000_000_000,
            propagation: NanoDur(50),
            faults: FaultSpec::none(),
        }
    }

    /// 100 Mbit/s industrial field-level Ethernet (PROFINET class).
    pub fn industrial_100m() -> Self {
        LinkSpec {
            bandwidth_bps: 100_000_000,
            propagation: NanoDur(25),
            faults: FaultSpec::none(),
        }
    }

    /// Override the fault model (builder style).
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Override the propagation delay (builder style).
    pub fn with_propagation(mut self, propagation: NanoDur) -> Self {
        self.propagation = propagation;
        self
    }

    /// Serialization time for a frame occupying `wire_bits` on this link.
    pub fn serialization(&self, wire_bits: u64) -> NanoDur {
        NanoDur::for_bits(wire_bits, self.bandwidth_bps)
    }
}

/// One direction of a link.
///
/// Only a faulty link carries fault state: a campus world has about one
/// link per node and none of them faulty, and an injector with its
/// stream on each direction of each link once held half its memory.
#[derive(Debug)]
pub struct LinkDir {
    /// Receiving node.
    pub dst_node: NodeId,
    /// Receiving port.
    pub dst_port: PortId,
    /// Transmitter is occupied until this instant.
    pub tx_free_at: Nanos,
    /// Fault state; `None` when the link's [`FaultSpec`] can never
    /// fault, and every frame is delivered unchanged.
    pub faults: Option<Box<DirFaults>>,
    /// Frames that completed serialization on this direction.
    pub frames_sent: u64,
}

/// Fault state of one direction of a faulty link.
#[derive(Debug)]
pub struct DirFaults {
    /// Fault injector for this direction.
    pub injector: FaultInjector,
    /// Private RNG stream for fault decisions.
    pub rng: SimRng,
}

impl LinkDir {
    fn new(dst: (NodeId, PortId), faults: &FaultSpec, rng: SimRng) -> Self {
        LinkDir {
            dst_node: dst.0,
            dst_port: dst.1,
            tx_free_at: Nanos::ZERO,
            faults: (!faults.is_none()).then(|| {
                Box::new(DirFaults {
                    injector: FaultInjector::new(faults.clone()),
                    rng,
                })
            }),
            frames_sent: 0,
        }
    }
}

/// A wired link: spec + per-direction state + attached taps.
#[derive(Debug)]
pub struct Link {
    /// Static parameters.
    pub spec: LinkSpec,
    /// Endpoint A (node, port).
    pub a: (NodeId, PortId),
    /// Endpoint B (node, port).
    pub b: (NodeId, PortId),
    /// Direction A→B state.
    pub a_to_b: LinkDir,
    /// Direction B→A state.
    pub b_to_a: LinkDir,
    /// Taps observing this link.
    pub taps: Vec<TapId>,
}

impl Link {
    /// Wire a link between two endpoints. `rng_a` and `rng_b` are the
    /// fault streams of the A→B and B→A directions; a clean link drops
    /// them.
    pub fn new(
        spec: LinkSpec,
        a: (NodeId, PortId),
        b: (NodeId, PortId),
        rng_a: SimRng,
        rng_b: SimRng,
    ) -> Self {
        Link {
            a,
            b,
            a_to_b: LinkDir::new(b, &spec.faults, rng_a),
            b_to_a: LinkDir::new(a, &spec.faults, rng_b),
            spec,
            taps: Vec::new(),
        }
    }

    /// The direction whose transmitter sits at `(node, port)`, if this
    /// link terminates there.
    pub fn dir_from(&mut self, node: NodeId, port: PortId) -> Option<&mut LinkDir> {
        if self.a == (node, port) {
            Some(&mut self.a_to_b)
        } else if self.b == (node, port) {
            Some(&mut self.b_to_a)
        } else {
            None
        }
    }

    /// True if the transmission originates at endpoint A.
    pub fn is_a_side(&self, node: NodeId, port: PortId) -> bool {
        self.a == (node, port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_gigabit_64b() {
        // 64-byte frame + 20 bytes preamble/IFG = 672 bits → 672 ns @1G.
        let spec = LinkSpec::gigabit();
        assert_eq!(spec.serialization(672), NanoDur(672));
    }

    #[test]
    fn industrial_link_is_slower() {
        let g = LinkSpec::gigabit().serialization(672);
        let i = LinkSpec::industrial_100m().serialization(672);
        assert_eq!(i, NanoDur(6720));
        assert!(i > g);
    }

    #[test]
    fn dir_lookup() {
        let mut link = Link::new(
            LinkSpec::gigabit(),
            (NodeId(0), PortId(0)),
            (NodeId(1), PortId(2)),
            SimRng::seed_from_u64(1),
            SimRng::seed_from_u64(2),
        );
        assert_eq!(
            link.dir_from(NodeId(0), PortId(0)).unwrap().dst_node,
            NodeId(1)
        );
        assert_eq!(
            link.dir_from(NodeId(1), PortId(2)).unwrap().dst_node,
            NodeId(0)
        );
        assert!(link.dir_from(NodeId(2), PortId(0)).is_none());
        assert!(link.is_a_side(NodeId(0), PortId(0)));
        assert!(!link.is_a_side(NodeId(1), PortId(2)));
    }

    #[test]
    fn only_faulty_links_hold_fault_state() {
        let link = |faults| {
            Link::new(
                LinkSpec::gigabit().with_faults(faults),
                (NodeId(0), PortId(0)),
                (NodeId(1), PortId(0)),
                SimRng::seed_from_u64(1),
                SimRng::seed_from_u64(2),
            )
        };
        for clean in [FaultSpec::none(), FaultSpec::lossy(0.0)] {
            let l = link(clean);
            assert!(l.a_to_b.faults.is_none() && l.b_to_a.faults.is_none());
        }
        let l = link(FaultSpec::lossy(0.1));
        assert!(l.a_to_b.faults.is_some() && l.b_to_a.faults.is_some());
    }

    /// A campus world has about one link per node (100,880 in the
    /// `campus` row), so every 100 B here is about 10 MB of campus peak
    /// RSS.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn link_fits_campus_footprint() {
        let size = std::mem::size_of::<Link>();
        assert!(
            size <= 256,
            "Link is {size} B; one per node makes each 100 B about 10 MB of campus peak RSS"
        );
    }
}
