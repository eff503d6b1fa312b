//! Devices: the active elements of a simulation.
//!
//! Anything that terminates a link — a host, a switch, a PLC, a NIC with
//! an XDP program — implements [`Device`]. The engine drives devices
//! through three callbacks (`on_start`, `on_frame`, `on_timer`) and
//! devices act on the world exclusively through the [`Ctx`] handed to
//! each callback, which keeps borrow-checking trivial and device logic
//! deterministic and testable in isolation.

use crate::frame::EthFrame;
use crate::rng::SimRng;
use crate::time::{NanoDur, Nanos};
use std::any::Any;

/// Index of a node within a simulation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Index of a port on a node. Ports are created implicitly by wiring.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PortId(pub usize);

/// Deferred side effects a device requests during a callback.
#[derive(Debug)]
pub enum Action {
    /// Transmit a frame out of a local port.
    Send {
        /// Egress port.
        port: PortId,
        /// Frame to serialize onto the wire.
        frame: EthFrame,
    },
    /// Fire `on_timer(token)` at absolute time `at`.
    TimerAt {
        /// Absolute expiry instant.
        at: Nanos,
        /// Device-defined discriminator.
        token: u64,
    },
}

/// Per-callback handle through which a device reads the clock, draws
/// randomness, transmits frames, and arms timers.
#[derive(Debug)]
pub struct Ctx<'a> {
    now: Nanos,
    node: NodeId,
    rng: &'a mut SimRng,
    port_rates: &'a [Option<u64>],
    actions: &'a mut Vec<Action>,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(
        now: Nanos,
        node: NodeId,
        rng: &'a mut SimRng,
        port_rates: &'a [Option<u64>],
        actions: &'a mut Vec<Action>,
    ) -> Self {
        Ctx {
            now,
            node,
            rng,
            port_rates,
            actions,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// This device's node id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// This device's private deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Line rate of the link attached to `port` in bits/s, or `None`
    /// when the port is not wired. Lets a device (e.g. a switch egress
    /// scheduler) compute serialization times without reaching into the
    /// engine.
    pub fn link_rate(&self, port: PortId) -> Option<u64> {
        self.port_rates.get(port.0).copied().flatten()
    }

    /// Number of ports wired on this node so far.
    pub fn port_count(&self) -> usize {
        self.port_rates.len()
    }

    /// Queue a frame for transmission out of `port`. Serialization and
    /// propagation delay are applied by the engine; if the transmitter
    /// is already busy the frame queues behind in-flight frames (FIFO
    /// per port at the link layer).
    pub fn send(&mut self, port: PortId, frame: EthFrame) {
        self.actions.push(Action::Send { port, frame });
    }

    /// Arm a one-shot timer `delay` from now.
    pub fn timer_in(&mut self, delay: NanoDur, token: u64) {
        self.actions.push(Action::TimerAt {
            at: self.now + delay,
            token,
        });
    }

    /// Arm a one-shot timer at an absolute instant (must not be in the
    /// past; the engine clamps to `now`).
    pub fn timer_at(&mut self, at: Nanos, token: u64) {
        self.actions.push(Action::TimerAt {
            at: at.max(self.now),
            token,
        });
    }
}

/// Object-safe downcasting support, blanket-implemented for every
/// device so test and experiment code can read device state back out of
/// a finished simulation.
pub trait AsAny {
    /// Upcast to `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// Upcast to `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: 'static> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An active network element.
pub trait Device: AsAny + 'static {
    /// Human-readable name for traces and error messages.
    fn name(&self) -> &str;

    /// Called once at simulation start (time 0), before any frame moves.
    /// Typical use: arm the first cyclic timer.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A frame has fully arrived on `port`.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EthFrame);

    /// A timer armed via [`Ctx::timer_in`]/[`Ctx::timer_at`] expired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

/// A device that drops everything — useful as a traffic sink or as a
/// placeholder endpoint in unit tests.
#[derive(Debug, Default)]
pub struct NullDevice {
    frames_seen: u64,
}

impl NullDevice {
    /// New sink.
    pub fn new() -> Self {
        NullDevice::default()
    }

    /// Number of frames absorbed.
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }
}

impl Device for NullDevice {
    fn name(&self) -> &str {
        "null"
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: EthFrame) {
        self.frames_seen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{ethertype, MacAddr};
    use crate::bytes::Bytes;

    #[test]
    fn ctx_buffers_actions() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut actions = Vec::new();
        let rates = vec![Some(1_000_000_000u64), None];
        let mut ctx = Ctx::new(Nanos(100), NodeId(0), &mut rng, &rates, &mut actions);
        assert_eq!(ctx.now(), Nanos(100));
        assert_eq!(ctx.link_rate(PortId(0)), Some(1_000_000_000));
        assert_eq!(ctx.link_rate(PortId(1)), None);
        assert_eq!(ctx.link_rate(PortId(9)), None);
        ctx.send(
            PortId(0),
            EthFrame::new(
                MacAddr::local(1),
                MacAddr::local(2),
                ethertype::SIM_TEST,
                Bytes::new(),
            ),
        );
        ctx.timer_in(NanoDur(50), 7);
        ctx.timer_at(Nanos(10), 8); // in the past -> clamped to now
        assert_eq!(actions.len(), 3);
        match &actions[1] {
            Action::TimerAt { at, token } => {
                assert_eq!(*at, Nanos(150));
                assert_eq!(*token, 7);
            }
            _ => panic!("expected timer"),
        }
        match &actions[2] {
            Action::TimerAt { at, .. } => assert_eq!(*at, Nanos(100)),
            _ => panic!("expected timer"),
        }
    }

    #[test]
    fn null_device_counts() {
        let mut d = NullDevice::new();
        let mut rng = SimRng::seed_from_u64(1);
        let mut actions = Vec::new();
        let rates = vec![];
        let mut ctx = Ctx::new(Nanos(0), NodeId(0), &mut rng, &rates, &mut actions);
        let f = EthFrame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            ethertype::SIM_TEST,
            Bytes::new(),
        );
        d.on_frame(&mut ctx, PortId(0), f);
        assert_eq!(d.frames_seen(), 1);
    }
}
