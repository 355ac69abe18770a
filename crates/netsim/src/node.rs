//! Nodes and the effect context handed to their event handlers.
//!
//! A [`Node`] is anything attached to the network: an endpoint host running
//! a protocol stack, or a gateway running middleboxes. Handlers never touch
//! the simulator directly; they record *effects* (send a packet, arm or
//! cancel a timer, halt) through a [`Context`], which the simulator applies
//! after the handler returns. This keeps handlers pure state transitions and
//! makes the engine's event ordering explicit and testable.

use crate::packet::{NodeId, Packet};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Opaque handle to an armed timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

/// An effect requested by a node handler.
#[derive(Debug)]
pub(crate) enum Effect<P> {
    /// Transmit a packet onto the link toward its destination, now.
    Send(Packet<P>),
    /// Transmit a packet onto the link toward its destination after a delay
    /// (used by gateways to hold packets).
    SendAfter(SimDuration, Packet<P>),
    /// Arm timer `id` to fire `at` with the given token; if `id` is
    /// already armed, move it (see [`Context::rearm`]).
    SetTimer {
        /// Absolute fire time.
        at: SimTime,
        /// Caller-chosen discriminator returned on fire.
        token: u64,
        /// The timer's id: fresh from [`Context::set_timer`], or the id
        /// of the armed timer being moved.
        id: TimerId,
    },
    /// Cancel a previously armed timer.
    CancelTimer(TimerId),
    /// Stop the simulation after the current event.
    Halt,
}

/// The environment a [`Node`] handler runs in.
///
/// Provides the current time, a deterministic RNG, and effect constructors.
#[derive(Debug)]
pub struct Context<'a, P> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) effects: &'a mut Vec<Effect<P>>,
    pub(crate) timer_seq: &'a mut u64,
}

impl<'a, P> Context<'a, P> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node whose handler is running.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The run's deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sends `packet` toward `packet.dst`, entering the outgoing link now.
    pub fn send(&mut self, packet: Packet<P>) {
        self.effects.push(Effect::Send(packet));
    }

    /// Sends `packet` toward `packet.dst`, entering the outgoing link after
    /// `delay`. The delay is served locally (the packet occupies no link
    /// resources while held).
    pub fn send_after(&mut self, delay: SimDuration, packet: Packet<P>) {
        if delay.is_zero() {
            self.effects.push(Effect::Send(packet));
        } else {
            self.effects.push(Effect::SendAfter(delay, packet));
        }
    }

    /// Arms a timer firing `after` from now; `token` is handed back to
    /// [`Node::on_timer`]. Returns an id usable with
    /// [`Context::cancel_timer`].
    pub fn set_timer(&mut self, after: SimDuration, token: u64) -> TimerId {
        let id = TimerId(*self.timer_seq);
        *self.timer_seq += 1;
        self.effects.push(Effect::SetTimer {
            at: self.now + after,
            token,
            id,
        });
        id
    }

    /// Cancels a timer. Cancelling an already-fired or unknown timer is a
    /// no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    /// Re-arms the timer tracked by `slot` — `(id, deadline)` of the armed
    /// timer, or `None` — so that it fires at `want` with `token`, or not
    /// at all when `want` is `None`, and updates `slot` to match.
    ///
    /// Re-arming at the already-armed deadline is a no-op. Otherwise an
    /// armed timer is *moved*: it keeps its id and fires in exactly the
    /// `(time, sequence)` order a cancel followed by a fresh
    /// [`Context::set_timer`] would give it, but the scheduler keeps one
    /// entry per timer instead of one per re-arm. Use one `token` per
    /// slot. A `slot` whose timer has fired must be cleared (set to
    /// `None`) in [`Node::on_timer`]; a move of a fired or cancelled timer
    /// arms it afresh.
    pub fn rearm(
        &mut self,
        slot: &mut Option<(TimerId, SimTime)>,
        want: Option<SimTime>,
        token: u64,
    ) {
        match (want, *slot) {
            (Some(at), Some((_, armed))) if at == armed => {}
            (Some(at), Some((id, _))) => {
                self.effects.push(Effect::SetTimer {
                    at: at.max(self.now),
                    token,
                    id,
                });
                *slot = Some((id, at));
            }
            (Some(at), None) => {
                let id = self.set_timer(at.saturating_since(self.now), token);
                *slot = Some((id, at));
            }
            (None, Some((id, _))) => {
                self.cancel_timer(id);
                *slot = None;
            }
            (None, None) => {}
        }
    }

    /// Stops the simulation after the current event completes.
    pub fn halt(&mut self) {
        self.effects.push(Effect::Halt);
    }
}

/// A participant in the simulated network.
///
/// Implementations hold their own state; cross-component result extraction
/// is done by sharing `Rc<RefCell<…>>` handles between the node and the
/// experiment driver (the simulation is single-threaded by design).
pub trait Node<P> {
    /// Called once, at time zero, before any packet or timer events.
    fn on_start(&mut self, _ctx: &mut Context<'_, P>) {}

    /// A packet addressed to (or routed through) this node arrived.
    fn on_packet(&mut self, packet: Packet<P>, ctx: &mut Context<'_, P>);

    /// A timer armed by this node fired.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, P>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_records_effects() {
        let mut rng = SimRng::seed_from(0);
        let mut effects: Vec<Effect<u8>> = Vec::new();
        let mut timer_seq = 0u64;
        let mut ctx = Context {
            now: SimTime::from_millis(1),
            node: NodeId(0),
            rng: &mut rng,
            effects: &mut effects,
            timer_seq: &mut timer_seq,
        };
        assert_eq!(ctx.now(), SimTime::from_millis(1));
        assert_eq!(ctx.node_id(), NodeId(0));
        ctx.send(Packet::new(NodeId(0), NodeId(1), 10, 7u8));
        let id = ctx.set_timer(SimDuration::from_millis(5), 42);
        ctx.cancel_timer(id);
        ctx.halt();
        assert_eq!(effects.len(), 4);
        match &effects[1] {
            Effect::SetTimer { at, token, .. } => {
                assert_eq!(*at, SimTime::from_millis(6));
                assert_eq!(*token, 42);
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn timer_ids_are_unique() {
        let mut rng = SimRng::seed_from(0);
        let mut effects: Vec<Effect<u8>> = Vec::new();
        let mut timer_seq = 0u64;
        let mut ctx = Context {
            now: SimTime::ZERO,
            node: NodeId(0),
            rng: &mut rng,
            effects: &mut effects,
            timer_seq: &mut timer_seq,
        };
        let a = ctx.set_timer(SimDuration::ZERO, 0);
        let b = ctx.set_timer(SimDuration::ZERO, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn send_after_zero_degenerates_to_send() {
        let mut rng = SimRng::seed_from(0);
        let mut effects: Vec<Effect<u8>> = Vec::new();
        let mut timer_seq = 0u64;
        let mut ctx = Context {
            now: SimTime::ZERO,
            node: NodeId(0),
            rng: &mut rng,
            effects: &mut effects,
            timer_seq: &mut timer_seq,
        };
        ctx.send_after(SimDuration::ZERO, Packet::new(NodeId(0), NodeId(1), 1, 0u8));
        assert!(matches!(effects[0], Effect::Send(_)));
    }
}
