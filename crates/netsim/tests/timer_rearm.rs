//! Differential test of timer re-arming: moving an armed timer with
//! [`Context::rearm`] must dispatch exactly what cancelling it and arming
//! a fresh one does — same events, same instants, same order among
//! simultaneous events — while keeping one scheduler entry per timer.
//!
//! Random scripts run on several nodes with several timer tokens each:
//! set, move later, move earlier, move to the same instant, cancel after a
//! move, re-arm right after a fire, with delayed and immediate packets
//! interleaved. Times sit on a whole-millisecond grid so that timers and
//! packets collide often and any change in the `(time, seq)` tie order
//! shows in the log. A failing case prints its seed; `TIMER_SEED=<n>`
//! replays just that one.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

use h2priv_netsim::{
    Context, LinkConfig, Node, NodeId, Packet, SimDuration, SimRng, SimTime, Simulator, StopReason,
    TimerId,
};

const NODES: usize = 4;
const TOKENS: usize = 3;
/// Callbacks per node that may act; later callbacks only log, so every
/// run ends quiescent.
const BUDGET: u32 = 250;

/// Runs `case` for seeds `0..cases` (or only `$TIMER_SEED`), printing the
/// seed of a failing case before re-raising its panic.
fn for_each_seed(cases: u64, case: impl Fn(u64)) {
    let seeds: Vec<u64> = match std::env::var("TIMER_SEED") {
        Ok(s) => vec![s.parse().expect("TIMER_SEED must be a u64")],
        Err(_) => (0..cases).collect(),
    };
    for seed in seeds {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| case(seed))) {
            eprintln!("failing seed: {seed} (replay with TIMER_SEED={seed})");
            resume_unwind(panic);
        }
    }
}

/// How a node re-arms its timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `Context::rearm`: an armed timer is moved.
    Move,
    /// The reference: cancel the armed timer and arm a fresh one.
    CancelSet,
}

/// The reference re-arm: the same skip-if-unchanged rule as
/// `Context::rearm`, but every change cancels and arms anew.
fn cancel_set(
    ctx: &mut Context<'_, u64>,
    slot: &mut Option<(TimerId, SimTime)>,
    want: Option<SimTime>,
    token: u64,
) {
    match (want, *slot) {
        (Some(at), Some((_, armed))) if at == armed => {}
        (Some(at), prev) => {
            if let Some((id, _)) = prev {
                ctx.cancel_timer(id);
            }
            let id = ctx.set_timer(at.saturating_since(ctx.now()), token);
            *slot = Some((id, at));
        }
        (None, Some((id, _))) => {
            ctx.cancel_timer(id);
            *slot = None;
        }
        (None, None) => {}
    }
}

/// How often each scripted situation came up, summed over all seeds.
#[derive(Debug, Default)]
struct Coverage {
    set: u64,
    later: u64,
    earlier: u64,
    unchanged: u64,
    same_instant: u64,
    cancel_after_move: u64,
    rearm_after_fire: u64,
    send_after: u64,
}

/// One dispatched event: `(time ns, node, 'T' timer | 'P' packet, token
/// or payload)`.
type Entry = (u64, usize, char, u64);

struct Scripted {
    mode: Mode,
    rng: SimRng,
    peers: Vec<NodeId>,
    slots: [Option<(TimerId, SimTime)>; TOKENS],
    /// The instant each armed slot must fire at.
    due: [Option<SimTime>; TOKENS],
    /// Whether each armed slot was moved since it was armed.
    moved: [bool; TOKENS],
    budget: u32,
    sent: u64,
    log: Rc<RefCell<Vec<Entry>>>,
    coverage: Rc<RefCell<Coverage>>,
}

impl Scripted {
    fn rearm(&mut self, ctx: &mut Context<'_, u64>, k: usize, want: Option<SimTime>) {
        let now = ctx.now();
        let mut cov = self.coverage.borrow_mut();
        match (want, self.slots[k]) {
            (Some(_), None) => {
                cov.set += 1;
                self.moved[k] = false;
            }
            (Some(at), Some((_, armed))) => {
                if at == armed {
                    cov.unchanged += 1;
                } else {
                    self.moved[k] = true;
                    let fire = at.max(now);
                    let due = self.due[k].expect("armed slot has a due time");
                    if fire > due {
                        cov.later += 1;
                    } else if fire < due {
                        cov.earlier += 1;
                    } else {
                        cov.same_instant += 1;
                    }
                }
            }
            (None, Some(_)) if self.moved[k] => cov.cancel_after_move += 1,
            (None, _) => {}
        }
        drop(cov);
        let slot = &mut self.slots[k];
        match self.mode {
            Mode::Move => ctx.rearm(slot, want, k as u64),
            Mode::CancelSet => cancel_set(ctx, slot, want, k as u64),
        }
        self.due[k] = want.map(|at| at.max(now));
    }

    /// A random deadline on the millisecond grid: mostly near, sometimes
    /// already past (clamped to now), sometimes RTO-far.
    fn deadline(&mut self, now: SimTime) -> SimTime {
        let ms = SimDuration::from_millis;
        match self.rng.gen_range_u64(0..10) {
            0 => now - ms(self.rng.gen_range_u64(0..3)),
            1 => now + ms(200 + self.rng.gen_range_u64(0..60)),
            _ => now + ms(self.rng.gen_range_u64(0..12)),
        }
    }

    fn send(&mut self, ctx: &mut Context<'_, u64>) {
        let to = self.peers[self.rng.gen_range_u64(0..self.peers.len() as u64) as usize];
        self.sent += 1;
        let payload = ((ctx.node_id().0 as u64) << 32) | self.sent;
        let delay = self.rng.gen_range_u64(0..3);
        if delay > 0 {
            self.coverage.borrow_mut().send_after += 1;
        }
        let packet = Packet::new(ctx.node_id(), to, 100, payload);
        ctx.send_after(SimDuration::from_millis(delay), packet);
    }

    /// One scripted step: a packet that keeps the run going, plus up to
    /// three random timer or packet actions.
    fn act(&mut self, ctx: &mut Context<'_, u64>) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let now = ctx.now();
        self.send(ctx);
        for _ in 0..self.rng.gen_range_u64(0..4) {
            let k = self.rng.gen_range_u64(0..TOKENS as u64) as usize;
            match self.rng.gen_range_u64(0..10) {
                0..=5 => {
                    let at = self.deadline(now);
                    self.rearm(ctx, k, Some(at));
                }
                6 => {
                    // Re-arm at the deadline already armed (or at `now`).
                    let at = self.slots[k].map_or(now, |(_, armed)| armed);
                    self.rearm(ctx, k, Some(at));
                }
                7 | 8 => self.rearm(ctx, k, None),
                _ => self.send(ctx),
            }
        }
    }
}

impl Node<u64> for Scripted {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.act(ctx);
    }

    fn on_packet(&mut self, p: Packet<u64>, ctx: &mut Context<'_, u64>) {
        let now = ctx.now().as_nanos();
        self.log
            .borrow_mut()
            .push((now, ctx.node_id().0, 'P', p.payload));
        self.act(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, u64>) {
        let k = token as usize;
        assert!(self.slots[k].is_some(), "fired a timer that is not armed");
        assert_eq!(self.due[k], Some(ctx.now()), "timer fired off its deadline");
        self.slots[k] = None;
        self.due[k] = None;
        let now = ctx.now().as_nanos();
        self.log
            .borrow_mut()
            .push((now, ctx.node_id().0, 'T', token));
        if self.budget > 0 && self.rng.chance(0.5) {
            self.coverage.borrow_mut().rearm_after_fire += 1;
            let at = self.deadline(ctx.now());
            self.rearm(ctx, k, Some(at));
        }
        self.act(ctx);
    }
}

struct Outcome {
    log: Vec<Entry>,
    events: u64,
    end: SimTime,
    inserts: u64,
}

fn run(seed: u64, mode: Mode, coverage: &Rc<RefCell<Coverage>>) -> Outcome {
    let mut sim = Simulator::new(seed);
    let log = Rc::new(RefCell::new(Vec::new()));
    let ids: Vec<NodeId> = (0..NODES).map(|_| sim.reserve_node_id()).collect();
    for (i, &id) in ids.iter().enumerate() {
        sim.install_node(
            id,
            Box::new(Scripted {
                mode,
                rng: SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9) ^ i as u64),
                peers: ids.iter().copied().filter(|&p| p != id).collect(),
                slots: [None; TOKENS],
                due: [None; TOKENS],
                moved: [false; TOKENS],
                budget: BUDGET,
                sent: 0,
                log: log.clone(),
                coverage: coverage.clone(),
            }),
        );
    }
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            sim.add_link(a, b, LinkConfig::with_delay(SimDuration::from_millis(1)));
        }
    }
    let summary = sim.run();
    assert_eq!(summary.stop, StopReason::Quiescent);
    assert_eq!(
        sim.live_timers(),
        0,
        "every armed timer fired or was cancelled"
    );
    let stats = sim.sched_stats();
    let log = log.borrow().clone();
    Outcome {
        log,
        events: summary.events,
        end: summary.end_time,
        inserts: stats.near_inserts + stats.far_inserts,
    }
}

#[test]
fn moving_a_timer_dispatches_exactly_like_cancel_and_set() {
    let coverage = Rc::new(RefCell::new(Coverage::default()));
    let reference_coverage = Rc::new(RefCell::new(Coverage::default()));
    for_each_seed(150, |seed| {
        let moved = run(seed, Mode::Move, &coverage);
        let reference = run(seed, Mode::CancelSet, &reference_coverage);
        assert!(
            moved.log.len() > 100,
            "script too short: {}",
            moved.log.len()
        );
        if let Some(i) = (0..moved.log.len().min(reference.log.len()))
            .find(|&i| moved.log[i] != reference.log[i])
        {
            panic!(
                "dispatch {i} differs: move {:?} vs cancel+set {:?}",
                moved.log[i], reference.log[i]
            );
        }
        assert_eq!(moved.log.len(), reference.log.len(), "dispatch count");
        assert_eq!(moved.events, reference.events, "event count");
        assert_eq!(moved.end, reference.end, "end time");
        assert!(
            moved.inserts <= reference.inserts,
            "moves queued more entries ({}) than cancel+set ({})",
            moved.inserts,
            reference.inserts
        );
    });
    if std::env::var("TIMER_SEED").is_err() {
        let c = coverage.borrow();
        let all = [
            c.set,
            c.later,
            c.earlier,
            c.unchanged,
            c.same_instant,
            c.cancel_after_move,
            c.rearm_after_fire,
            c.send_after,
        ];
        assert!(all.iter().all(|&n| n > 0), "scripts miss a case: {c:?}");
    }
}

/// Re-arms an RTO-like timer 200 ms out on every packet of a ping-pong,
/// `moves` times, then lets it fire.
struct RtoPinger {
    mode: Mode,
    peer: NodeId,
    rto: Option<(TimerId, SimTime)>,
    moves: Rc<Cell<u32>>,
    limit: u32,
    fired: Rc<Cell<u32>>,
}

impl Node<u64> for RtoPinger {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.send(Packet::new(ctx.node_id(), self.peer, 100, 0));
    }

    fn on_packet(&mut self, p: Packet<u64>, ctx: &mut Context<'_, u64>) {
        if self.moves.get() == self.limit {
            return;
        }
        let want = Some(ctx.now() + SimDuration::from_millis(200));
        match self.mode {
            Mode::Move => ctx.rearm(&mut self.rto, want, 0),
            Mode::CancelSet => cancel_set(ctx, &mut self.rto, want, 0),
        }
        self.moves.set(self.moves.get() + 1);
        ctx.send(Packet::new(p.dst, p.src, 100, p.payload + 1));
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, u64>) {
        self.rto = None;
        self.fired.set(self.fired.get() + 1);
    }
}

struct Echo;

impl Node<u64> for Echo {
    fn on_packet(&mut self, p: Packet<u64>, ctx: &mut Context<'_, u64>) {
        ctx.send(Packet::new(p.dst, p.src, 100, p.payload + 1));
    }
}

/// Runs the RTO ping-pong for `limit` re-arms, stepping 1 ms at a time,
/// and returns the largest queue occupancy seen between steps.
fn rto_run(mode: Mode, limit: u32) -> (usize, Simulator<u64>, Rc<Cell<u32>>) {
    let mut sim = Simulator::new(1);
    let moves = Rc::new(Cell::new(0));
    let fired = Rc::new(Cell::new(0));
    let a = sim.reserve_node_id();
    let b = sim.reserve_node_id();
    sim.install_node(
        a,
        Box::new(RtoPinger {
            mode,
            peer: b,
            rto: None,
            moves: moves.clone(),
            limit,
            fired: fired.clone(),
        }),
    );
    sim.install_node(b, Box::new(Echo));
    sim.add_link(a, b, LinkConfig::with_delay(SimDuration::from_millis(1)));
    let mut peak = 0;
    let mut t = SimTime::ZERO;
    while moves.get() < limit {
        t += SimDuration::from_millis(1);
        sim.run_until(t);
        peak = peak.max(sim.queued_events());
        if mode == Mode::Move {
            assert!(sim.live_timers() <= 1, "one RTO, one live timer");
        }
    }
    (peak, sim, fired)
}

#[test]
fn ten_thousand_moves_keep_one_timer_and_one_entry() {
    let (peak, mut sim, fired) = rto_run(Mode::Move, 10_000);
    assert_eq!(sim.live_timers(), 1);
    // One in-flight packet plus the RTO's single entry.
    assert!(peak <= 2, "queue occupancy reached {peak}");
    assert_eq!(sim.run().stop, StopReason::Quiescent);
    assert_eq!(fired.get(), 1, "the RTO fires once, after the last move");
    assert_eq!(sim.live_timers(), 0);

    // Cancel+set leaves one queued entry per re-arm until its deadline:
    // ~100 at a 2 ms round trip and a 200 ms RTO.
    let (reference_peak, _, _) = rto_run(Mode::CancelSet, 10_000);
    assert!(reference_peak > 50, "reference peaked at {reference_peak}");
}
