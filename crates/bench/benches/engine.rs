//! Raw discrete-event engine throughput, independent of the experiment
//! layer: a two-node ping-pong workload measured in events per second.
//! Engine regressions (allocation per event, routing rebuilds, timer
//! bookkeeping) show up here before they blur into whole-trial numbers.

use std::time::Instant;

use h2priv_bench::harness::black_box;
use h2priv_netsim::{
    Context, LinkConfig, Node, NodeId, Packet, SimDuration, SimTime, Simulator, TimerId,
};

/// Echoes every packet back forever; the run is stopped by event budget.
struct PingPong {
    peer: NodeId,
}

impl Node<u64> for PingPong {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.send(Packet::new(ctx.node_id(), self.peer, 100, 0));
    }
    fn on_packet(&mut self, p: Packet<u64>, ctx: &mut Context<'_, u64>) {
        ctx.send(Packet::new(p.dst, p.src, p.wire_bytes, p.payload + 1));
    }
}

/// Like [`PingPong`] but also re-arms a 200 ms timer per packet, the way
/// a TCP sender pushes its RTO out on every ACK, exercising the timer
/// bookkeeping path.
struct TimerPingPong {
    peer: NodeId,
    armed: Option<(TimerId, SimTime)>,
}

impl Node<u64> for TimerPingPong {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.send(Packet::new(ctx.node_id(), self.peer, 100, 0));
    }
    fn on_packet(&mut self, p: Packet<u64>, ctx: &mut Context<'_, u64>) {
        let rto = ctx.now() + SimDuration::from_millis(200);
        ctx.rearm(&mut self.armed, Some(rto), 1);
        ctx.send(Packet::new(p.dst, p.src, p.wire_bytes, p.payload + 1));
    }
}

fn run_ping_pong(events: u64, with_timers: bool) -> (u64, f64) {
    let mut sim = Simulator::new(7);
    let a = sim.reserve_node_id();
    let b = sim.reserve_node_id();
    if with_timers {
        sim.install_node(
            a,
            Box::new(TimerPingPong {
                peer: b,
                armed: None,
            }),
        );
        sim.install_node(
            b,
            Box::new(TimerPingPong {
                peer: a,
                armed: None,
            }),
        );
    } else {
        sim.install_node(a, Box::new(PingPong { peer: b }));
        sim.install_node(b, Box::new(PingPong { peer: a }));
    }
    sim.add_link(a, b, LinkConfig::with_delay(SimDuration::from_micros(50)));
    sim.set_event_budget(events);
    let t0 = Instant::now();
    let summary = black_box(sim.run());
    let secs = t0.elapsed().as_secs_f64();
    (summary.events, summary.events as f64 / secs)
}

fn main() {
    let events = 1_000_000;
    // Warmup.
    run_ping_pong(events / 10, false);
    for (label, with_timers) in [("ping_pong", false), ("ping_pong_with_timers", true)] {
        let (processed, events_per_sec) = run_ping_pong(events, with_timers);
        println!(
            "engine/{label:<24} {processed} events  {:.2} M events/sec",
            events_per_sec / 1e6
        );
    }
}
