//! The composed adversary: the paper's attack as a gateway middlebox.
//!
//! §V, "Adversary Setup": *"In the first phase of the attack, the adversary
//! introduced jitter (of 50 ms additional delay) in the client–server
//! communication path and also started counting the number of GET requests
//! … As soon as the client sent the 6th GET request (that corresponds to
//! the HTML file), the adversary reduced the bandwidth to 800 Mbps and
//! simultaneously started dropping 80 % application packets in the
//! server→client path. It does so for the next 6 seconds to force the
//! client to send a Reset Stream signal to the server. After this point,
//! the jitter value was increased to 80 ms additional delay per GET request
//! packet so as to force the server to transmit the 8 consecutive image
//! files in non-multiplexed form."*
//!
//! Every clause above is a field of [`AttackConfig`]; disabling fields
//! yields the single-lever adversaries of §IV (jitter-only for Table I,
//! jitter+throttle for Fig. 5, and so on).

use h2priv_analysis::ObservedPacket;
use h2priv_netsim::{BitsPerSec, Dir, MbContext, Middlebox, Packet, SimDuration, SimTime, Verdict};
use h2priv_tcp::TcpSegment;

use crate::controller::{C2sDecision, ControllerStats, NetworkController};
use crate::monitor::{MonitorConfig, TrafficMonitor};

/// Full attack configuration (§V values via
/// [`AttackConfig::paper_attack`]).
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Monitor settings.
    pub monitor: MonitorConfig,
    /// Phase-1 inter-GET spacing ("jitter"), if any.
    pub initial_spacing: Option<SimDuration>,
    /// GET index (1-based) that triggers the disruption phase, if any.
    pub trigger_get: Option<u64>,
    /// Bandwidth cap applied at the trigger.
    pub throttle: Option<BitsPerSec>,
    /// Server→client application-packet drop probability during the
    /// disruption window, in per-mille.
    pub drop_rate_per_mille: u16,
    /// Length of the disruption window.
    pub drop_duration: SimDuration,
    /// Inter-GET spacing after the disruption window.
    pub post_spacing: Option<SimDuration>,
    /// End the drop window as soon as a new GET is observed during it (the
    /// client's post-reset re-request — the paper's "use the number of
    /// forwarded GET requests" cue). The timer end is the backstop.
    pub stop_drops_on_reset_get: bool,
    /// After the disruption, *gate* GET packets (drop them, deferring to
    /// the client's TCP retransmissions) until the server→client direction
    /// has been quiet for [`quiet_gap`](Self::quiet_gap) — the channel
    /// must drain its loss-recovery backlog before the re-requested object
    /// is served, or its records merge into the recovery burst.
    pub gate_until_quiet: bool,
    /// How long the server→client direction must be free of application
    /// data before a gated GET is released.
    pub quiet_gap: SimDuration,
    /// Upper bound on gating: a gated GET is released this long after the
    /// serialization transition even if the channel never looked drained
    /// (nothing was left to recover).
    pub gate_deadline: SimDuration,
}

impl AttackConfig {
    /// The full §V attack: 50 ms spacing, trigger on the 6th GET, throttle
    /// to 800 Mbps, drop 80 % of server→client application packets for
    /// 6 s, then 80 ms spacing.
    pub fn paper_attack() -> Self {
        AttackConfig {
            monitor: MonitorConfig::default(),
            initial_spacing: Some(SimDuration::from_millis(50)),
            trigger_get: Some(6),
            throttle: Some(h2priv_netsim::mbps(800)),
            drop_rate_per_mille: 800,
            drop_duration: SimDuration::from_secs(6),
            post_spacing: Some(SimDuration::from_millis(80)),
            stop_drops_on_reset_get: true,
            gate_until_quiet: true,
            quiet_gap: SimDuration::from_millis(60),
            gate_deadline: SimDuration::from_secs(4),
        }
    }

    /// §IV-B's single lever: constant inter-GET spacing, nothing else.
    pub fn jitter_only(spacing: SimDuration) -> Self {
        AttackConfig {
            monitor: MonitorConfig::default(),
            initial_spacing: if spacing.is_zero() {
                None
            } else {
                Some(spacing)
            },
            trigger_get: None,
            throttle: None,
            drop_rate_per_mille: 0,
            drop_duration: SimDuration::ZERO,
            post_spacing: None,
            stop_drops_on_reset_get: false,
            gate_until_quiet: false,
            quiet_gap: SimDuration::ZERO,
            gate_deadline: SimDuration::ZERO,
        }
    }

    /// §IV-C: spacing plus a bandwidth cap from the start.
    pub fn jitter_and_throttle(spacing: SimDuration, rate: BitsPerSec) -> Self {
        AttackConfig {
            trigger_get: Some(1),
            throttle: Some(rate),
            ..AttackConfig::jitter_only(spacing)
        }
    }
}

/// The attack's phase, §V's three stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackPhase {
    /// Counting GETs, applying phase-1 spacing.
    Observing,
    /// Throttle + drop window active (after the trigger GET).
    Disrupting,
    /// Post-reset serialization spacing.
    Serializing,
}

/// The adversary middlebox.
#[derive(Debug)]
pub struct Adversary {
    config: AttackConfig,
    monitor: TrafficMonitor,
    controller: NetworkController,
    phase: AttackPhase,
    phase_log: Vec<(SimTime, AttackPhase)>,
    drop_window_end: Option<SimTime>,
    /// Last time a server→client packet with payload was forwarded.
    last_s2c_data: SimTime,
    /// Server→client data has been forwarded since the serialization
    /// transition (the loss-recovery drain the gate waits out).
    s2c_seen_since_serialize: bool,
    /// When the serialization transition happened.
    serialize_at: Option<SimTime>,
    started: bool,
}

impl Adversary {
    /// Creates an adversary.
    pub fn new(config: AttackConfig) -> Self {
        Adversary {
            monitor: TrafficMonitor::new(config.monitor.clone()),
            controller: NetworkController::new(),
            phase: AttackPhase::Observing,
            phase_log: Vec::new(),
            drop_window_end: None,
            last_s2c_data: SimTime::ZERO,
            s2c_seen_since_serialize: false,
            serialize_at: None,
            started: false,
            config,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> AttackPhase {
        self.phase
    }

    /// The phase transition history.
    pub fn phase_log(&self) -> &[(SimTime, AttackPhase)] {
        &self.phase_log
    }

    /// GETs counted so far.
    pub fn gets_seen(&self) -> u64 {
        self.monitor.gets_seen()
    }

    /// When the `n`-th GET was observed.
    pub fn get_time(&self, n: u64) -> Option<SimTime> {
        self.monitor.get_time(n)
    }

    /// When the disruption window ended (the post-window analysis cutoff).
    pub fn drop_window_end(&self) -> Option<SimTime> {
        self.drop_window_end
    }

    /// When the serialization phase began, if it did.
    pub fn serialize_start(&self) -> Option<SimTime> {
        self.phase_log
            .iter()
            .find(|(_, p)| *p == AttackPhase::Serializing)
            .map(|&(t, _)| t)
    }

    /// Shaping/drop counters.
    pub fn controller_stats(&self) -> ControllerStats {
        self.controller.stats()
    }

    /// When the post-reset gate released the first serialized GET.
    pub fn gate_released_at(&self) -> Option<SimTime> {
        self.controller.gate_released_at()
    }

    fn enter(&mut self, now: SimTime, phase: AttackPhase) {
        self.phase = phase;
        self.phase_log.push((now, phase));
    }
}

impl Middlebox<TcpSegment> for Adversary {
    fn process(&mut self, packet: &Packet<TcpSegment>, ctx: &mut MbContext<'_>) -> Verdict {
        let now = ctx.now;
        if !self.started {
            self.started = true;
            self.controller.set_jitter(self.config.initial_spacing);
            self.phase_log.push((now, AttackPhase::Observing));
        }
        // Observe (the monitor follows only the client→server stream).
        let observed = ObservedPacket::capture(now, ctx.dir, &packet.payload);
        let insight = self.monitor.observe(&observed);

        // Phase transitions.
        let mut entered_disrupting_now = false;
        if self.phase == AttackPhase::Observing {
            if let Some(trigger) = self.config.trigger_get {
                if insight.new_gets.iter().any(|&g| g >= trigger) {
                    self.controller.set_bandwidth(self.config.throttle);
                    if self.config.drop_rate_per_mille > 0 && !self.config.drop_duration.is_zero() {
                        let until = now + self.config.drop_duration;
                        self.controller
                            .start_drops(until, self.config.drop_rate_per_mille);
                        self.drop_window_end = Some(until);
                    }
                    self.enter(now, AttackPhase::Disrupting);
                    entered_disrupting_now = true;
                }
            }
        }
        if self.phase == AttackPhase::Disrupting && !entered_disrupting_now {
            let window_over = self.drop_window_end.is_none_or(|end| now >= end);
            // A *new* GET during the window is the client's post-reset
            // re-request (the trigger GET itself was consumed above).
            let reset_get = self.config.stop_drops_on_reset_get && !insight.new_gets.is_empty();
            if window_over || reset_get {
                self.controller.stop_drops();
                self.drop_window_end = Some(self.drop_window_end.map_or(now, |e| e.min(now)));
                if self.config.post_spacing.is_some() {
                    self.controller.set_jitter(self.config.post_spacing);
                }
                if self.config.gate_until_quiet {
                    self.controller.start_gating();
                    self.s2c_seen_since_serialize = false;
                    self.serialize_at = Some(now);
                }
                self.enter(now, AttackPhase::Serializing);
            }
        }

        // Push any bandwidth change into the gateway.
        if let Some(rate) = self.controller.take_bandwidth_change() {
            ctx.shaping.set_rate_both(rate);
        }

        // Verdict.
        let has_payload = !packet.payload.payload.is_empty();
        match ctx.dir {
            Dir::LeftToRight if has_payload => {
                let seg = &packet.payload;
                // "Quiet" for the gate means: the post-reset recovery has
                // visibly run and then subsided — or the deadline passed
                // (there was nothing left to recover).
                let drained = self.s2c_seen_since_serialize
                    && now.saturating_since(self.last_s2c_data) >= self.config.quiet_gap;
                let deadline_passed = self
                    .serialize_at
                    .is_some_and(|t| now.saturating_since(t) >= self.config.gate_deadline);
                let s2c_quiet = drained || deadline_passed;
                match self.controller.decide_c2s(
                    now,
                    insight.new_gets.len(),
                    seg.seq,
                    seg.seq_end(),
                    s2c_quiet,
                ) {
                    C2sDecision::Forward => Verdict::Forward,
                    C2sDecision::Hold(hold) => Verdict::Hold(hold),
                    C2sDecision::Gate => Verdict::Drop,
                }
            }
            Dir::RightToLeft if has_payload => {
                if self.controller.should_drop_s2c(now, ctx.rng) {
                    Verdict::Drop
                } else {
                    self.last_s2c_data = now;
                    if self.phase == AttackPhase::Serializing {
                        self.s2c_seen_since_serialize = true;
                    }
                    Verdict::Forward
                }
            }
            _ => Verdict::Forward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_netsim::{NodeId, ShapingState, SimRng};
    use h2priv_tcp::{Seq, TcpFlags};
    use h2priv_tls::{ContentType, RecordCipher, RecordWriter};

    struct World {
        adv: Adversary,
        rng: SimRng,
        shaping: ShapingState,
        writer: RecordWriter,
        next_seq: u32,
        sent_syn: bool,
    }

    impl World {
        fn new(config: AttackConfig) -> Self {
            World {
                adv: Adversary::new(config),
                rng: SimRng::seed_from(1),
                shaping: ShapingState::default(),
                writer: RecordWriter::new(RecordCipher::new(1, 1)),
                next_seq: 101,
                sent_syn: false,
            }
        }

        fn feed(&mut self, dir: Dir, seg: TcpSegment, at: SimTime) -> Verdict {
            let (src, dst) = match dir {
                Dir::LeftToRight => (NodeId(0), NodeId(2)),
                Dir::RightToLeft => (NodeId(2), NodeId(0)),
            };
            let packet = Packet::new(src, dst, seg.wire_bytes(), seg);
            let mut ctx = MbContext {
                now: at,
                dir,
                rng: &mut self.rng,
                shaping: &mut self.shaping,
            };
            self.adv.process(&packet, &mut ctx)
        }

        fn send_get(&mut self, at: SimTime) -> Verdict {
            if !self.sent_syn {
                self.sent_syn = true;
                self.feed(
                    Dir::LeftToRight,
                    TcpSegment {
                        seq: Seq(100),
                        ack: Seq(0),
                        flags: TcpFlags::SYN,
                        window: 0,
                        payload: h2priv_bytes::SharedBytes::new(),
                    },
                    SimTime::ZERO,
                );
                // Preface- and SETTINGS-like records are skipped by the
                // monitor (skip_initial = 2).
                for len in [24usize, 48] {
                    let wire = self
                        .writer
                        .seal_message(ContentType::ApplicationData, &vec![0u8; len]);
                    let seq = self.next_seq;
                    self.next_seq += wire.len() as u32;
                    self.feed(
                        Dir::LeftToRight,
                        TcpSegment {
                            seq: Seq(seq),
                            ack: Seq(0),
                            flags: TcpFlags::ACK,
                            window: 0,
                            payload: wire.into(),
                        },
                        SimTime::ZERO,
                    );
                }
            }
            let wire = self
                .writer
                .seal_message(ContentType::ApplicationData, &[0u8; 60]);
            let seq = self.next_seq;
            self.next_seq += wire.len() as u32;
            self.feed(
                Dir::LeftToRight,
                TcpSegment {
                    seq: Seq(seq),
                    ack: Seq(0),
                    flags: TcpFlags::ACK,
                    window: 0,
                    payload: wire.into(),
                },
                at,
            )
        }

        fn s2c_data(&mut self, at: SimTime) -> Verdict {
            self.feed(
                Dir::RightToLeft,
                TcpSegment {
                    seq: Seq(5_000),
                    ack: Seq(0),
                    flags: TcpFlags::ACK,
                    window: 0,
                    payload: vec![0xAA; 500].into(),
                },
                at,
            )
        }
    }

    #[test]
    fn jitter_only_delays_cumulatively() {
        let mut w = World::new(AttackConfig::jitter_only(SimDuration::from_millis(50)));
        assert_eq!(w.send_get(SimTime::ZERO), Verdict::Forward);
        match w.send_get(SimTime::from_millis(1)) {
            Verdict::Hold(d) => assert_eq!(d, SimDuration::from_millis(50)),
            other => panic!("expected hold, got {other:?}"),
        }
        match w.send_get(SimTime::from_millis(2)) {
            Verdict::Hold(d) => assert_eq!(d, SimDuration::from_millis(100)),
            other => panic!("expected hold, got {other:?}"),
        }
        assert_eq!(w.adv.gets_seen(), 3);
    }

    #[test]
    fn trigger_get_starts_disruption() {
        let mut w = World::new(AttackConfig::paper_attack());
        for i in 0..5 {
            w.send_get(SimTime::from_millis(i * 200));
        }
        assert_eq!(w.adv.phase(), AttackPhase::Observing);
        w.send_get(SimTime::from_millis(1_200));
        assert_eq!(w.adv.phase(), AttackPhase::Disrupting);
        // Bandwidth cap was applied to the gateway.
        assert_eq!(
            w.shaping.rate(Dir::RightToLeft),
            Some(h2priv_netsim::mbps(800))
        );
        // Server→client data is mostly dropped during the window.
        let mut drops = 0;
        for i in 0..100 {
            if w.s2c_data(SimTime::from_millis(1_300 + i)) == Verdict::Drop {
                drops += 1;
            }
        }
        assert!((60..=95).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn drop_window_expires_into_serializing() {
        let mut w = World::new(AttackConfig::paper_attack());
        for i in 0..6 {
            w.send_get(SimTime::from_millis(i * 200));
        }
        assert_eq!(w.adv.phase(), AttackPhase::Disrupting);
        let end = w.adv.drop_window_end().unwrap();
        // A packet after the window flips the phase and stops drops.
        assert_eq!(
            w.s2c_data(end + SimDuration::from_millis(1)),
            Verdict::Forward
        );
        assert_eq!(w.adv.phase(), AttackPhase::Serializing);
        // The channel is not yet quiet: the next GET is gated (dropped,
        // deferred to its TCP retransmission).
        let t = end + SimDuration::from_millis(10);
        assert_eq!(w.send_get(t), Verdict::Drop);
        // Once the server→client direction has been quiet long enough,
        // GETs flow on the fresh 80 ms schedule: first passes, second is
        // held a full 80 ms.
        let quiet = t + SimDuration::from_millis(500);
        w.send_get(quiet);
        match w.send_get(quiet + SimDuration::from_millis(1)) {
            Verdict::Hold(d) => assert_eq!(d, SimDuration::from_millis(80)),
            other => panic!("expected hold, got {other:?}"),
        }
    }

    #[test]
    fn pure_acks_pass_untouched() {
        let mut w = World::new(AttackConfig::paper_attack());
        let v = w.feed(
            Dir::LeftToRight,
            TcpSegment {
                seq: Seq(1),
                ack: Seq(2),
                flags: TcpFlags::ACK,
                window: 0,
                payload: h2priv_bytes::SharedBytes::new(),
            },
            SimTime::from_millis(5),
        );
        assert_eq!(v, Verdict::Forward);
    }

    #[test]
    fn phase_log_records_transitions() {
        let mut w = World::new(AttackConfig::paper_attack());
        for i in 0..6 {
            w.send_get(SimTime::from_millis(i * 100));
        }
        let log = w.adv.phase_log();
        assert_eq!(log[0].1, AttackPhase::Observing);
        assert_eq!(log.last().unwrap().1, AttackPhase::Disrupting);
    }
}
