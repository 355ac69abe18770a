//! The benchmark's ops, rebuilt from each crate's public calls.
//!
//! Every op times its calls from here, never from inside the program: the
//! adversary sits in a [`TimedAdversary`] in the public adversary slot,
//! the h2 and TCP counters are read through the `Rc` host handles the
//! scenario returns, and the capture is re-scanned keylessly with
//! `extract_records` in traced runs only.

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::time::Instant;

use h2priv_analysis::{app_data_records, extract_records, segment_bursts, RecordEvent};
use h2priv_bytes::count_alloc;
use h2priv_core::experiment::{
    analyze_capture, objects_of_interest, paper_scenario, AdversarySnapshot, TrialAnalysis,
    BURST_GAP,
};
use h2priv_core::{Adversary, AttackConfig, SizeMap};
use h2priv_dos::{DetectorConfig, DosAttack, DosConfig, GuardConfig};
use h2priv_netsim::{Dir, SimDuration, SimTime, StopReason};
use h2priv_testkit::fleet::{
    merge_shards, run_fleet_shard, shard_of_pair, FleetConfig, ShardResult,
};
use h2priv_testkit::{
    build_scenario, run_dos_trial, run_scenario, App, DosRunResult, DosScenarioConfig, HostCore,
    RunResult,
};
use h2priv_tls::{Role, TlsSession};
use h2priv_web::{isidewith, PoolConfig};

use crate::stats::Digest;
use crate::trace::{AdversaryTally, Span, TimedAdversary, Tracer};

/// How an op runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Record spans and time per-packet calls.
    pub traced: bool,
    /// Attach the conformance oracle.
    pub checked: bool,
}

macro_rules! counts {
    ($($field:ident => $name:literal),* $(,)?) => {
        /// Exact work counts, summed over ops.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts {
            $(#[doc = $name] pub $field: u64,)*
        }

        impl Counts {
            /// Adds `other` field by field.
            pub fn add(&mut self, other: &Counts) {
                $(self.$field += other.$field;)*
            }

            /// Every count with its name.
            pub fn named(&self) -> Vec<(&'static str, u64)> {
                vec![$(($name, self.$field)),*]
            }
        }
    };
}

counts! {
    ops => "ops",
    failed => "failed",
    events => "netsim.events",
    near_inserts => "netsim.near_inserts",
    far_inserts => "netsim.far_inserts",
    promotions => "netsim.promotions",
    adversary_calls => "core.adversary_calls",
    adversary_holds => "core.adversary_holds",
    adversary_drops => "core.adversary_drops",
    tcp_segments => "tcp.segments",
    tcp_retransmits => "tcp.retransmits",
    tcp_timeouts => "tcp.timeouts",
    tcp_dup_acks => "tcp.dup_acks",
    tls_records => "tls.records",
    tls_plaintext_bytes => "tls.plaintext_bytes",
    h2_data_frames => "http2.data_frames",
    h2_headers => "http2.headers",
    h2_resets => "http2.resets",
    h2_window_stalls => "http2.window_stalls",
    h2_settings_rx => "http2.settings_rx",
    web_requests => "web.requests",
    web_reissues => "web.reissues",
    web_pool_parked => "web.pool_parked",
    dos_attacker_frames => "dos.attacker_frames",
    analysis_bursts => "analysis.bursts",
    allocs => "bytes.allocs",
    peak_resident_pairs => "testkit.peak_resident_pairs",
    violations => "conformance.violations",
}

impl Counts {
    /// These counts without the ones only a traced run's capture scan
    /// takes (TLS records and bytes, bursts): what an untraced run of the
    /// same ops must count exactly.
    pub fn without_capture_scan(mut self) -> Counts {
        self.tls_records = 0;
        self.tls_plaintext_bytes = 0;
        self.analysis_bursts = 0;
        self
    }
}

/// The §V score of one analyzed page load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaperScore {
    /// The HTML met the §II-A criterion (degree 0 and identified).
    pub html: bool,
    /// Per display rank: the image shown at that rank was predicted
    /// correctly (Table II "all at once").
    pub rank_correct: [bool; 8],
}

/// What one unit of work (an op, or a fleet shard) produced.
#[derive(Debug, Clone, Default)]
pub struct UnitOut {
    /// Exact counts (`ops` is 1 for an op, the shard's pairs for a shard).
    pub counts: Counts,
    /// Host time of the unit, ns.
    pub host_ns: u64,
    /// Digest of the unit's deterministic outputs.
    pub digest: u64,
    /// Spans (traced runs only).
    pub spans: Vec<Span>,
    /// Plaintext sizes of the app-data records in the capture (traced
    /// runs only).
    pub record_sizes: Vec<u32>,
    /// Simulated time at which the guard shed the attacker, ns.
    pub shed_ns: Option<u64>,
    /// Simulated first-alert latency after the attack started, ns.
    pub detect_ns: Option<u64>,
    /// §V score, for analyzed page loads.
    pub paper: Option<PaperScore>,
    /// Why the op failed, if it did (it is then counted in
    /// `counts.failed`).
    pub failure: Option<String>,
    /// Output checks this unit broke.
    pub problems: Vec<String>,
}

impl UnitOut {
    fn fail(&mut self, why: String) {
        if self.failure.is_none() {
            self.failure = Some(why);
        }
        self.counts.failed = self.counts.ops.max(1);
    }
}

/// Runs `body` as one unit: times it, counts its allocations on this
/// thread, and turns a panic into a failed op.
fn unit(ops: u64, body: impl FnOnce(&mut UnitOut)) -> UnitOut {
    let mut out = UnitOut::default();
    out.counts.ops = ops;
    let t0 = Instant::now();
    let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| body(&mut out))).is_err();
    out.host_ns = t0.elapsed().as_nanos() as u64;
    if panicked {
        out.fail("panicked".to_owned());
    }
    out
}

/// Runs `f` with this thread's allocations counted into `allocs`.
fn counted<R>(allocs: &mut u64, f: impl FnOnce() -> R) -> R {
    let (r, n) = count_alloc::measure(f);
    *allocs += n;
    r
}

fn snapshot(adv: &Adversary) -> AdversarySnapshot {
    AdversarySnapshot {
        phase_log: adv.phase_log().to_vec(),
        gets_seen: adv.gets_seen(),
        drop_window_end: adv.drop_window_end(),
        serialize_start: adv.serialize_start(),
        gate_released_at: adv.gate_released_at(),
        controller: adv.controller_stats(),
    }
}

fn add_tally(c: &mut Counts, t: AdversaryTally) {
    c.adversary_calls += t.calls;
    c.adversary_holds += t.holds;
    c.adversary_drops += t.drops;
}

fn add_run_counts(c: &mut Counts, r: &RunResult, client: &HostCore, server: &HostCore) {
    c.events += r.events;
    c.near_inserts += r.sched.near_inserts;
    c.far_inserts += r.sched.far_inserts;
    c.promotions += r.sched.promotions;
    let (ct, st) = (&r.client_tcp, &r.server_tcp);
    c.tcp_segments += ct.segments_sent + st.segments_sent;
    c.tcp_retransmits += r.total_retransmissions();
    c.tcp_timeouts += ct.timeouts + st.timeouts;
    c.tcp_dup_acks += ct.dup_acks_received + st.dup_acks_received;
    for h in [client.h2.stats(), server.h2.stats()] {
        c.h2_data_frames += h.data_frames_sent;
        c.h2_headers += h.headers_sent;
        c.h2_resets += h.resets_sent;
        c.h2_window_stalls += h.conn_window_stalls;
        c.h2_settings_rx += h.settings_received;
    }
    if let App::Server(s) = &server.app {
        c.web_requests += s.requests_seen();
    }
    c.web_reissues += r
        .outcomes
        .iter()
        .map(|o| o.issued_at.len().saturating_sub(1) as u64)
        .sum::<u64>();
    c.violations += r.violations_total;
}

fn digest_run(d: &mut Digest, r: &RunResult) {
    d.word(r.events)
        .word(r.broken as u64)
        .word(r.violations_total);
    for o in &r.outcomes {
        d.word(o.object.0 as u64)
            .words(o.issued_at.iter().map(|t| t.as_nanos()))
            .word(o.completed_at.map_or(u64::MAX, |t| t.as_nanos()))
            .word(o.bytes)
            .word(o.failed as u64);
    }
    d.word(r.trace.packets.len() as u64);
}

fn problem_if(out: &mut UnitOut, bad: bool, what: impl FnOnce() -> String) {
    if bad {
        out.problems.push(what());
    }
}

/// Traced-only capture accounting: the keyless record scan (the
/// `analysis.extract` span), burst count, and the TLS replay of the
/// observed record sizes (the `tls.replay` span).
fn scan_capture(
    out: &mut UnitOut,
    tr: &mut Tracer,
    root: usize,
    trace: &h2priv_analysis::WireTrace,
    analysis_start: Option<SimTime>,
) {
    let records = tr.span("analysis.extract", Some(root), || extract_records(trace));
    let app: Vec<RecordEvent> = records
        .iter()
        .filter(|r| r.content_type == h2priv_tls::ContentType::ApplicationData)
        .copied()
        .collect();
    out.counts.tls_records += app.len() as u64;
    out.counts.tls_plaintext_bytes += app.iter().map(|r| r.plaintext_len() as u64).sum::<u64>();
    out.record_sizes
        .extend(app.iter().map(|r| r.plaintext_len() as u32));
    let mut s2c = app_data_records(&records, Dir::RightToLeft);
    if let Some(start) = analysis_start {
        s2c.retain(|r| r.time >= start);
    }
    out.counts.analysis_bursts += segment_bursts(&s2c, BURST_GAP).len() as u64;
    let replay = tr.open("tls.replay", Some(root));
    match replay_records(&app) {
        Ok((seal_ns, open_ns)) => {
            tr.summed("tls.seal", replay, seal_ns);
            tr.summed("tls.open", replay, open_ns);
        }
        Err(e) => out.problems.push(format!("tls replay: {e}")),
    }
    tr.close(replay);
}

/// Replays the observed app-data record sizes through a fresh
/// client/server `TlsSession` pair, sealing each record on its sender and
/// opening it on its receiver. Returns the summed (seal, open) host ns.
fn replay_records(records: &[RecordEvent]) -> Result<(u64, u64), String> {
    let mut client = TlsSession::new(Role::Client, 0x5EED);
    let mut server = TlsSession::new(Role::Server, 0x5EED);
    let hello = client
        .initial_flight()
        .ok_or("client has no first flight")?;
    let flight = server.receive(&hello).map_err(|e| format!("{e:?}"))?;
    let finish = client
        .receive(&flight.reply)
        .map_err(|e| format!("{e:?}"))?;
    let done = server
        .receive(&finish.reply)
        .map_err(|e| format!("{e:?}"))?;
    client.receive(&done.reply).map_err(|e| format!("{e:?}"))?;
    let payload = vec![0x5Au8; 1 << 15];
    let (mut wire, mut plain) = (Vec::new(), Vec::new());
    let (mut seal_ns, mut open_ns) = (0u64, 0u64);
    for r in records {
        let len = r.plaintext_len().min(payload.len());
        let (tx, rx) = match r.dir {
            Dir::LeftToRight => (&mut client, &mut server),
            Dir::RightToLeft => (&mut server, &mut client),
        };
        wire.clear();
        plain.clear();
        let t0 = Instant::now();
        tx.seal_app_data_into(std::hint::black_box(&payload[..len]), &mut wire)
            .map_err(|e| format!("{e:?}"))?;
        let t1 = Instant::now();
        rx.receive_into(std::hint::black_box(&wire), &mut plain)
            .map_err(|e| format!("{e:?}"))?;
        let t2 = Instant::now();
        seal_ns += (t1 - t0).as_nanos() as u64;
        open_ns += (t2 - t1).as_nanos() as u64;
        if plain.len() != len {
            return Err(format!(
                "opened {} bytes of a {len}-byte record",
                plain.len()
            ));
        }
    }
    Ok((seal_ns, open_ns))
}

/// The raw outputs of one §V page load as the benchmark rebuilds it.
#[derive(Debug)]
pub struct PaperRun {
    /// The scenario outcome.
    pub result: RunResult,
    /// The §V scoring of the capture.
    pub analysis: TrialAnalysis,
    /// The timing middlebox's verdict counts.
    pub tally: AdversaryTally,
    /// Where the adversary's analysis window began.
    pub analysis_start: Option<SimTime>,
    /// The run's exact counts (all but `ops` and `failed`).
    pub counts: Counts,
}

/// One §V page load under the paper's attack: `paper_scenario(seed)` →
/// `build_scenario` with the adversary in the timing middlebox →
/// `run_scenario` → `analyze_capture`, with spans under `root`. With
/// `dos_armed`, the server also runs the DoS guard and detector.
pub fn paper_run(
    map: &SizeMap,
    seed: u64,
    dos_armed: bool,
    mode: Mode,
    tr: &mut Tracer,
    root: usize,
) -> PaperRun {
    let mut counts = Counts::default();
    let attack = AttackConfig::paper_attack();
    let (iw, scenario, adv, tally) = tr.span("testkit.build", Some(root), || {
        counted(&mut counts.allocs, || {
            let (iw, mut cfg) = paper_scenario(seed);
            cfg.conformance = mode.checked;
            if dos_armed {
                cfg.dos_guard = Some(GuardConfig::default());
                cfg.dos_detector = Some(DetectorConfig::default());
            }
            let adv = Rc::new(RefCell::new(Adversary::new(attack.clone())));
            let (timed, tally) = TimedAdversary::new(adv.clone(), mode.traced);
            let scenario = build_scenario(&iw.site, &iw.plan, &cfg, Some(Box::new(timed)));
            (iw, scenario, adv, tally)
        })
    });
    let (client, server) = (scenario.client.clone(), scenario.server.clone());
    let sim = tr.open("testkit.simulate", Some(root));
    let result = counted(&mut counts.allocs, || run_scenario(scenario));
    tr.summed("core.adversary", sim, tally.get().ns);
    tr.close(sim);
    let analysis_start = snapshot(&adv.borrow()).analysis_start(&attack);
    let analysis = tr.span("analysis.analyze", Some(root), || {
        counted(&mut counts.allocs, || {
            analyze_capture(
                &result.trace,
                &result.truth,
                &iw,
                result.broken,
                map,
                &objects_of_interest(&iw),
                analysis_start,
            )
        })
    });
    add_tally(&mut counts, tally.get());
    add_run_counts(&mut counts, &result, &client.borrow(), &server.borrow());
    PaperRun {
        result,
        analysis,
        tally: tally.get(),
        analysis_start,
        counts,
    }
}

/// Digest of a page load's deterministic outputs: events, per-request
/// outcomes, capture length and the §V scoring.
pub fn paper_digest(result: &RunResult, analysis: &TrialAnalysis) -> u64 {
    let mut d = Digest::default();
    digest_run(&mut d, result);
    for o in &analysis.objects {
        d.word(o.success as u64)
            .word(o.identified as u64)
            .word(o.degree.map_or(u64::MAX, f64::to_bits));
    }
    d.words(analysis.predicted_parties.iter().map(|&p| p as u64));
    d.finish()
}

/// [`paper_run`] as one op of a workload, with its checks: the op fails
/// if the connection broke or the event budget ran out, and — when
/// `dos_armed` — if the benign trial raised an alert or was shed.
pub fn paper_op(map: &SizeMap, seed: u64, dos_armed: bool, mode: Mode) -> UnitOut {
    let mut tr = Tracer::new(mode.traced, seed);
    let root = tr.open("op", None);
    let mut out = unit(1, |out| {
        let run = paper_run(map, seed, dos_armed, mode, &mut tr, root);
        let (result, analysis) = (&run.result, &run.analysis);
        out.counts.add(&run.counts);
        let mut score = PaperScore {
            html: analysis.objects[0].success,
            ..PaperScore::default()
        };
        for (rank, ok) in analysis.rank_correct.iter().enumerate().take(8) {
            score.rank_correct[rank] = *ok;
        }
        out.paper = Some(score);
        out.digest = Digest::default()
            .word(paper_digest(result, analysis))
            .word(run.tally.calls)
            .word(run.tally.holds)
            .word(run.tally.drops)
            .finish();

        if result.stop == StopReason::EventBudgetExhausted {
            out.fail("event budget exhausted".to_owned());
        }
        if result.broken {
            out.fail("connection broke".to_owned());
        }
        if dos_armed {
            let guard = result.guard.unwrap_or_default();
            let kills = guard.header_timeouts
                + guard.progress_kills
                + guard.settings_floods
                + guard.hoard_closes;
            if kills > 0 || !result.dos_alerts.is_empty() {
                out.fail(format!(
                    "benign trial alerted ({}) or shed ({kills})",
                    result.dos_alerts.len()
                ));
            }
        }
        if tr.on() {
            scan_capture(out, &mut tr, root, &result.trace, run.analysis_start);
        }
    });
    tr.close(root);
    out.spans = tr.finish();
    out
}

/// The slow_dos trial configuration: `attack` unguarded (pool only) or
/// guarded (guard + detector + pool), over the canonical 30 s deadline.
pub fn dos_config(seed: u64, attack: DosAttack, guarded: bool, checked: bool) -> DosScenarioConfig {
    DosScenarioConfig {
        seed,
        attack: DosConfig::for_attack(attack),
        guard: guarded.then(GuardConfig::default),
        detector: guarded.then(DetectorConfig::default),
        pool: Some(PoolConfig::default()),
        deadline: SimDuration::from_secs(30),
        conformance: checked,
    }
}

/// Digest of a DoS trial's deterministic outputs.
pub fn dos_digest(r: &DosRunResult) -> u64 {
    Digest::default()
        .word(r.events)
        .word(r.shed_at.map_or(u64::MAX, |t| t.as_nanos()))
        .word(r.detection_latency.map_or(u64::MAX, |d| d.as_nanos()))
        .word(r.alerts.len() as u64)
        .word(r.attacker.frames_sent)
        .word(r.attacker.resets_received)
        .word(r.requests_seen)
        .word(r.pool_in_use as u64)
        .word(r.parser_held as u64)
        .word(r.pool_busy_until.as_nanos())
        .finish()
}

/// One slow-rate DoS trial, [`dos_config`] through `run_dos_trial`, with
/// its checks: a guarded attacker must be shed (else the op fails) and
/// detected, and the unguarded zero-window hoard must pin the whole pool.
pub fn dos_op(seed: u64, attack: DosAttack, guarded: bool, mode: Mode) -> UnitOut {
    let mut tr = Tracer::new(mode.traced, seed);
    let root = tr.open("op", None);
    let mut out = unit(1, |out| {
        let config = dos_config(seed, attack, guarded, mode.checked);
        let mut allocs = 0;
        let r = tr.span("testkit.simulate", Some(root), || {
            counted(&mut allocs, || run_dos_trial(&config))
        });
        let c = &mut out.counts;
        c.allocs = allocs;
        c.events = r.events;
        c.web_requests = r.requests_seen;
        c.web_pool_parked = r.pool.map_or(0, |p| p.parked);
        c.dos_attacker_frames = r.attacker.frames_sent;
        c.violations = r.violations_total;
        out.shed_ns = r.shed_at.map(|t| t.as_nanos());
        out.detect_ns = r.detection_latency.map(|d| d.as_nanos());
        out.digest = dos_digest(&r);

        let name = attack.name();
        if r.stop == StopReason::EventBudgetExhausted {
            out.fail("event budget exhausted".to_owned());
        }
        if guarded {
            if r.shed_at.is_none() {
                out.fail(format!("guarded {name} was not shed"));
            }
            let detected = r.alerts.iter().any(|a| a.kind.name() == name);
            problem_if(out, !detected, || {
                format!("guarded {name} was not detected")
            });
        } else if attack == DosAttack::ZeroWindowHoard {
            let cap = PoolConfig::default().capacity;
            problem_if(out, r.pool_in_use != cap, || {
                format!("unguarded {name} held {} of {cap} workers", r.pool_in_use)
            });
        }
    });
    tr.close(root);
    out.spans = tr.finish();
    out
}

/// One fleet shard via `run_fleet_shard`, with the timing-wrapped §V
/// adversary on the victim's chain when this is the victim shard. The
/// unit's ops are the shard's pairs.
pub fn fleet_shard(
    config: &FleetConfig,
    shard: u32,
    victim_shard: bool,
    mode: Mode,
) -> (UnitOut, Option<ShardResult>, Option<AdversarySnapshot>) {
    let mut tr = Tracer::new(mode.traced, u64::from(shard));
    let root = tr.open("op", None);
    let mut result = None;
    let mut snap = None;
    let pairs = (0..config.population)
        .filter(|&p| shard_of_pair(p, config.shards) == shard)
        .count() as u64;
    let mut out = unit(pairs, |out| {
        let adv = victim_shard
            .then(|| Rc::new(RefCell::new(Adversary::new(AttackConfig::paper_attack()))));
        let timed = adv.clone().map(|a| TimedAdversary::new(a, mode.traced));
        let (mb, tally) = match timed {
            Some((t, tally)) => (
                Some(Box::new(t) as Box<dyn h2priv_netsim::Middlebox<_>>),
                Some(tally),
            ),
            None => (None, None),
        };
        let sim = tr.open("testkit.shard", Some(root));
        let (r, allocs) = count_alloc::measure(|| run_fleet_shard(config, shard, mb));
        if let Some(tally) = &tally {
            tr.summed("core.adversary", sim, tally.get().ns);
        }
        tr.close(sim);
        let c = &mut out.counts;
        c.allocs = allocs;
        c.events = r.events;
        c.near_inserts = r.sched.near_inserts;
        c.far_inserts = r.sched.far_inserts;
        c.promotions = r.sched.promotions;
        c.web_requests = r.requests;
        c.web_pool_parked = r.pool.map_or(0, |p| p.parked);
        c.peak_resident_pairs = u64::from(r.peak_resident);
        c.violations = r.violations_total;
        if let Some(tally) = tally {
            add_tally(c, tally.get());
        }
        c.failed = u64::from(r.pairs.saturating_sub(r.completed));
        if c.failed > 0 {
            out.failure = Some(format!(
                "shard {shard}: {} of {} pairs did not complete",
                c.failed, r.pairs
            ));
        }
        if r.stop == StopReason::EventBudgetExhausted {
            out.fail(format!("shard {shard}: event budget exhausted"));
        }
        out.digest = Digest::default()
            .word(r.events)
            .word(r.end_time.as_nanos())
            .word(u64::from(r.completed))
            .word(u64::from(r.broken))
            .word(r.requests)
            .word(r.requests_complete)
            .word(u64::from(r.peak_resident))
            .finish();
        snap = adv.map(|a| snapshot(&a.borrow()));
        result = Some(r);
    });
    tr.close(root);
    out.spans = tr.finish();
    (out, result, snap)
}

/// Merges a fleet's shard results (`merge_shards`) and scores the victim
/// (`analyze_capture` on its HTML). The returned unit carries no ops; it
/// is the round's serial tail.
pub fn fleet_merge(
    config: &FleetConfig,
    map: &SizeMap,
    shards: Vec<ShardResult>,
    snap: Option<AdversarySnapshot>,
    mode: Mode,
) -> UnitOut {
    let mut tr = Tracer::new(mode.traced, u64::from(config.shards));
    let root = tr.open("op", None);
    let mut out = unit(0, |out| {
        let merged = tr.span("testkit.merge", Some(root), || {
            merge_shards(config.population, config.shards, shards)
        });
        let Some(victim) = merged.victim.as_ref() else {
            out.problems.push("no victim capture".to_owned());
            return;
        };
        let attack = AttackConfig::paper_attack();
        let start = snap.as_ref().and_then(|s| s.analysis_start(&attack));
        let iw = isidewith::build(&victim.golden_order);
        let analysis = tr.span("analysis.analyze", Some(root), || {
            analyze_capture(
                &victim.trace,
                &victim.truth,
                &iw,
                victim.broken,
                map,
                &[iw.html],
                start,
            )
        });
        out.paper = Some(PaperScore {
            html: analysis.objects[0].success,
            ..PaperScore::default()
        });
        out.digest = Digest::default()
            .word(merged.events)
            .word(u64::from(merged.completed))
            .word(analysis.objects[0].success as u64)
            .word(analysis.objects[0].degree.map_or(u64::MAX, f64::to_bits))
            .finish();
        problem_if(out, !analysis.objects[0].success, || {
            "fleet victim's HTML was not recovered".to_owned()
        });
        problem_if(out, merged.broken > 0, || {
            format!("{} fleet connections broke", merged.broken)
        });
        if tr.on() {
            scan_capture(out, &mut tr, root, &victim.trace, start);
        }
    });
    tr.close(root);
    out.spans = tr.finish();
    out
}
