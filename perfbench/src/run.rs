//! One benchmark run: set-up, timed rounds, checks, and the metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use h2priv_bytes::count_alloc;

use crate::ops::{Counts, Mode, PaperScore, UnitOut};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Span;
use crate::workload::{self, Setup, Workload};

/// Set-ups timed after each untraced round; `setup_s` is the median of
/// all of a run's.
pub const SETUPS_PER_ROUND: usize = 4;
/// Fewest timed rounds per run (per kind, in a traced run).
pub const MIN_ROUNDS: usize = 3;
/// The longest timed phase: `--seconds` may not exceed it, and no round
/// starts after it, whatever [`MIN_ROUNDS`] says, so a run ends well
/// inside three minutes.
pub const HARD_CAP: Duration = Duration::from_secs(120);

/// The command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted over all timed rounds.
    pub attempted: u64,
    /// Ops failed over all timed rounds.
    pub failed: u64,
    /// The reported metrics (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Problems found by the checks.
    pub problems: Vec<String>,
    /// Digest of one round's outputs.
    pub digest: u64,
    /// One round's exact counts.
    pub counts: Counts,
    /// Human-readable notes (Table II line, percentile used, ...).
    pub notes: Vec<String>,
    /// Spans of the traced rounds, one list per unit.
    pub spans: Vec<Vec<Span>>,
}

/// What a round left behind, reduced to what the metrics need.
#[derive(Debug, Clone)]
struct Round {
    wall_ns: u64,
    peak_bytes: u64,
    digest: u64,
    counts: Counts,
    busy_ns: u64,
    /// (host ns, ops) per unit that carries ops.
    op_units: Vec<(u64, u64)>,
}

fn reduce(units: &[UnitOut], wall_ns: u64, peak_bytes: u64) -> Round {
    Round {
        wall_ns,
        peak_bytes,
        digest: workload::round_digest(units),
        counts: workload::round_counts(units),
        busy_ns: units.iter().map(|u| u.host_ns).sum(),
        op_units: units
            .iter()
            .filter(|u| u.counts.ops > 0)
            .map(|u| (u.host_ns, u.counts.ops))
            .collect(),
    }
}

fn timed_round(w: Workload, setup: &Setup, seed: u64, mode: Mode) -> (Vec<UnitOut>, u64, u64) {
    let t0 = Instant::now();
    let (units, peak) =
        count_alloc::measure_peak_bytes(|| workload::run_round(w, setup, seed, mode));
    (units, t0.elapsed().as_nanos() as u64, peak)
}

/// Runs the benchmark as `args` ask, on `workers` workers.
pub fn run(args: &Args, workers: usize) -> Report {
    let w = args.workload;
    let setup = workload::setup(workers);

    let plain = Mode {
        traced: false,
        checked: false,
    };
    let traced = Mode {
        traced: true,
        ..plain
    };
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<Round> = Vec::new();
    let mut traced_units: Vec<UnitOut> = Vec::new();
    let mut first: Option<Vec<UnitOut>> = None;
    let mut setup_s: Vec<f64> = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    loop {
        let round_start = t0.elapsed();
        let (units, wall, peak) = timed_round(w, &setup, args.seed, plain);
        rounds.push(reduce(&units, wall, peak));
        if first.is_none() {
            first = Some(units);
        }
        if args.trace {
            let (units, wall, peak) = timed_round(w, &setup, args.seed, traced);
            traced_rounds.push(reduce(&units, wall, peak));
            traced_units.extend(units);
        } else {
            // Timed between rounds rather than all before the first, so
            // `setup_s` samples the host over the same stretch as the
            // rounds do.
            setup_s.extend(workload::time_setups(workers, SETUPS_PER_ROUND));
        }
        // Stop at the round boundary nearest the budget.
        let last = t0.elapsed() - round_start;
        let done = t0.elapsed() + last / 2 >= budget && rounds.len() >= MIN_ROUNDS;
        if done || t0.elapsed() >= HARD_CAP {
            break;
        }
    }
    let timed_s = t0.elapsed().as_secs_f64();
    let first = first.expect("at least one round");

    let mut problems = workload::check_round(w, &first);
    if rounds
        .iter()
        .chain(&traced_rounds)
        .any(|r| r.digest != rounds[0].digest)
    {
        problems.push("round digests differ: outputs are not deterministic".to_owned());
    }
    // Capture-scan counts exist only in traced rounds; every other count
    // must repeat exactly in every round.
    let base = rounds[0].counts.named();
    let traced_base = traced_rounds.first().map(|r| r.counts);
    for r in rounds.iter().map(|r| r.counts).chain(
        traced_rounds
            .iter()
            .map(|r| r.counts.without_capture_scan()),
    ) {
        for ((name, a), (_, b)) in base.iter().zip(r.named()) {
            if *a != b {
                problems.push(format!("count {name} differs between rounds: {a} vs {b}"));
            }
        }
    }
    if traced_rounds.iter().any(|r| Some(r.counts) != traced_base) {
        problems.push("capture-scan counts differ between traced rounds".to_owned());
    }
    let check_start = Instant::now();
    problems.extend(workload::checked_pass(w, &setup, args.seed, workers));
    let check_s = check_start.elapsed().as_secs_f64();

    let counts = traced_rounds.first().unwrap_or(&rounds[0]).counts;
    let all_rounds = (rounds.len() + traced_rounds.len()) as u64;
    let mut notes = vec![format!(
        "{} untraced and {} traced rounds in {:.1} s; checked pass {check_s:.1} s",
        rounds.len(),
        traced_rounds.len(),
        timed_s
    )];
    if w == Workload::PaperAttack {
        let scores: Vec<PaperScore> = first.iter().filter_map(|u| u.paper).collect();
        let (html, ranks) = workload::table2(&scores);
        notes.push(format!(
            "Table II (all at once, {} trials): HTML {html:.1}%, I1..I8 {}",
            scores.len(),
            ranks.map(|r| format!("{r:.1}%")).join(" ")
        ));
    }
    if let Some(score) = first
        .last()
        .and_then(|u| u.paper)
        .filter(|_| w == Workload::FleetStream)
    {
        notes.push(format!("fleet victim HTML recovered: {}", score.html));
    }
    let metrics = if args.trace {
        per_layer(&rounds, &traced_rounds, &traced_units, &first, workers)
    } else {
        end_to_end(&setup_s, &rounds, &mut notes)
    };
    Report {
        correct: problems.is_empty(),
        attempted: counts.ops * all_rounds,
        failed: counts.failed * all_rounds,
        metrics,
        problems,
        digest: rounds[0].digest,
        counts,
        notes,
        spans: traced_units.into_iter().map(|u| u.spans).collect(),
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// The end-to-end metrics of the untraced rounds.
fn end_to_end(setup_s: &[f64], rounds: &[Round], notes: &mut Vec<String>) -> Vec<Metric> {
    let n = rounds.len();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
    let per_op: Vec<f64> = rounds
        .iter()
        .map(|r| r.wall_ns as f64 / r.counts.ops.max(1) as f64)
        .collect();
    // Each op's host time is its median over the rounds (every round
    // repeats the same ops), which keeps a noisy stretch of the host out
    // of the percentiles. A fleet pair is charged its shard's time divided
    // evenly over the shard's pairs.
    let mut op_ms = Vec::new();
    for (i, &(_, ops)) in rounds[0].op_units.iter().enumerate() {
        let each: Vec<f64> = rounds
            .iter()
            .map(|r| r.op_units[i].0 as f64 / 1e6 / ops as f64)
            .collect();
        op_ms.extend(std::iter::repeat_n(median(&each), ops as usize));
    }
    let tail = tail_percentile(op_ms.len()).unwrap_or(50);
    notes.push(format!(
        "op_ms_p99 is the p{tail} of {} ops, each the median of its {n} repeats",
        op_ms.len()
    ));
    let peaks: Vec<f64> = rounds
        .iter()
        .map(|r| r.peak_bytes as f64 / (1024.0 * 1024.0))
        .collect();
    let failed: u64 = rounds.iter().map(|r| r.counts.failed).sum();
    let attempted: u64 = rounds.iter().map(|r| r.counts.ops).sum();
    notes.push(format!(
        "failed_frac {} ratio (n={attempted})",
        failed as f64 / attempted.max(1) as f64
    ));
    vec![
        metric("setup_s", median(setup_s), "s", setup_s.len()),
        metric("wall_s", median(&walls), "s", n),
        metric("ns_per_op", median(&per_op), "ns", n),
        metric("op_ms_p50", median(&op_ms), "ms", op_ms.len()),
        metric(
            "op_ms_p99",
            percentile(&op_ms, f64::from(tail)),
            "ms",
            op_ms.len(),
        ),
        metric("peak_heap_mib", median(&peaks), "MiB", n),
    ]
}

/// Span durations by name over the traced units.
#[derive(Default)]
struct SpanTable {
    durs: BTreeMap<&'static str, Vec<f64>>,
}

impl SpanTable {
    fn new(units: &[UnitOut]) -> SpanTable {
        let mut t = SpanTable::default();
        for s in units.iter().flat_map(|u| &u.spans) {
            t.durs.entry(s.name).or_default().push(s.dur_ns() as f64);
        }
        t
    }

    fn total(&self, name: &str) -> f64 {
        self.durs.get(name).map_or(0.0, |v| v.iter().sum())
    }

    fn median(&self, name: &str) -> f64 {
        self.durs.get(name).map_or(0.0, |v| median(v))
    }

    fn count(&self, name: &str) -> usize {
        self.durs.get(name).map_or(0, Vec::len)
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(
    rounds: &[Round],
    traced_rounds: &[Round],
    traced_units: &[UnitOut],
    first: &[UnitOut],
    workers: usize,
) -> Vec<Metric> {
    let c = traced_rounds[0].counts;
    let ops = c.ops.max(1) as f64;
    let per_op = |v: u64| v as f64 / ops;
    let spans = SpanTable::new(traced_units);
    // The program's own simulation time: run_scenario, run_dos_trial, or
    // run_fleet_shard.
    let sim_ns = spans.total("testkit.simulate") + spans.total("testkit.shard");
    let adv_ns = spans.total("core.adversary");
    let tr_rounds = traced_rounds.len().max(1) as f64;
    let traced_calls = c.adversary_calls as f64 * tr_rounds;
    let kib = c.tls_plaintext_bytes as f64 * tr_rounds / 1024.0;
    let busy: Vec<f64> = rounds
        .iter()
        .map(|r| r.busy_ns as f64 / (r.wall_ns as f64 * workers as f64))
        .collect();
    // The slowest shard of each traced round (0 without shards).
    let shard_max: Vec<f64> = traced_units
        .chunks(first.len())
        .map(|round| {
            round
                .iter()
                .flat_map(|u| u.spans.iter().filter(|s| s.name == "testkit.shard"))
                .map(|s| s.dur_ns() as f64)
                .fold(0.0, f64::max)
        })
        .collect();
    let sizes: Vec<f64> = traced_units[..first.len()]
        .iter()
        .flat_map(|u| u.record_sizes.iter().map(|&s| f64::from(s)))
        .collect();
    let sim_ms = |f: fn(&UnitOut) -> Option<u64>| -> Vec<f64> {
        first
            .iter()
            .filter_map(f)
            .map(|ns| ns as f64 / 1e6)
            .collect()
    };
    let shed = sim_ms(|u| u.shed_ns);
    let detect = sim_ms(|u| u.detect_ns);
    let wall_plain = median(&rounds.iter().map(|r| r.wall_ns as f64).collect::<Vec<_>>());
    let wall_traced = median(
        &traced_rounds
            .iter()
            .map(|r| r.wall_ns as f64)
            .collect::<Vec<_>>(),
    );
    let n_traced = traced_units.len();
    // Simulation time per op: the span around run_scenario or
    // run_dos_trial, or for a fleet pair its shard's span divided over the
    // shard's pairs.
    let sim_us: Vec<f64> = traced_units
        .iter()
        .flat_map(|u| {
            u.spans
                .iter()
                .filter(|s| s.name == "testkit.simulate" || s.name == "testkit.shard")
                .flat_map(move |s| {
                    let ops = u.counts.ops.max(1);
                    std::iter::repeat_n(s.dur_ns() as f64 / 1e3 / ops as f64, ops as usize)
                })
        })
        .collect();
    vec![
        metric("runner.busy_frac", median(&busy), "ratio", busy.len()),
        metric(
            "testkit.build_us",
            spans.median("testkit.build") / 1e3,
            "us",
            spans.count("testkit.build"),
        ),
        metric("testkit.simulate_us", median(&sim_us), "us", sim_us.len()),
        metric(
            "testkit.shard_s_p50",
            spans.median("testkit.shard") / 1e9,
            "s",
            spans.count("testkit.shard"),
        ),
        metric(
            "testkit.shard_s_max",
            median(&shard_max) / 1e9,
            "s",
            shard_max.len(),
        ),
        metric(
            "testkit.merge_ms",
            spans.median("testkit.merge") / 1e6,
            "ms",
            spans.count("testkit.merge"),
        ),
        metric(
            "testkit.peak_resident_pairs",
            c.peak_resident_pairs as f64,
            "count",
            1,
        ),
        metric(
            "netsim.events_per_op",
            per_op(c.events),
            "count",
            c.ops as usize,
        ),
        metric(
            "netsim.near_inserts_per_op",
            per_op(c.near_inserts),
            "count",
            c.ops as usize,
        ),
        metric(
            "netsim.far_inserts_per_op",
            per_op(c.far_inserts),
            "count",
            c.ops as usize,
        ),
        metric(
            "netsim.promotions_per_op",
            per_op(c.promotions),
            "count",
            c.ops as usize,
        ),
        metric(
            "netsim.ns_per_event",
            sim_ns / (c.events as f64 * tr_rounds),
            "ns",
            n_traced,
        ),
        metric(
            "core.adversary_calls_per_op",
            per_op(c.adversary_calls),
            "count",
            c.ops as usize,
        ),
        metric(
            "core.adversary_ns_per_call",
            adv_ns / traced_calls,
            "ns",
            spans.count("core.adversary"),
        ),
        metric(
            "core.adversary_share",
            adv_ns / sim_ns,
            "ratio",
            spans.count("core.adversary"),
        ),
        metric(
            "core.adversary_holds_per_op",
            per_op(c.adversary_holds),
            "count",
            c.ops as usize,
        ),
        metric(
            "core.adversary_drops_per_op",
            per_op(c.adversary_drops),
            "count",
            c.ops as usize,
        ),
        metric(
            "tcp.segments_per_op",
            per_op(c.tcp_segments),
            "count",
            c.ops as usize,
        ),
        metric(
            "tcp.retransmits_per_op",
            per_op(c.tcp_retransmits),
            "count",
            c.ops as usize,
        ),
        metric(
            "tcp.timeouts_per_op",
            per_op(c.tcp_timeouts),
            "count",
            c.ops as usize,
        ),
        metric(
            "tcp.dup_acks_per_op",
            per_op(c.tcp_dup_acks),
            "count",
            c.ops as usize,
        ),
        metric(
            "tls.records_per_op",
            per_op(c.tls_records),
            "count",
            c.ops as usize,
        ),
        metric("tls.record_bytes_p50", median(&sizes), "bytes", sizes.len()),
        metric(
            "tls.seal_ns_per_kib",
            spans.total("tls.seal") / kib,
            "ns",
            spans.count("tls.seal"),
        ),
        metric(
            "tls.open_ns_per_kib",
            spans.total("tls.open") / kib,
            "ns",
            spans.count("tls.open"),
        ),
        metric(
            "tls.replay_share",
            spans.total("tls.replay") / sim_ns,
            "ratio",
            spans.count("tls.replay"),
        ),
        metric(
            "http2.data_frames_per_op",
            per_op(c.h2_data_frames),
            "count",
            c.ops as usize,
        ),
        metric(
            "http2.headers_per_op",
            per_op(c.h2_headers),
            "count",
            c.ops as usize,
        ),
        metric(
            "http2.resets_per_op",
            per_op(c.h2_resets),
            "count",
            c.ops as usize,
        ),
        metric(
            "http2.window_stalls_per_op",
            per_op(c.h2_window_stalls),
            "count",
            c.ops as usize,
        ),
        metric(
            "http2.settings_rx_per_op",
            per_op(c.h2_settings_rx),
            "count",
            c.ops as usize,
        ),
        metric(
            "web.requests_per_op",
            per_op(c.web_requests),
            "count",
            c.ops as usize,
        ),
        metric(
            "web.reissues_per_op",
            per_op(c.web_reissues),
            "count",
            c.ops as usize,
        ),
        metric(
            "web.pool_parked_per_op",
            per_op(c.web_pool_parked),
            "count",
            c.ops as usize,
        ),
        metric(
            "dos.attacker_frames_per_op",
            per_op(c.dos_attacker_frames),
            "count",
            c.ops as usize,
        ),
        metric("dos.shed_ms_p50", median(&shed), "sim_ms", shed.len()),
        metric("dos.detect_ms_p50", median(&detect), "sim_ms", detect.len()),
        metric(
            "analysis.analyze_us",
            spans.median("analysis.analyze") / 1e3,
            "us",
            spans.count("analysis.analyze"),
        ),
        metric(
            "analysis.extract_us",
            spans.median("analysis.extract") / 1e3,
            "us",
            spans.count("analysis.extract"),
        ),
        metric(
            "analysis.bursts_per_op",
            per_op(c.analysis_bursts),
            "count",
            c.ops as usize,
        ),
        metric(
            "bytes.allocs_per_op",
            per_op(c.allocs),
            "count",
            c.ops as usize,
        ),
        metric(
            "trace.overhead_frac",
            wall_traced / wall_plain - 1.0,
            "ratio",
            traced_rounds.len(),
        ),
    ]
}
