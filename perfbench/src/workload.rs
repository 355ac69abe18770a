//! The three workloads: their fixed op batches, set-up, rounds, output
//! checks and the checked pass.
//!
//! A workload is a closed loop over a fixed batch of ops: at most two
//! workers pull the next op through `h2priv_bench::runner::run_seeded`,
//! and a *round* is one pass over the batch. Every op's seed derives from
//! the workload seed, so a round's outputs (and its digest and counts)
//! are identical on every pass and at any worker count.

use std::sync::Barrier;
use std::time::Instant;

use h2priv_bench::runner;
use h2priv_core::experiment::{calibrate_size_map, objects_of_interest, paper_scenario};
use h2priv_core::SizeMap;
use h2priv_dos::DosAttack;
use h2priv_testkit::fleet::{victim_shard, FleetConfig, FleetConformance};
use h2priv_web::isidewith;

use crate::ops::{self, Counts, Mode, PaperScore, UnitOut};
use crate::stats::{mix, Digest};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-pair §V trials under the paper's attack.
    PaperAttack,
    /// One cohort-streamed fleet population, victim under attack.
    FleetStream,
    /// Slow-rate DoS trials interleaved with guarded benign page loads.
    SlowDos,
}

/// Ops per paper_attack round: enough distinct ops that the p99 of op
/// time keeps ten ops beyond it.
pub const PAPER_BATCH: u64 = 1000;
/// Ops per slow_dos round: whole cycles of [`SLOW_DOS_CYCLE`], at least
/// 1000.
pub const SLOW_DOS_BATCH: u64 = 1008;
/// One slow_dos cycle: the 8 (attack × guard) DoS trials, then benign
/// page loads with the guard and detector armed.
pub const SLOW_DOS_CYCLE: u64 = 12;
/// Pairs in the fleet_stream population.
pub const FLEET_POPULATION: u32 = 1000;
/// Shards the fleet population is split over (fixed, not the worker
/// count, so outputs do not depend on it).
pub const FLEET_SHARDS: u32 = 8;
/// Pairs in the checked pass's smaller fleet population.
pub const FLEET_CHECK_POPULATION: u32 = 48;
/// Ops of the batch rerun in the checked pass.
pub const CHECK_OPS: u64 = 12;

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperAttack,
        Workload::FleetStream,
        Workload::SlowDos,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAttack => "paper_attack",
            Workload::FleetStream => "fleet_stream",
            Workload::SlowDos => "slow_dos",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops in one round.
    pub fn batch(self) -> u64 {
        match self {
            Workload::PaperAttack => PAPER_BATCH,
            Workload::FleetStream => u64::from(FLEET_POPULATION),
            Workload::SlowDos => SLOW_DOS_BATCH,
        }
    }
}

/// What set-up builds once per run and every round shares.
#[derive(Debug, Clone)]
pub struct Setup {
    /// The predictor's size map, calibrated as the paper's adversary did.
    pub map: SizeMap,
}

/// Set-up: calibrates the size map, then warms the worker pool to
/// `workers` threads and fills each thread's object-body cache (the
/// server memoizes every body per thread, so without this the first ops
/// on each thread would allocate more than later ones).
pub fn setup(workers: usize) -> Setup {
    let map = calibrate();
    runner::set_threads(workers);
    warm_body_cache();
    // Each job blocks until every worker holds one, so every pool thread
    // warms its own cache.
    let barrier = Barrier::new(workers);
    runner::run_seeded(workers as u64, |_| {
        barrier.wait();
        warm_body_cache();
    });
    Setup { map }
}

/// Host time of [`setup`]'s program work, `repeats` times over, in
/// seconds. Each repeat runs on a fresh thread, so it starts with empty
/// body caches: it calibrates the size map and warms the set-up thread's
/// cache, then warms one fresh thread per worker, one after another. The
/// workers run in turn rather than at once (and no pool is spawned), so
/// the figure is the set-up's own work, not how soon a busy host
/// schedules several threads together.
pub fn time_setups(workers: usize, repeats: usize) -> Vec<f64> {
    (0..repeats)
        .map(|_| {
            std::thread::spawn(move || {
                let t0 = Instant::now();
                std::hint::black_box(calibrate());
                warm_body_cache();
                for _ in 0..workers {
                    std::thread::spawn(warm_body_cache)
                        .join()
                        .expect("body-cache warm-up panicked");
                }
                t0.elapsed().as_secs_f64()
            })
            .join()
            .expect("set-up panicked")
        })
        .collect()
}

/// The predictor's size map, calibrated as the paper's adversary did.
fn calibrate() -> SizeMap {
    let (iw, _) = paper_scenario(0);
    calibrate_size_map(&objects_of_interest(&iw))
}

/// Generates every body the survey site can serve, under every rotation
/// of the party order, into this thread's body cache.
fn warm_body_cache() {
    for r in 0..8 {
        let order: Vec<usize> = (0..8).map(|i| (i + r) % 8).collect();
        for o in isidewith::build(&order).site.objects() {
            std::hint::black_box(o.shared_body());
        }
    }
}

/// The fleet population of workload seed `seed`.
pub fn fleet_config(seed: u64, population: u32, conformance: FleetConformance) -> FleetConfig {
    FleetConfig {
        seed: mix(seed, 0xF1EE7),
        population,
        shards: FLEET_SHARDS,
        conformance,
        cohort: Some(64),
        ..FleetConfig::default()
    }
}

/// The slow_dos op at batch position `i`: `Some((attack, guarded))` for
/// a DoS trial, `None` for a benign page load.
pub fn slow_dos_kind(i: u64) -> Option<(DosAttack, bool)> {
    let k = i % SLOW_DOS_CYCLE;
    (k < 8).then(|| (DosAttack::all()[(k / 2) as usize], k % 2 == 1))
}

/// Runs ops `0..n` of workload `w` (seed `seed`) once; the last unit of a
/// fleet round is its merge.
pub fn run_ops(w: Workload, setup: &Setup, seed: u64, n: u64, mode: Mode) -> Vec<UnitOut> {
    match w {
        Workload::PaperAttack => {
            runner::run_seeded(n, |i| ops::paper_op(&setup.map, mix(seed, i), false, mode))
        }
        Workload::SlowDos => runner::run_seeded(n, |i| {
            let op_seed = mix(seed, i);
            match slow_dos_kind(i) {
                Some((attack, guarded)) => ops::dos_op(op_seed, attack, guarded, mode),
                None => ops::paper_op(&setup.map, op_seed, true, mode),
            }
        }),
        Workload::FleetStream => {
            let conformance = if mode.checked {
                FleetConformance::Full
            } else {
                FleetConformance::Off
            };
            let config = fleet_config(seed, n as u32, conformance);
            let vs = victim_shard(&config);
            let shards = runner::run_seeded(u64::from(config.shards), |s| {
                ops::fleet_shard(&config, s as u32, s as u32 == vs, mode)
            });
            let mut units = Vec::with_capacity(shards.len() + 1);
            let mut results = Vec::with_capacity(shards.len());
            let mut snap = None;
            for (unit, result, s) in shards {
                units.push(unit);
                results.extend(result);
                snap = snap.or(s);
            }
            units.push(ops::fleet_merge(&config, &setup.map, results, snap, mode));
            units
        }
    }
}

/// Runs one round: the whole batch.
pub fn run_round(w: Workload, setup: &Setup, seed: u64, mode: Mode) -> Vec<UnitOut> {
    run_ops(w, setup, seed, w.batch(), mode)
}

/// The digest of a round's outputs, in op order.
pub fn round_digest(units: &[UnitOut]) -> u64 {
    Digest::default()
        .words(units.iter().map(|u| u.digest))
        .finish()
}

/// A round's counts, summed over its units.
pub fn round_counts(units: &[UnitOut]) -> Counts {
    let mut c = Counts::default();
    for u in units {
        c.add(&u.counts);
    }
    c
}

/// Table II band for paper_attack: the floor on HTML success and on each
/// display rank's "all at once" success, in percent. The paper measured
/// 90 (HTML) and 62–90 (ranks); this simulator's recorded run measures
/// 93–99 over 100 trials.
pub const TABLE2_HTML_FLOOR: f64 = 85.0;
/// See [`TABLE2_HTML_FLOOR`].
pub const TABLE2_RANK_FLOOR: f64 = 80.0;

/// HTML success and per-rank success, percent, over the scored units.
pub fn table2(scores: &[PaperScore]) -> (f64, [f64; 8]) {
    let n = scores.len().max(1) as f64;
    let pct =
        |f: &dyn Fn(&PaperScore) -> bool| scores.iter().filter(|s| f(s)).count() as f64 * 100.0 / n;
    let mut ranks = [0.0; 8];
    for (r, slot) in ranks.iter_mut().enumerate() {
        *slot = pct(&|s: &PaperScore| s.rank_correct[r]);
    }
    (pct(&|s: &PaperScore| s.html), ranks)
}

/// Every output-check problem and op failure the units reported.
pub fn unit_problems(units: &[UnitOut]) -> Vec<String> {
    let mut problems: Vec<String> = units.iter().flat_map(|u| u.problems.clone()).collect();
    problems.extend(units.iter().filter_map(|u| u.failure.clone()));
    problems
}

/// The workload's output checks over one round; returns every problem.
pub fn check_round(w: Workload, units: &[UnitOut]) -> Vec<String> {
    let mut problems = unit_problems(units);
    match w {
        Workload::PaperAttack => {
            let scores: Vec<PaperScore> = units.iter().filter_map(|u| u.paper).collect();
            let (html, ranks) = table2(&scores);
            if html < TABLE2_HTML_FLOOR {
                problems.push(format!(
                    "HTML success {html:.1}% is below the Table II floor {TABLE2_HTML_FLOOR}%"
                ));
            }
            for (r, pct) in ranks.iter().enumerate() {
                if *pct < TABLE2_RANK_FLOOR {
                    problems.push(format!(
                        "I{} success {pct:.1}% is below the Table II floor {TABLE2_RANK_FLOOR}%",
                        r + 1
                    ));
                }
            }
        }
        Workload::FleetStream => {
            if units.last().and_then(|u| u.paper).is_none() {
                problems.push("fleet victim was not scored".to_owned());
            }
        }
        Workload::SlowDos => {}
    }
    problems
}

/// The checked pass: reruns the first [`CHECK_OPS`] ops (for
/// fleet_stream, a [`FLEET_CHECK_POPULATION`]-pair population) with the
/// conformance oracle attached, at 1 worker and at `workers`. Returns the
/// problems found: any violation, or digests that differ between the two
/// worker counts.
pub fn checked_pass(w: Workload, setup: &Setup, seed: u64, workers: usize) -> Vec<String> {
    let n = match w {
        Workload::FleetStream => u64::from(FLEET_CHECK_POPULATION),
        _ => CHECK_OPS,
    };
    let mode = Mode {
        traced: false,
        checked: true,
    };
    let mut problems = Vec::new();
    let mut digests = Vec::new();
    for threads in [1, workers] {
        runner::set_threads(threads);
        let units = run_ops(w, setup, seed, n, mode);
        let violations = round_counts(&units).violations;
        if violations > 0 {
            problems.push(format!(
                "checked pass at {threads} worker(s): {violations} conformance violation(s)"
            ));
        }
        problems.extend(
            unit_problems(&units)
                .into_iter()
                .map(|p| format!("checked pass: {p}")),
        );
        digests.push(round_digest(&units));
    }
    runner::set_threads(workers);
    if digests.windows(2).any(|d| d[0] != d[1]) {
        problems.push(format!(
            "checked pass digest differs between 1 and {workers} workers: {digests:x?}"
        ));
    }
    problems
}
