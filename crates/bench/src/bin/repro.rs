//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--json] [--check] [--threads N] [--trials N]
//!       [--population N] [--shards N] [--defense NAME] [--bench-json[=PATH]]
//!       [--cohort N] [--spread SECS] [--progress]
//!       [table1] [fig5] [ivd] [table2] [fig1] [ablations] [defend] [dos]
//!       [fleet] [scaleout]
//! ```
//!
//! With no exhibit names, everything runs. An unknown exhibit or flag, a
//! missing flag value or a non-numeric count exits 2 with the usage.
//! `--quick` uses 25 trials per point instead of the paper's 100;
//! `--trials N` overrides both. Trials
//! fan out over `--threads N` workers (default: available parallelism);
//! any thread count produces byte-identical stdout, because results are
//! collected in seed order. Per-exhibit wall-clock and events/sec lines go
//! to stderr, and `--bench-json` additionally records them in
//! `BENCH_repro.json` (or the given path) so the perf trajectory is
//! tracked across changes.
//!
//! The `fleet` exhibit simulates `--population N` client–server pairs
//! (default 1000, `--quick` 128) split over `--shards N` independent
//! engines (default 8). Shards fan out over the same worker pool; the
//! shard count — not the thread count — fixes the partition, so fleet
//! output is also byte-identical at any `--threads`. Million-pair runs
//! use `--cohort N` (stream pair state in bounded cohorts instead of
//! materializing whole shards — peak memory follows the in-flight set),
//! `--spread SECS` (widen the start-stagger window so fewer loads overlap;
//! the shard deadline grows by the same amount) and `--progress` (a stderr
//! heartbeat with pairs done, events/sec and ETA; stdout is untouched).
//!
//! The `scaleout` exhibit (explicit request only — it is a measurement
//! harness, not a paper artifact, and re-runs the baseline population once
//! per thread count) executes the same fleet at `--threads` 1/2/4/8 and
//! reports aggregate events/sec, events/sec **per core** and parallel
//! efficiency.
//!
//! The `defend` exhibit runs the countermeasure arena: every defense in
//! `DefenseSpec::arena` against the escalating adversary grid, reporting
//! attack success and byte/latency overhead per cell. `--defense NAME`
//! narrows it to `[none, NAME]` (the baseline stays so overheads are
//! well-defined) and also deploys NAME fleet-wide in the `fleet` exhibit.
//!
//! `--check` attaches the cross-layer conformance oracle
//! (`h2priv-conformance`) to every trial: TCP, TLS and HTTP/2 invariants
//! are validated on every segment, record and frame, a summary goes to
//! stderr, and the process exits nonzero if any trial violated any
//! invariant. Exhibit output is unchanged — the oracle only observes.

use std::time::Instant;

use h2priv_bench::json::{object, Json, ToJson};
use h2priv_bench::{
    ablations, common, defend, dos, fig1, fig5, fleet, ivd, runner, table1, table2,
};
use h2priv_bytes::count_alloc;
use h2priv_defense::DefenseSpec;

/// The byte-gauging allocator: two relaxed atomics per allocator call buy
/// the `peak_alloc_bytes` / `bytes_per_pair` memory telemetry reported in
/// `--bench-json` and gated by `scripts/bench_check.sh`.
#[global_allocator]
static ALLOC: count_alloc::CountingAlloc = count_alloc::CountingAlloc;

/// Per-exhibit wall-clock record emitted by `--bench-json`.
struct ExhibitTiming {
    exhibit: &'static str,
    trials: u64,
    threads: usize,
    wall_ms: f64,
    events: u64,
    /// Event-scheduler behaviour over the exhibit's trials (tier split,
    /// promotions, peak bucket/overflow occupancy), so baselines are
    /// self-describing about which scheduler produced them. For the fleet
    /// exhibit the peaks are summed across concurrently-resident shards
    /// (`SchedStats::merge_concurrent`), not maxed.
    sched: h2priv_netsim::SchedStats,
    /// Per-shard event counts (fleet exhibit only; empty otherwise) —
    /// the shard occupancy balance.
    shard_events: Vec<u64>,
    /// High-water mark of live heap bytes while the exhibit ran (how far
    /// the process-wide gauge rose above its level at exhibit entry).
    peak_alloc_bytes: u64,
    /// Fleet exhibit only: `peak_alloc_bytes` divided by the number of
    /// pairs co-resident at once (population scaled by how many shards the
    /// worker pool keeps in flight together) — the per-pair working set
    /// the memory-regression gate pins. Zero for non-fleet exhibits.
    bytes_per_pair: u64,
}

impl ExhibitTiming {
    fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.events as f64 / (self.wall_ms / 1e3)
    }

    /// Aggregate throughput divided by the worker-thread count — the
    /// scale-out health number: flat across `--threads` means the shards
    /// parallelize without stepping on each other.
    fn ev_s_per_core(&self) -> f64 {
        self.events_per_sec() / self.threads.max(1) as f64
    }
}

impl ToJson for ExhibitTiming {
    fn to_json(&self) -> Json {
        object([
            ("exhibit", self.exhibit.to_json()),
            ("trials", self.trials.to_json()),
            ("threads", self.threads.to_json()),
            ("wall_ms", self.wall_ms.to_json()),
            ("events", self.events.to_json()),
            ("events_per_sec", self.events_per_sec().to_json()),
            ("ev_s_per_core", self.ev_s_per_core().to_json()),
            ("scheduler", h2priv_netsim::SchedStats::SCHEDULER.to_json()),
            ("sched_near_inserts", self.sched.near_inserts.to_json()),
            ("sched_far_inserts", self.sched.far_inserts.to_json()),
            ("sched_promotions", self.sched.promotions.to_json()),
            ("sched_rebases", self.sched.rebases.to_json()),
            ("sched_peak_near", self.sched.peak_near.to_json()),
            ("sched_peak_overflow", self.sched.peak_overflow.to_json()),
            ("shard_events", self.shard_events.to_json()),
            ("peak_alloc_bytes", self.peak_alloc_bytes.to_json()),
            ("bytes_per_pair", self.bytes_per_pair.to_json()),
        ])
    }
}

/// Exhibit names, in run order (`scaleout` runs only when named).
const EXHIBITS: [&str; 10] = [
    "fig1",
    "table1",
    "fig5",
    "ivd",
    "table2",
    "ablations",
    "defend",
    "dos",
    "fleet",
    "scaleout",
];

const USAGE: &str = "usage: repro [--quick] [--json] [--check] [--progress] [--bench-json[=PATH]]
             [--threads N] [--trials N] [--population N] [--shards N]
             [--cohort N] [--spread SECS] [--defense NAME] [EXHIBIT...]";

/// The parsed command line. Numeric flags are `None` when not given.
#[derive(Debug, Default)]
struct Cli {
    quick: bool,
    json: bool,
    check: bool,
    progress: bool,
    bench_json: Option<String>,
    threads: Option<u64>,
    trials: Option<u64>,
    population: Option<u64>,
    shards: Option<u64>,
    cohort: Option<u64>,
    spread: Option<u64>,
    defense: Option<String>,
    exhibits: Vec<String>,
}

impl Cli {
    /// Parses the arguments; a flag's value may follow it or be attached
    /// with `=`. Unknown flags and exhibits, missing values and
    /// non-numeric counts are errors.
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                if !EXHIBITS.contains(&arg.as_str()) {
                    return Err(format!("unknown exhibit {arg:?}"));
                }
                cli.exhibits.push(arg.clone());
                continue;
            }
            let (flag, attached) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value.to_owned())),
                None => (arg.as_str(), None),
            };
            let switch = match flag {
                "--quick" => Some(&mut cli.quick),
                "--json" => Some(&mut cli.json),
                "--check" => Some(&mut cli.check),
                "--progress" => Some(&mut cli.progress),
                _ => None,
            };
            if let (Some(on), None) = (switch, &attached) {
                *on = true;
                continue;
            }
            if flag == "--bench-json" {
                cli.bench_json = Some(attached.unwrap_or_else(|| "BENCH_repro.json".to_owned()));
                continue;
            }
            let mut value = || {
                attached
                    .clone()
                    .or_else(|| it.next().cloned())
                    .ok_or(format!("{flag} needs a value"))
            };
            if flag == "--defense" {
                cli.defense = Some(value()?);
                continue;
            }
            let count = match flag {
                "--threads" => &mut cli.threads,
                "--trials" => &mut cli.trials,
                "--population" => &mut cli.population,
                "--shards" => &mut cli.shards,
                "--cohort" => &mut cli.cohort,
                "--spread" => &mut cli.spread,
                _ => return Err(format!("unknown flag {arg:?}")),
            };
            let value = value()?;
            let n = value
                .parse()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))?;
            *count = Some(n);
        }
        Ok(cli)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&args).unwrap_or_else(|err| {
        eprintln!("repro: {err}\n{USAGE}\nexhibits: {}", EXHIBITS.join(" "));
        std::process::exit(2);
    });
    let (quick, json, check) = (cli.quick, cli.json, cli.check);
    runner::set_conformance(check);
    let bench_json = cli.bench_json;
    if let Some(threads) = cli.threads {
        runner::set_threads(threads as usize);
    }
    let trials = cli.trials.unwrap_or(if quick {
        common::QUICK_TRIALS
    } else {
        common::TRIALS
    });
    let population = cli.population.unwrap_or(if quick { 128 } else { 1_000 }) as u32;
    let shards = cli.shards.unwrap_or(8).max(1) as u32;
    let tuning = fleet::FleetTuning {
        cohort: cli.cohort.map(|c| c.max(1) as u32),
        spread_secs: cli.spread,
        progress: cli.progress,
    };
    let defense = match cli.defense {
        Some(name) => match DefenseSpec::parse(&name) {
            Some(spec) => Some(spec),
            None => {
                let names: Vec<&str> = DefenseSpec::arena().iter().map(|d| d.name()).collect();
                eprintln!("unknown defense {name:?}; valid: {}", names.join(", "));
                std::process::exit(1);
            }
        },
        None => None,
    };
    let wanted: Vec<&str> = cli.exhibits.iter().map(String::as_str).collect();
    let want = |name: &str| wanted.is_empty() || wanted.contains(&name);

    let threads = runner::threads();
    let mut timings: Vec<ExhibitTiming> = Vec::new();
    let mut timed = |exhibit: &'static str, trials: u64, body: &mut dyn FnMut()| {
        let events_before = runner::events_snapshot();
        runner::sched_take(); // reset so the exhibit reports only its own
        let t0 = Instant::now();
        let ((), peak_alloc_bytes) = count_alloc::measure_peak_bytes(body);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let events = runner::events_snapshot() - events_before;
        let timing = ExhibitTiming {
            exhibit,
            trials,
            threads,
            wall_ms,
            events,
            sched: runner::sched_take(),
            shard_events: Vec::new(),
            peak_alloc_bytes,
            bytes_per_pair: 0,
        };
        eprintln!(
            "[timing] {exhibit}: {wall_ms:.0} ms, {events} events, {:.0} events/sec, {threads} thread(s), peak {:.1} MiB",
            timing.events_per_sec(),
            peak_alloc_bytes as f64 / (1024.0 * 1024.0)
        );
        timings.push(timing);
    };

    if want("fig1") {
        timed("fig1", 1, &mut || {
            let cases = fig1::run();
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&cases));
            } else {
                println!("{}", fig1::render(&cases));
            }
        });
    }
    if want("table1") {
        timed("table1", trials, &mut || {
            let rows = table1::run(trials);
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&rows));
            } else {
                println!("{}", table1::render(&rows));
            }
        });
    }
    if want("fig5") {
        timed("fig5", trials, &mut || {
            let points = fig5::run(trials);
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&points));
            } else {
                println!("{}", fig5::render(&points));
            }
        });
    }
    if want("ivd") {
        timed("ivd", trials, &mut || {
            let points = ivd::run(trials);
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&points));
            } else {
                println!("{}", ivd::render(&points));
            }
        });
    }
    if want("table2") {
        timed("table2", trials, &mut || {
            let cols = table2::run(trials);
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&cols));
            } else {
                println!("{}", table2::render(&cols));
                let (lo, hi) = table2::baseline_image_degrees(trials.min(30));
                println!(
                    "(baseline degree of multiplexing of the emblem images: {lo:.0}%–{hi:.0}%)\n"
                );
            }
        });
    }
    if want("ablations") {
        timed("ablations", trials.min(40), &mut || {
            let rows = ablations::run(trials.min(40));
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&rows));
            } else {
                println!("{}", ablations::render(&rows));
            }
        });
    }
    if want("defend") {
        // The frontier is 4 adversary cells per defense; cap per-cell
        // trials like the ablation sweep does.
        let defend_trials = trials.min(25);
        // A chosen defense still runs next to the undefended baseline so
        // the overhead columns keep their denominator.
        let defenses: Vec<DefenseSpec> = match defense {
            Some(spec) if spec != DefenseSpec::None => vec![DefenseSpec::None, spec],
            _ => DefenseSpec::arena().to_vec(),
        };
        timed(
            "defend",
            defend_trials * defenses.len() as u64 * 4,
            &mut || {
                let cells = defend::run_subset(defend_trials, &defenses);
                if json {
                    println!("{}", h2priv_bench::json::to_string_pretty(&cells));
                } else {
                    println!("{}", defend::render(&cells));
                }
            },
        );
    }
    if want("dos") {
        // The attack grid and fleet runs are fixed-size; trials scale only
        // the false-positive sweep, capped like the other secondary grids.
        let dos_trials = trials.min(25);
        timed("dos", dos_trials, &mut || {
            let report = dos::run(dos_trials);
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&report));
            } else {
                println!("{}", dos::render(&report));
            }
        });
    }
    if want("fleet") {
        let mut report = None;
        timed("fleet", population as u64, &mut || {
            let r = fleet::run_with(
                population,
                shards,
                defense.unwrap_or(DefenseSpec::None),
                &tuning,
            );
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&r));
            } else {
                println!("{}", fleet::render(&r));
            }
            report = Some(r);
        });
        if let (Some(r), Some(t)) = (report, timings.last_mut()) {
            // Shard occupancy over both populations (baseline + attacked),
            // element-wise: the balance the hash partition achieved.
            t.shard_events = r
                .baseline
                .shard_events
                .iter()
                .zip(&r.attacked.shard_events)
                .map(|(a, b)| a + b)
                .collect();
            // Per-pair working set: the peak divided by how many pairs were
            // co-resident when it was reached. Shards run `min(threads,
            // shards)` at a time and hold `population / shards` pairs each.
            let co_resident =
                (population as u64 * threads.min(shards as usize) as u64 / shards as u64).max(1);
            t.bytes_per_pair = t.peak_alloc_bytes / co_resident;
            eprintln!(
                "[timing] fleet memory: peak_alloc_bytes {} ({:.1} MiB), {} bytes/pair over {} co-resident pair(s)",
                t.peak_alloc_bytes,
                t.peak_alloc_bytes as f64 / (1024.0 * 1024.0),
                t.bytes_per_pair,
                co_resident
            );
        }
    }

    // Explicit request only (never part of the run-everything default):
    // scaleout re-executes the baseline population once per thread count,
    // overriding --threads point by point, purely to measure parallel
    // efficiency.
    if wanted.contains(&"scaleout") {
        let restore = cli.threads.unwrap_or(0) as usize;
        let points = fleet::scaleout(
            population,
            shards,
            defense.unwrap_or(DefenseSpec::None),
            &tuning,
            &[1, 2, 4, 8],
            restore,
        );
        if json {
            println!("{}", h2priv_bench::json::to_string_pretty(&points));
        } else {
            println!("{}", fleet::render_scaleout(population, shards, &points));
        }
        // One timing row per thread count, so `--bench-json` carries the
        // whole scaling curve (`ev_s_per_core` is derived per row).
        for p in &points {
            eprintln!(
                "[timing] scaleout --threads {}: {:.0} ms, {:.0} ev/s aggregate, {:.0} ev/s per core, efficiency {:.2}",
                p.threads, p.wall_ms, p.events_per_sec, p.ev_s_per_core, p.efficiency
            );
            timings.push(ExhibitTiming {
                exhibit: "scaleout",
                trials: population as u64,
                threads: p.threads,
                wall_ms: p.wall_ms,
                events: p.events,
                sched: Default::default(),
                shard_events: Vec::new(),
                peak_alloc_bytes: 0,
                bytes_per_pair: 0,
            });
        }
    }

    if let Some(path) = bench_json {
        let body = h2priv_bench::json::to_string_pretty(&timings);
        match std::fs::write(&path, body + "\n") {
            Ok(()) => eprintln!("[timing] wrote {path}"),
            Err(err) => eprintln!("[timing] failed to write {path}: {err}"),
        }
    }

    if check {
        let violations = runner::violations_snapshot();
        if violations == 0 {
            eprintln!("[conformance] all trials clean: no protocol invariant violations");
        } else {
            eprintln!("[conformance] {violations} violation(s) detected:");
            for sample in runner::violation_samples() {
                eprintln!("[conformance]   {sample}");
            }
            std::process::exit(2);
        }
    }
}
