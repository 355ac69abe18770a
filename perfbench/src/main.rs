//! `h2priv-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints one line per metric (name, value, unit, sample count), the
//! output checks and digest, and as its last line a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 if any output
//! check fails and 2 on a usage error.

use std::process::ExitCode;

use h2priv_bytes::count_alloc::CountingAlloc;
use h2priv_perfbench::run::{run, Args, Report, HARD_CAP};
use h2priv_perfbench::trace::write_spans;
use h2priv_perfbench::workload::Workload;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Most workers a run uses.
const MAX_WORKERS: usize = 2;

const USAGE: &str = "usage: h2priv-perfbench --workload paper_attack|fleet_stream|slow_dos \
                     --seed N --seconds S --trace 0|1";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= HARD_CAP.as_secs_f64()) {
                    return Err(bad(&format!("must be in (0, {}]", HARD_CAP.as_secs())));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MAX_WORKERS);
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args, workers);

    let name = args.workload.name();
    println!(
        "workload {name} seed {} trace {} workers {workers} (available parallelism {})",
        args.seed,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    for m in &report.metrics {
        println!(
            "{:<32} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for n in &report.notes {
        println!("{n}");
    }
    for (k, v) in report.counts.named() {
        println!("count {k:<28} {v}");
    }
    println!("digest {:016x}", report.digest);
    if args.trace {
        let path = std::path::PathBuf::from(".perfbench_trace")
            .join(format!("{name}-seed{}.jsonl", args.seed));
        let spans: Vec<&[_]> = report.spans.iter().map(Vec::as_slice).collect();
        match write_spans(&path, &spans) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "checks {}",
        if report.correct { "passed" } else { "FAILED" }
    );
    println!("{}", json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
