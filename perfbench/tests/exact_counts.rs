//! Every per-layer count the benchmark reports must repeat exactly across
//! runs and across 1 vs 2 workers, traced or not: these counts are the
//! noise-free signal a later change can cite.
//!
//! One test function: the worker count is process-wide, so the cases must
//! not run concurrently.

use h2priv_bench::runner;
use h2priv_perfbench::ops::{Counts, Mode};
use h2priv_perfbench::workload::{round_counts, round_digest, run_ops, setup, Workload};

/// Ops per case (for fleet_stream, pairs in the population).
fn ops(w: Workload) -> u64 {
    match w {
        Workload::FleetStream => 40,
        // Two whole slow_dos cycles: every DoS variant and benign trials.
        Workload::SlowDos => 24,
        Workload::PaperAttack => 6,
    }
}

#[test]
fn counts_repeat_across_runs_and_worker_counts() {
    let s = setup(2);
    for w in Workload::ALL {
        let mut plain: Vec<(Counts, u64)> = Vec::new();
        let mut traced: Vec<(Counts, u64)> = Vec::new();
        for threads in [1, 2, 1, 2] {
            runner::set_threads(threads);
            for tracing in [false, true] {
                let mode = Mode {
                    traced: tracing,
                    checked: false,
                };
                let units = run_ops(w, &s, 7, ops(w), mode);
                let got = (round_counts(&units), round_digest(&units));
                if tracing {
                    traced.push(got);
                } else {
                    plain.push(got);
                }
            }
        }
        let name = w.name();
        assert!(
            plain[0].0.ops > 0 && plain[0].0.events > 0,
            "{name}: no work"
        );
        assert!(
            traced[0].0.tls_records > 0,
            "{name}: capture scan saw nothing"
        );
        for (i, run) in plain.iter().enumerate() {
            assert_eq!(run, &plain[0], "{name}: untraced run {i} differs");
        }
        for (i, run) in traced.iter().enumerate() {
            assert_eq!(run, &traced[0], "{name}: traced run {i} differs");
        }
        assert_eq!(
            traced[0].0.without_capture_scan(),
            plain[0].0,
            "{name}: tracing changed the counts"
        );
        assert_eq!(
            traced[0].1, plain[0].1,
            "{name}: tracing changed the digest"
        );
    }
    runner::set_threads(2);
}
