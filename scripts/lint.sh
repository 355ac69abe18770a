#!/usr/bin/env sh
# Lint gate: the workspace must be clippy-clean (warnings are errors),
# rustfmt-clean, and protocol-conformant (the oracle must stay silent
# across a quick repro run). CI and `make lint` both run this.
set -eu

cd "$(dirname "$0")/.."

cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check

# The whole workspace's tests, the real gate (~3 min): the timer
# differential, the scheduler differentials and the end-to-end determinism
# tests run on every lint, not only the root package's.
cargo test --workspace --release -q

sh scripts/bench_check.sh

# Scheduler microbench smoke run (`make bench-sched` in full): proves the
# calendar queue and its reference-heap twin still build and run at the
# fig5-like event mix. Regression *thresholds* live in bench-check above,
# which gates whole-trial events/sec against BENCH_repro.json.
cargo bench -q -p h2priv-bench --bench sched -- fig5_mix

# The benchmark's tests (equivalent to `make perfbench-test`): its rebuilt
# trial must stay the library's `run_paper_trial` + `analyze_trial`, and its
# counts and digest must not depend on the run or the worker count.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Cross-layer conformance oracle over a quick full-exhibit run
# (equivalent to `make check-conformance`): exits nonzero on any TCP/TLS/
# HTTP/2 invariant violation.
cargo run --release -p h2priv-bench --bin repro -- --quick --check > /dev/null

echo "lint: clean"
