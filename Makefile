# Convenience targets; each is a thin wrapper over cargo.

.PHONY: build test lint perfbench perfbench-test bench bench-check bench-sched bench-defense bench-dos bench-fleet bench-fleet-mem bench-fleet-1m bench-scaleout check-conformance repro repro-quick

build:
	cargo build --release --workspace

test:
	cargo test --workspace

lint:
	sh scripts/lint.sh

bench:
	cargo bench -p h2priv-bench

# The end-to-end benchmark (BENCHMARK.json's command) on one workload:
# `make perfbench W=paper_attack SEED=1`. W is paper_attack, fleet_stream
# or slow_dos; TRACE=1 adds the per-layer breakdown and writes spans to
# .perfbench_trace/.
W ?= paper_attack
SEED ?= 1
TRACE ?= 0
perfbench:
	cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload $(W) --seed $(SEED) --seconds 36 --trace $(TRACE)

# The benchmark's own tests: drift_guard pins its rebuilt trial to
# run_paper_trial + analyze_trial; exact_counts pins every count and the
# digest across runs and worker counts.
perfbench-test:
	cargo test --release --offline --manifest-path perfbench/Cargo.toml

bench-check:
	sh scripts/bench_check.sh

bench-sched:
	cargo bench -p h2priv-bench --bench sched

# The countermeasure arena: every defense vs. the adversary grid, with
# the conformance oracle attached (exit 2 on any violation). Use
# `--defense <name>` via `make repro` to evaluate a single defense.
bench-defense:
	cargo run --release -p h2priv-bench --bin repro -- defend --check

# The slow-DoS triad: every attack workload vs. the hardened server and
# the online detector, standalone and inside a contended fleet, plus the
# false-positive sweep — with the conformance oracle attached (the
# attacks are RFC-legal, so the oracle must stay green).
bench-dos:
	cargo run --release -p h2priv-bench --bin repro -- dos --check

# The population-scale exhibit at fleet size: 10k client-server pairs
# sharded over 8 engines. Byte-identical at any --threads.
bench-fleet:
	cargo run --release -p h2priv-bench --bin repro -- fleet --population 10000 --shards 8

# Memory telemetry at fleet size: the counting allocator reports
# peak_alloc_bytes and bytes per co-resident pair on stderr ([timing]
# lines) and in the JSON. bench-check gates the fleet entry's
# bytes_per_pair against BENCH_repro.json (>20% growth fails).
bench-fleet-mem:
	cargo run --release -p h2priv-bench --bin repro -- fleet --population 10000 --shards 8 --bench-json=/dev/stdout

# The million-pair sitting: cohort-streamed shards admit each pair at
# its staggered start time and retire it (returning its slab slot and
# buffers) the moment its page load settles, so peak memory tracks the
# number of co-resident pairs — set by --spread — instead of the
# population. --progress prints a pairs/events/ETA heartbeat on stderr
# every ~2s; stdout stays byte-identical to an unstreamed run of the
# same spread. Expect a few hours on one core; scale --threads to taste.
bench-fleet-1m:
	cargo run --release -p h2priv-bench --bin repro -- fleet --population 1000000 --shards 64 --cohort 512 --spread 14400 --progress --bench-json=BENCH_fleet_1m.json

# Parallel-efficiency curve: re-runs the baseline fleet population at
# --threads 1/2/4/8 and reports aggregate ev/s, ev/s per core, and
# efficiency vs. the 1-thread point. Outcome rows are asserted identical
# across thread counts before any rate is reported.
bench-scaleout:
	cargo run --release -p h2priv-bench --bin repro -- scaleout --population 2000 --shards 8

check-conformance:
	cargo run --release -p h2priv-bench --bin repro -- --quick --check

repro:
	cargo run --release -p h2priv-bench --bin repro

repro-quick:
	cargo run --release -p h2priv-bench --bin repro -- --quick --bench-json
