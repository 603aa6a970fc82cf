PY ?= python
export PYTHONPATH := src

.PHONY: verify test bench bench-gate smoke-trace profile-smoke chaos-smoke \
        bench-help-policies bench-scaling-smoke health-smoke sweep-smoke \
        sdc-smoke perf-selfcheck size

# default CI entry point: unit tests + trace smoke + benchmark gate +
# profiler smoke + chaos smoke + work-distribution policy matrix smoke +
# big-cluster scaling smoke + telemetry-plane smoke + sweep orchestrator
# smoke + silent-data-corruption defense smoke + benchmark self-check +
# the size of the system
verify: test smoke-trace bench-gate profile-smoke chaos-smoke \
        bench-help-policies bench-scaling-smoke health-smoke sweep-smoke \
        sdc-smoke perf-selfcheck size

test:
	$(PY) -m pytest -q

bench:
	$(PY) -m pytest -q benchmarks/ --benchmark-only

# fast deterministic benchmark regression gate: runs the gate suites and
# diffs BENCH_*.json against benchmarks/baselines/ (exit 1 on regression)
bench-gate:
	$(PY) -m repro.cli bench --check

# CI smoke for the observability pipeline: run one traced sim benchmark
# and validate the Chrome trace + stats artifacts it dumps
smoke-trace:
	$(PY) benchmarks/smoke_trace.py

# CI smoke for the profiling layer: a small primes run under cProfile
profile-smoke:
	$(PY) -m repro.cli profile primes --sites 2 --args 20 6 --top 12

# CI smoke for the fault-injection layer: replay the committed regression
# corpus, then a short seeded fuzz sweep (seeds verified green; a failure
# here means a recovery invariant regressed)
chaos-smoke:
	$(PY) -m repro.cli chaos corpus
	$(PY) -m repro.cli chaos fuzz --seeds 1 6

# CI smoke for the informed work-distribution layer: the gossip x steal
# batching x push policy matrix, each cell audited by the invariant checker
bench-help-policies:
	$(PY) benchmarks/bench_help_policies.py --smoke

# CI smoke for big-cluster work distribution: treesum at 64 sites (4x
# the gossip sample window) must beat one site by a wide margin
bench-scaling-smoke:
	$(PY) benchmarks/smoke_scaling.py

# CI smoke for the telemetry plane: metrics sampler -> sdvm-metrics/1
# JSONL -> health detectors (must stay quiet on a healthy run) -> the
# `repro health` / `repro top` CLIs
health-smoke:
	$(PY) benchmarks/smoke_health.py

# CI smoke for the multicore sweep orchestrator: a 2-config sweep over 2
# worker processes with the determinism self-check on (every point runs
# twice; journal fingerprints must match exactly)
sweep-smoke:
	$(PY) -m repro.cli sweep --sites 1,2 --seeds 0 --leaves 64 \
		--scale 500 --workers 2 --selfcheck

# CI smoke for the silent-data-corruption defense: the defended corpus
# plan completes correctly with exact detect/resolve accounting, the
# health detector sees the mismatches, the undefended twin is flagged
# by the sdc_commit invariant, and a live cluster outvotes a corruption
sdc-smoke:
	$(PY) benchmarks/smoke_sdc.py

# CI smoke for the benchmark of BENCHMARK.json: the declaration matches
# benchmarks/perf/layers.py, every workload and pass runs at toy size and
# emits every declared metric, and a wrong reference fails the run (~40 s)
perf-selfcheck:
	$(PY) benchmarks/perf/selfcheck.py --quick

# the trend line of ROADMAP aim 2 (least code, fewest knobs): source lines
# and dataclass fields declared in common/config.py, in every CI log
size:
	@echo "src_lines $$(find src -name '*.py' | xargs cat | wc -l)"
	@$(PY) -c "import dataclasses as d, repro.common.config as c; \
	print('config_fields', sum(len(d.fields(v)) for v in vars(c).values() \
	if isinstance(v, type) and d.is_dataclass(v)))"
