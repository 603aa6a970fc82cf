PY ?= python
export PYTHONPATH := src

.PHONY: verify test bench bench-gate perf-selfcheck size coverage

# default CI entry point: unit tests (pytest is the one check runner) +
# benchmark gate + benchmark self-check + the size of the system
verify: test bench-gate perf-selfcheck size

test:
	$(PY) -m pytest -q

bench:
	$(PY) -m pytest -q benchmarks/ --benchmark-only

# fast deterministic benchmark regression gate: runs the gate suites and
# diffs BENCH_*.json against benchmarks/baselines/ (exit 1 on regression)
bench-gate:
	$(PY) -m repro.cli bench --check

# CI smoke for the benchmark of BENCHMARK.json: the declaration matches
# benchmarks/perf/layers.py, every workload and pass runs at toy size and
# emits every declared metric, and a wrong reference fails the run (~40 s)
perf-selfcheck:
	$(PY) benchmarks/perf/selfcheck.py --quick

# the trend line of ROADMAP aims 2 and 4 (least code, fewest knobs, one
# ledger): source lines, dataclass fields declared in common/config.py and
# the lines that count or journal a fact, in every CI log
size:
	@echo "src_lines $$(find src -name '*.py' | xargs cat | wc -l)"
	@$(PY) -c "import dataclasses as d, repro.common.config as c; \
	print('config_fields', sum(len(d.fields(v)) for v in vars(c).values() \
	if isinstance(v, type) and d.is_dataclass(v)))"
	@echo "instrumentation_sites $$(grep -rE 'stats\.(inc|add|observe|set_gauge)\(|[a-z_]\.emit\(|self\._trace\(|\.note\(' src --include=*.py | grep -vcE '>>>|def ')"

# the line ledger of ROADMAP item 15: tier-1 under the stdlib tracer of
# tests/linecov.py, then the unreached lines inside functions of src/repro
# (apps/ excluded) and every function never entered.  Not part of verify:
# tracing makes tier-1 several times slower (~7 min on 2 cores)
coverage:
	$(PY) -m pytest -q -p tests.linecov
