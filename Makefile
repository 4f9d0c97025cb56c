# Convenience targets for the Hermes reproduction.

.PHONY: install test test-fast bench perf perf-check check examples \
    experiments clean

install:
	pip install -e .

test:
	pytest tests/

test-fast:
	pytest tests/ -x -q --ignore=tests/runtime

bench:
	pytest benchmarks/ --benchmark-only

# Full benchmark run; rewrites the committed canonical report.
# Narrow to one or more benches with BENCH: make perf BENCH=engine_throughput
# or BENCH="engine_throughput fleet_sharded".
perf:
	PYTHONPATH=src python -m repro perf \
	    $(foreach b,$(BENCH),--bench $(b))

# Quick scales, gated against the committed report.  A local check only:
# wall-clock scores are noisy, so CI just reports them.
perf-check:
	PYTHONPATH=src python -m repro perf --quick \
	    --out BENCH_perf.ci.json --check BENCH_perf.json

# The full correctness gate: nondeterminism lint, offline differential
# oracles, and the live scenarios (Table-3 cell + §7 crash, both modes)
# with invariant monitors armed.  What the CI check job runs.
check:
	PYTHONPATH=src python -m repro check

examples:
	for f in examples/*.py; do echo "== $$f"; python "$$f"; done

experiments:
	PYTHONPATH=src python -m repro list

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
	    benchmarks/results .benchmarks .sweep-cache
	find . -name __pycache__ -type d -exec rm -rf {} +
