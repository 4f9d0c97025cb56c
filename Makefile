# Convenience targets for the Hermes reproduction.

.PHONY: install test test-fast perf check examples experiments clean

install:
	pip install -e .

test:
	pytest tests/

test-fast:
	pytest tests/ -x -q --ignore=tests/runtime

# Full benchmark run; rewrites the committed canonical report.
# Narrow to one or more benches with BENCH: make perf BENCH=engine_throughput
# or BENCH="engine_throughput fleet_sharded".
perf:
	PYTHONPATH=src python -m repro perf \
	    $(foreach b,$(BENCH),--bench $(b))

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
	    .sweep-cache
	find . -name __pycache__ -type d -exec rm -rf {} +
