# Convenience targets for the Hermes reproduction.

.PHONY: install test test-fast check examples experiments clean

install:
	pip install -e .

# PYTHONPATH=src, so both run on a checkout without `pip install -e .`.
test:
	PYTHONPATH=src python -m pytest tests/

test-fast:
	PYTHONPATH=src python -m pytest tests/ -x -q --ignore=tests/runtime

# The full correctness gate: nondeterminism lint, offline differential
# oracles, and the live scenarios (Table-3 cell, §7 crash in both modes,
# and the stateless fleet under churn) with invariant monitors armed.
# What the CI check job runs.
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
