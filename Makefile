# Convenience targets for the Hermes reproduction.

.PHONY: install test bench perf perf-check sweep-check check prequal \
    splice fleet fuzz examples experiments clean

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

# What CI runs: quick scales, gate against the committed report.
perf-check:
	PYTHONPATH=src python -m repro perf --quick \
	    --out BENCH_perf.ci.json --check BENCH_perf.json

# The sweep contract on a reduced Table-3 grid: parallel output must be
# byte-identical to serial (what the CI sweep-smoke job checks).
sweep-check:
	PYTHONPATH=src python -m repro sweep table3 --seed 11 --jobs 1 \
	    --no-cache --set 'cases=["case2"]' --set 'loads=["light"]' \
	    --set duration_scale=0.15 --set n_workers=2 \
	    --set 'ports=[20001,20002,20003]' --set settle=0.5 \
	    --out sweep.serial.json
	PYTHONPATH=src python -m repro sweep table3 --seed 11 --jobs 4 \
	    --no-cache --set 'cases=["case2"]' --set 'loads=["light"]' \
	    --set duration_scale=0.15 --set n_workers=2 \
	    --set 'ports=[20001,20002,20003]' --set settle=0.5 \
	    --out sweep.parallel.json
	cmp sweep.serial.json sweep.parallel.json
	@echo "parallel sweep is byte-identical to serial"

# The full correctness gate: nondeterminism lint, offline differential
# oracles, and the live scenarios (Table-3 cell + §7 crash, both modes)
# with invariant monitors armed.  What the CI check job runs.
check:
	PYTHONPATH=src python -m repro check

# The prequal gate (what the CI prequal job runs): mode smoke with
# monitors + live oracles armed, ablation-sweep byte-equality serial vs
# parallel, and the three-architecture resilience cell on the §7 crash.
prequal:
	PYTHONPATH=src python -m repro run --mode prequal --case case1 \
	    --load light --workers 4 --duration 2 --set reuse_budget=2 --check
	PYTHONPATH=src python -m repro sweep prequal_ablation --seed 7 \
	    --jobs 1 --no-cache \
	    --set 'cells=["policy/hcl","policy/latency","policy/rif"]' \
	    --set duration=1.0 --set base_rate=400.0 --out prequal.serial.json
	PYTHONPATH=src python -m repro sweep prequal_ablation --seed 7 \
	    --jobs 4 --no-cache \
	    --set 'cells=["policy/hcl","policy/latency","policy/rif"]' \
	    --set duration=1.0 --set base_rate=400.0 --out prequal.parallel.json
	cmp prequal.serial.json prequal.parallel.json
	@echo "prequal ablation sweep is byte-identical to serial"
	PYTHONPATH=src python -m repro resilience --scenario worker_crash \
	    --mode exclusive --mode hermes --mode prequal --seed 7 \
	    --out showdown.json

# The splice gate (what the CI splice job runs): mode smoke with the
# splice-ledger invariant armed, crossover-sweep byte-equality serial vs
# parallel on the two decisive regimes, and the resilience cell with the
# in-kernel datapath next to exclusive/hermes on the worker hang.
splice:
	PYTHONPATH=src python -m repro run --mode splice --case case1 \
	    --load light --workers 4 --duration 2 --set splice_after=2 --check
	PYTHONPATH=src python -m repro sweep splice_crossover --seed 7 \
	    --jobs 1 --no-cache \
	    --set 'cells=["small/short/hermes","small/short/splice","large/long/hermes","large/long/splice"]' \
	    --out splice.serial.json
	PYTHONPATH=src python -m repro sweep splice_crossover --seed 7 \
	    --jobs 4 --no-cache \
	    --set 'cells=["small/short/hermes","small/short/splice","large/long/hermes","large/long/splice"]' \
	    --out splice.parallel.json
	cmp splice.serial.json splice.parallel.json
	@echo "splice crossover sweep is byte-identical to serial"
	PYTHONPATH=src python -m repro resilience --scenario worker_hang \
	    --mode exclusive --mode hermes --mode splice --seed 7 \
	    --out splice.showdown.json

# The fleet gate (what the CI fleet job runs): stateless 8-instance churn
# under the PCC monitor, the stateful-vs-stateless crash head-to-head,
# and fleet_scale sweep byte-equality serial vs parallel.
fleet:
	PYTHONPATH=src python -m repro fleet --instances 8 \
	    --policy stateless --check
	PYTHONPATH=src python -m repro fleet --policy stateful --crash-at 0.9 \
	    --out fleet.stateful.json
	PYTHONPATH=src python -m repro fleet --policy stateless --crash-at 0.9 \
	    --check --out fleet.stateless.json
	PYTHONPATH=src python -m repro sweep fleet_scale --seed 31 --jobs 1 \
	    --no-cache --set 'instances=[2,4]' --set duration=1.0 \
	    --out fleet.serial.json
	PYTHONPATH=src python -m repro sweep fleet_scale --seed 31 --jobs 4 \
	    --no-cache --set 'instances=[2,4]' --set duration=1.0 \
	    --out fleet.parallel.json
	cmp fleet.serial.json fleet.parallel.json
	@echo "fleet_scale sweep is byte-identical to serial"

# The fuzz gate (what the CI fuzz-smoke job runs): a seeded campaign
# twice to prove byte-determinism, then the planted-bug self-test — the
# corrupt-bitmap drill must be found, shrunk to a verified minimal
# reproducer, and registered as a regression scenario.
fuzz:
	PYTHONPATH=src python -m repro fuzz --budget 6 --seed 7 \
	    --no-shrink --out fuzz.a.json
	PYTHONPATH=src python -m repro fuzz --budget 6 --seed 7 \
	    --no-shrink --out fuzz.b.json
	cmp fuzz.a.json fuzz.b.json
	@echo "seeded fuzz report is byte-identical across runs"
	PYTHONPATH=src python -m repro fuzz --budget 1 --seed 11 \
	    --mode hermes --family diurnal --fleet-fraction 0 \
	    --drill corrupt_bitmap --regressions fuzz-regressions \
	    --out fuzz.drill.json; test $$? -eq 1
	PYTHONPATH=src python -m repro experiment fuzz_regressions \
	    --set dir=fuzz-regressions
	@echo "planted bug found, shrunk, and registered as a regression"

examples:
	for f in examples/*.py; do echo "== $$f"; python "$$f"; done

experiments:
	PYTHONPATH=src python -m repro list

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
	    benchmarks/results .benchmarks .sweep-cache sweep.*.json \
	    prequal.*.json fleet.*.json splice.*.json showdown.json \
	    fuzz.*.json fuzz-regressions
	find . -name __pycache__ -type d -exec rm -rf {} +
