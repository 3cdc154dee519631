# Test and benchmark entry points.  `make test` is the CI gate: byte
# compilation, tier-1 tests, a run of every `examples/*.py` script
# (fails on any non-zero exit), plus smoke runs of the packed-merge,
# batched-query, cluster-scaling, ingestion, batched-group-solve, and
# tiered-storage benchmarks, which fail on any packed-vs-loop
# divergence, broken scan sharing, cluster answers that are not
# bit-exact across topologies and failovers, non-idempotent batch
# replay, a columnar ingest speedup below 5x, a batched group solve
# below 3x at 1024 cells against the per-sketch reference loop (or with
# estimates or decisions that diverge from the per-sketch references),
# a tiered store whose compaction is not bit-exact /
# whose cold tier misses the 4x disk reduction or the cold-latency
# ceiling, a telemetry overhead gate (disabled-mode guard cost <= 3%,
# enabled-mode tracing + metrics <= 10% of query latency), a
# multi-query-optimizer gate (its one scan cache, which keeps each cold
# scan with the estimators fitted to it, >=3x on a Zipf-skewed repeated
# workload with interleaved flushes, payloads bit-identical to cold
# execution),
# and a 3-second run of each repository benchmark workload
# (`bench/run.py`) that fails unless the command exits 0 and its last
# line reports `"correct": true` (every answer within the Eq. 1
# rank-error bound) and `"failed": 0`.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint bench-merge bench-batch bench-cluster bench-ingest \
	bench-solve bench-tiered bench-telemetry bench-optimizer bench

# Static analysis gate: the repo-invariant analyzers (lock discipline,
# determinism, telemetry guards, API hygiene) against the committed
# baseline, plus mypy when available (the CI lint job installs it; the
# guard keeps `make lint` usable in minimal environments).
lint:
	$(PYTHON) -m repro.cli analysis lint src examples \
		--baseline .analysis-baseline.json
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --config-file mypy.ini; \
	else \
		echo "mypy not installed; skipping type check"; \
	fi

test:
	$(PYTHON) -m compileall -q src
	$(PYTHON) -m pytest -x -q
	@for example in examples/*.py; do \
		echo "$$example"; \
		$(PYTHON) "$$example" >/dev/null || { echo "example failed: $$example"; exit 1; }; \
	done
	$(PYTHON) benchmarks/bench_batch_merge.py --quick
	$(PYTHON) benchmarks/bench_execute_batch.py --quick
	$(PYTHON) benchmarks/bench_cluster_scaling.py --quick
	$(PYTHON) benchmarks/bench_ingest.py --quick
	$(PYTHON) benchmarks/bench_group_solve.py --quick
	$(PYTHON) benchmarks/bench_tiered.py --quick
	$(PYTHON) benchmarks/bench_telemetry.py --quick
	$(PYTHON) benchmarks/bench_optimizer.py --quick
	out=$$($(PYTHON) bench/run.py --seconds 3) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | tail -n 1 | $(PYTHON) -c 'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else "bench: incorrect answers or failed operations")'

bench-merge:
	$(PYTHON) benchmarks/bench_batch_merge.py --require-speedup 10

bench-batch:
	$(PYTHON) benchmarks/bench_execute_batch.py

bench-cluster:
	$(PYTHON) benchmarks/bench_cluster_scaling.py --require-scaling

bench-ingest:
	$(PYTHON) benchmarks/bench_ingest.py --require-speedup 5

bench-solve:
	$(PYTHON) benchmarks/bench_group_solve.py --require-speedup 3

bench-tiered:
	$(PYTHON) benchmarks/bench_tiered.py

bench-telemetry:
	$(PYTHON) benchmarks/bench_telemetry.py

bench-optimizer:
	$(PYTHON) benchmarks/bench_optimizer.py --advice-out optimizer_bench.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q \
		-o python_files="bench_fig*.py bench_table*.py"
