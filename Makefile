PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

.PHONY: test chaos slow bench bench-smoke perfbench-test all

# Tier-1: the fast suite (the chaos storm matrix is deselected by the
# `-m 'not chaos'` default in pyproject.toml).
test:
	$(PYTHON) -m pytest -x -q

# Full fault-injection matrix: seeded storms, per-kind pure storms,
# total blackout, hostile-content storms. A later -m overrides the
# pyproject default; CI passes PYTEST_ARGS="--timeout=300".
chaos:
	$(PYTHON) -m pytest -q -m chaos $(PYTEST_ARGS)

# Paper-scale clustering property/equivalence matrix (tier-1 runs a
# reduced version; nightly runs this full one).
slow:
	$(PYTHON) -m pytest -q -m slow $(PYTEST_ARGS)

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The end-to-end benchmark's own tests (perfbench/ sits outside the
# default `testpaths`).
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q --timeout=300

# Quick serial-vs-overlapped round-pipeline throughput comparison, an
# indexed-vs-exact clustering scaling spot check, a 1-vs-2-worker
# pool scaling spot check, and a telemetry-overhead spot check;
# regenerates BENCH_pipeline.json at the repo root (the committed
# BENCH_clustering.json comes from the full `--sizes 100000 1000000`
# run, BENCH_workers.json from the full 100k-IP 1/2/4/8-worker run,
# BENCH_telemetry.json from the full 50k-IP x5 run, and
# BENCH_serve.json from the full 0.5x/2x/10x offered-rate run
# documented in each benchmark module).
bench-smoke:
	$(PYTHON) benchmarks/bench_pipeline_throughput.py --ips 512 \
		--latency 0.02 --out BENCH_pipeline.json
	$(PYTHON) benchmarks/bench_clustering_scale.py --sizes 20000 \
		--exact-cap 20000 --out /tmp/BENCH_clustering_smoke.json
	$(PYTHON) benchmarks/bench_workers_scale.py --ips 4096 \
		--latency 0.02 --concurrency 24 --shard-size 256 \
		--workers 1 2 --out /tmp/BENCH_workers_smoke.json
	$(PYTHON) benchmarks/bench_telemetry_overhead.py --ips 8192 \
		--repeats 2 --out /tmp/BENCH_telemetry_smoke.json
	$(PYTHON) benchmarks/bench_serve.py --ips 256 --days 4 \
		--rate 50 --duration 1.5 --multiples 0.5 4.0 \
		--out /tmp/BENCH_serve_smoke.json

all: test chaos
