PYTHON ?= python

BENCH_REPEATS ?= 3
BENCH_TUNERS ?= 1000

# bench-engine trace length: the batch paths run the full trace; the
# scalar baseline and the per-walk differential gate use ENGINE_SAMPLE.
ENGINE_WALKS ?= 200000
ENGINE_SAMPLE ?= 2000
ENGINE_REPEATS ?= 3

# bench-cluster pacing: real air time (slots of CLUSTER_SLOT seconds)
# is what makes aggregate walks/sec scale with the shard count —
# sharding shortens each shard's cycle, so a paced walk finishes in
# ~1/N of the wall-clock even on one core.
CLUSTER_TUNERS ?= 100
CLUSTER_SLOT ?= 0.02
CLUSTER_SWEEP ?= 1,2,4

# bench-sched history depth: enough versions that the snapshot+delta
# encoding (not the snapshot floor) dominates bytes-per-version.
SCHED_VERSIONS ?= 40

# bench-approx catalog sizes: smoke scale; sweep 100000,1000000 by hand
# for the paper-scale frontier.
APPROX_SIZES ?= 1000,10000

.PHONY: install test bench bench-json bench-server bench-net bench-cluster bench-engine bench-sched bench-approx examples experiments clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-json:
	$(PYTHON) -m repro.cli bench --repeats $(BENCH_REPEATS) --json BENCH_search.json

bench-server:
	$(PYTHON) -m repro.cli bench-server --json BENCH_server.json

bench-net:
	$(PYTHON) -m repro.cli loadtest --tuners $(BENCH_TUNERS) --check-parity --json BENCH_net.json

# Shard-count scaling sweep with per-shard accounting + parity gates.
bench-cluster:
	$(PYTHON) -m repro.cli cluster loadtest --tuners $(CLUSTER_TUNERS) --sweep $(CLUSTER_SWEEP) --slot-duration $(CLUSTER_SLOT) --check-parity --json BENCH_cluster.json

# Batch-engine suite: throughput plus the built-in bit-identity gates.
bench-engine:
	$(PYTHON) -m repro.cli engine bench --walks $(ENGINE_WALKS) --sample $(ENGINE_SAMPLE) --repeats $(ENGINE_REPEATS) --json BENCH_engine.json

# Versioned-store suite: publish/load/rollback latency and the
# bytes-per-version the delta encoding buys.
bench-sched:
	$(PYTHON) -m repro.cli sched bench --versions $(SCHED_VERSIONS) --json BENCH_sched.json

# Approximation-frontier suite: quality-vs-time points for the
# repro.approx planners (ptas / sorting / meta) across APPROX_SIZES,
# with the built-in differential checks on the ptas bound.
bench-approx:
	$(PYTHON) -m repro.cli approx frontier --sizes $(APPROX_SIZES) --json BENCH_approx.json

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

experiments:
	$(PYTHON) -m repro.cli table1
	$(PYTHON) -m repro.cli fig14
	$(PYTHON) -m repro.cli compare
	$(PYTHON) -m repro.cli channels
	$(PYTHON) -m repro.cli ablation
	$(PYTHON) -m repro.cli sensitivity
	$(PYTHON) -m repro.cli faults

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
