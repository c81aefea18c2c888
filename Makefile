PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-baseline bench-serve bench-scaling perfbench table1 smoke-obs smoke-serve examples

test:
	$(PYTHON) -m pytest -q

# Observability smoke test: run table1 --trace on a small fixture and
# assert the manifest validates against the checked-in JSON schema.
# The same file runs as part of `make test` (it lives in tests/).
smoke-obs:
	$(PYTHON) -m pytest -q tests/test_obs_smoke.py

# Serving smoke test: export a bundle, serve it over HTTP, score through
# the client, and exercise the structured-error contract end to end; check
# that server start loads no scipy module (tests/test_import_graph.py).
# The same files run as part of `make test` (they live in tests/).
smoke-serve:
	$(PYTHON) -m pytest -q tests/test_serve_bundle.py tests/test_serve_engine.py tests/test_serve_server.py tests/test_import_graph.py

# Run every example script end to end; stop at the first that fails.
examples:
	@for example in examples/*.py; do \
		echo "== $$example"; \
		$(PYTHON) $$example || exit 1; \
	done

# Regression gate: fail when any component is >20% slower than the
# committed baseline (benchmarks/BENCH_components.json), then check the
# screening service sustains the acceptance throughput.
bench:
	$(PYTHON) benchmarks/bench_report.py --compare benchmarks/BENCH_components.json
	$(PYTHON) benchmarks/bench_serve.py --min-throughput 45000

# Closed-loop HTTP load test of the screening service on its own.
bench-serve:
	$(PYTHON) benchmarks/bench_serve.py --min-throughput 45000

# Population-size scaling of the Monte Carlo engine (report only, not
# gated): best wall time and devices/s at growing n_mc.
bench-scaling:
	$(PYTHON) benchmarks/bench_scaling.py

# Regenerate the committed baseline (run on the reference machine only).
bench-baseline:
	$(PYTHON) benchmarks/bench_report.py --output benchmarks/BENCH_components.json

# The repo benchmark (BENCHMARK.json): one workload end to end, then its
# JSON result line.  Workloads: calibrate, screen-line, screen-lot;
# TRACE=1 reports the per-layer metrics instead.
WORKLOAD ?= calibrate
SEED ?= 0
RUN_SECONDS ?= 30
TRACE ?= 0
perfbench:
	$(PYTHON) perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) --seconds $(RUN_SECONDS) --trace $(TRACE)

table1:
	$(PYTHON) -m repro.cli table1
