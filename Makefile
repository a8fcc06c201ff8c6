# Convenience targets for the SHIFT-SPLIT reproduction.

.PHONY: install test bench bench-e2e bench-ab trace-smoke fault-smoke serve-smoke obs-smoke chaos-smoke racesan-smoke serve ci lint analyze experiments examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# End-to-end harness smoke (non-gating in CI): every BENCHMARK.json
# workload on the smoke geometry, written to BENCH_e2e_smoke.json, then
# the harness's own tests.
bench-e2e:
	python3 benchmarks/e2e/run.py --workload all --smoke --seconds 1 --out BENCH_e2e_smoke.json
	python -m pytest benchmarks/e2e -q

# Paired A/B of the end-to-end benchmark: BASE (a git revision) against
# this tree, PAIRS seeds, run order alternated seed by seed; prints the
# compare table and fails on any `worse` row (docs/performance.md).
PAIRS ?= 3
bench-ab:
	python3 scripts/bench_ab.py --base $(BASE) --pairs $(PAIRS)

# Tiny traced serve-replay (non-gating in CI); writes TRACE_smoke.json
# (Perfetto-loadable) + METRICS_smoke.prom and validates both formats
# plus lossless I/O attribution.
trace-smoke:
	PYTHONPATH=src python scripts/trace_smoke.py

# Robustness drill (non-gating in CI): crashes a journaled flush at
# every protocol site and proves atomic recovery, then replays the
# service workload under injected read faults through the self-healing
# engine; writes FAULT_smoke.json and fails on any wrong answer.
fault-smoke:
	PYTHONPATH=src python scripts/fault_smoke.py

# HTTP serving smoke (non-gating in CI): drives a live threading WSGI
# server over the demo hub, measures p50/p95 latency + I/O per request
# class, and runs the two-tenant quota-enforcement experiment; writes
# BENCH_http.json and fails if quota isolation does not hold.
serve-smoke:
	PYTHONPATH=src python benchmarks/bench_http_serving.py --smoke

# Telemetry overhead smoke (non-gating in CI): interleaves the same
# aggregate workload across baseline / recorders-on / traced hubs and
# reports p50/p95 with the always-on overhead vs the 5% p95 budget;
# writes BENCH_obs.json.
obs-smoke:
	PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke

# Replication drill (non-gating in CI): ship/replay throughput,
# measured failover time, and a reduced replication chaos matrix with
# acked-write-loss hard-asserted to zero; writes BENCH_replication.json
# and fails if any kill site loses an acknowledged update.
chaos-smoke:
	PYTHONPATH=src python benchmarks/bench_replication.py --smoke

# Lockset race sanitizer smoke (non-gating in CI): runs the 8-thread
# metrics hammer and the replication apply path under REPRO_RACESAN=1
# instrumentation, plus a seeded-race sentinel proving the detector
# can fire; writes RACESAN_smoke.json and fails on any race or
# guard-mismatch finding.
racesan-smoke:
	REPRO_RACESAN=1 PYTHONPATH=src python scripts/racesan_smoke.py

# Interactive: serve the demo hub on localhost:8950 (see docs/serving.md)
serve:
	PYTHONPATH=src python -m repro.server

ci:
	PYTHONPATH=src python -m pytest -x -q

# Strict-tooling island (see pyproject.toml): ruff + mypy over
# src/repro/analysis and src/repro/storage/iostats.py.  Gating in CI,
# where the tools are installed; skipped gracefully on machines
# without them so `make lint` never blocks local work.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check . && ruff format --check .; \
	else \
		echo "lint: ruff not installed, skipping (CI runs it)"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "lint: mypy not installed, skipping (CI runs it)"; \
	fi

# repro-lint: the project-invariant static analyzer (gating).  Exits
# non-zero on any finding beyond lint_baseline.json and writes the
# full JSON report (findings + static lock-order graph) for CI to
# archive.
analyze:
	PYTHONPATH=src python -m repro.analysis --json analysis_report.json

experiments:
	python scripts/regenerate_experiments.py results

examples:
	for script in examples/*.py; do python $$script; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache results
	rm -f analysis_report.json protocol_report.json RACESAN_smoke.json
