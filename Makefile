# Developer/CI entry points.  Tier-1 (`make test`) is the PR gate; the
# smoke target exercises the parallel engine path end to end and is also
# wired into tier-1 via tests/test_cli_experiments_smoke.py; staticpass
# cross-checks the static race-freedom analysis against the dynamic
# oracle on every workload (exit 1 on any soundness violation) and is
# wired into tier-1 via tests/test_staticpass.py; serve-smoke drives the
# telemetry daemon CLI (serve/submit/status) end to end and is wired into
# tier-1 via tests/test_service_smoke.py; validate-smoke drives the race
# validation CLI (run --log-out / validate / run --validate) end to end
# and is wired into tier-1 via tests/test_validate_smoke.py; bench-smoke
# runs the detector throughput harness at tiny scale and validates the
# BENCH_detector.json schema-2 trajectory, wired into tier-1 via
# tests/test_bench_smoke.py (append a new committed entry with
# `python -m repro bench --out BENCH_detector.json`); scenarios-smoke
# builds every declarative scenario from its spec, checks planted ground
# truth end to end, and replays a 1000-request loadgen burst against a
# live `repro serve`, wired into tier-1 via tests/test_scenarios_smoke.py.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test smoke serve-smoke validate-smoke bench-smoke scenarios-smoke staticpass bench artifacts clean-cache

test:
	$(PYTHON) -m pytest -x -q

smoke:
	$(PYTHON) -m repro.experiments all --scale 0.1 --jobs 2

serve-smoke:
	$(PYTHON) -m pytest tests/test_service_smoke.py -q

validate-smoke:
	$(PYTHON) -m pytest tests/test_validate_smoke.py -q

bench-smoke:
	$(PYTHON) -m pytest tests/test_bench_smoke.py -q

scenarios-smoke:
	$(PYTHON) -m pytest tests/test_scenarios_smoke.py -q

staticpass:
	$(PYTHON) -m repro staticpass --all --check --scale 0.2

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

artifacts:
	$(PYTHON) -m repro.experiments all --scale 1.0

clean-cache:
	rm -rf $${REPRO_CACHE_DIR:-$$HOME/.cache/repro}
