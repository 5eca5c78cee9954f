# Convenience entry points; everything runs from the repo checkout
# without installation (PYTHONPATH=src).

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test lint bench bench-check bench-storage chaos obs trace bench-obs tables advise bench-advisor advisor slo bench-slo slo-tests

# Tier-1: the full test suite (the slow opt-in markers are deselected
# by default via pyproject addopts).
test:
	$(PY) -m pytest -x -q

# Architecture lint: apps must go through the runtime kernel's
# StateStore — no direct storage-client calls and no hand-rolled
# "{instance}-<suffix>" resource names outside repro/runtime.
lint:
	@! grep -rn "ctx\.services\.s3_get\|ctx\.services\.s3_put\|ctx\.services\.s3_list\|ctx\.services\.s3_delete\|ctx\.services\.dynamo_" src/repro/apps/ \
		|| { echo "lint: apps must use kctx.store, not raw storage clients"; exit 1; }
	@! grep -rn 'f"{[^}]*}-state"\|f"{[^}]*}-mail"\|f"{[^}]*}-drop"\|f"{[^}]*}-home"\|f"{[^}]*}-calls"\|f"{[^}]*}-kv"' src/repro/apps/ \
		|| { echo "lint: resource names belong to the kernel, not the apps"; exit 1; }
	@! grep -rn "MetricRegistry()" src/repro/cloud/ --include="*.py" | grep -v "cloud/provider\.py" \
		|| { echo "lint: cloud services must use the provider's injected MetricRegistry"; exit 1; }
	@! grep -rn 'json\.loads(line\|"repro-trace"' src/repro --include="*.py" | grep -v "sim/replay/format\.py" \
		|| { echo "lint: trace files are parsed only by repro.sim.replay.format"; exit 1; }
	@! grep -rn 'environ\[.DIY_STORAGE.\]\|environ\.get(.DIY_STORAGE.\|getenv(.DIY_STORAGE.\|environ\[STORAGE_ENV\]\|environ\.get(STORAGE_ENV\|getenv(STORAGE_ENV' src/repro --include="*.py" | grep -v "repro/plan\.py" \
		|| { echo "lint: DIY_STORAGE is read only by repro.plan.plan_from_env"; exit 1; }
	@! grep -rn '# TYPE ' src/repro --include="*.py" | grep -v "obs/metrics\.py" \
		|| { echo "lint: only repro.obs.metrics emits Prometheus exposition"; exit 1; }
	@! grep -rnE '_BILLING_GRANULARITY_MICROS|// granularity|UsageKind\.(S3_PUT|DYNAMO_WRITES|LAMBDA_GB_SECONDS|TRANSFER_OUT_GB)' src/repro/sim --include="*.py" | grep -v "sim/fold\.py" \
		|| { echo "lint: the Lambda billing rule lives only in repro.sim.fold"; exit 1; }
	@! grep -rn 'chacha20_block(' src/repro --include="*.py" | grep -v "crypto/chacha20\.py\|crypto/__init__\.py" \
		|| { echo "lint: the AEAD takes its Poly1305 key from its one keystream pass, not from chacha20_block"; exit 1; }
	@! grep -n 'trace\.events' src/repro/sim/replay/replayer.py src/repro/__main__.py \
		|| { echo "lint: the replay engines and the CLI read trace columns, never trace.events"; exit 1; }
	@! grep -rnE 'PRICES_2017|prices: PriceBook' src/repro/sim --include="*.py" \
		|| { echo "lint: the fleet engines price with plan.prices"; exit 1; }
	@! grep -rnE 'call_with_retries\(|CircuitBreaker\(|AvailabilityTracker\(|ThrottledError\(|status == 429' src/repro/apps --include="*.py" \
		|| { echo "lint: app clients retry and queue through repro.resilience"; exit 1; }
	@echo "lint: OK"

# The paper-reproduction benchmark suite (pytest-benchmark based).
bench:
	$(PY) -m pytest benchmarks -q

# Host-time regression gate: fresh repetitions of every bench/run.py
# workload against bench/baseline.json; exits 1 on a regression beyond
# a metric's bound or a failed output check.
bench-check:
	PYTHONPATH=src python3 bench/run.py check

# Storage-backend ablation across chat/email/filetransfer; writes
# BENCH_storage.json.
bench-storage:
	$(PY) -m repro bench-storage

# Chaos-resilience experiments: the chat fleet under fault injection
# (opt-in; the default test run deselects `-m chaos`).
chaos:
	$(PY) -m pytest benchmarks/test_chaos_resilience.py -m chaos -s

# Observability acceptance tests (opt-in; the default test run
# deselects `-m obs`).
obs:
	$(PY) -m pytest benchmarks/test_obs_overhead.py -m obs -s

# Traced chat run: latency decomposition table + Perfetto/JSONL export.
trace:
	$(PY) -m repro trace

# Tracing-overhead benchmark on the per-tenant engine; writes BENCH_obs.json.
bench-obs:
	$(PY) -m repro bench-obs

# Deployment-plan advisor: joint memory x backend x polling sweep for
# the default chat-like profile.
advise:
	$(PY) -m repro advise

# Advisor closed loop: optimize plans per tenant class, re-simulate the
# fleet on the sharded engine, report $ saved; writes BENCH_advisor.json.
bench-advisor:
	$(PY) -m repro bench-advisor

# Advisor acceptance tests at fleet scale (opt-in; the default test run
# deselects `-m advisor`; the fast advisor tests are already in tier-1).
advisor:
	$(PY) -m pytest tests/core/test_advisor.py benchmarks -m advisor -s

# Probe a chaos scenario and evaluate SLO burn-rate alerts against the
# injected-fault ground truth.
slo:
	$(PY) -m repro slo

# Alerting precision/recall/time-to-detect over the chaos scenarios;
# writes BENCH_slo.json.
bench-slo:
	$(PY) -m repro bench-slo

# SLO acceptance tests (opt-in; the default test run deselects `-m slo`;
# the fast metrics/SLO unit tests are already in tier-1).
slo-tests:
	$(PY) -m pytest tests/obs -m slo -s

tables:
	$(PY) -m repro table1
	$(PY) -m repro table2
	$(PY) -m repro table3
