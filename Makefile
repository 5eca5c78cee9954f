# Convenience entry points; everything runs from the repo checkout
# without installation (PYTHONPATH=src).

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test lint bench bench-check bench-storage chaos bench-chaos obs trace bench-obs tables advise bench-advisor advisor slo bench-slo slo-tests

# Tier-1: the full test suite (the slow opt-in markers are deselected
# by default via pyproject addopts).
test:
	$(PY) -m pytest -x -q

# Architecture lint: apps must go through the runtime kernel's
# StateStore — no direct storage-client calls and no hand-rolled
# "{instance}-<suffix>" resource names outside repro/runtime — and
# reach Lambda only through the Deployer; every price is read through
# repro.cloud.billing's rate table; each BENCH_*.json record has one
# writer, an entry of the CLI's command table; numpy is imported only by
# repro._optional (and the version probe of repro.analysis.bench), so
# its _FORCE_FALLBACK hook reaches every numpy path; XML is written by
# repro.protocols.xmpp's direct writer, which alone keeps ElementTree's
# tostring for namespaced attributes; the per-tenant engine in
# repro.sim.scale takes no trace recorder and no health plane, so the
# sharded engine is the one that records and replays; norm_ppf is
# called only by repro.sim.vecmath's shared quantile grid, so no table
# rebuilds the grid; only repro.sim.vecmath calls numpy_or_none() at
# import, so the app path never loads numpy before it runs an array
# kernel; gzip and zlib are used only by repro.sim.replay.format, so
# the deterministic trace container and its deflate level have one home.
lint:
	@! grep -rn "ctx\.services\.s3_get\|ctx\.services\.s3_put\|ctx\.services\.s3_list\|ctx\.services\.s3_delete\|ctx\.services\.dynamo_" src/repro/apps/ src/repro/core/ \
		|| { echo "lint: apps must use kctx.store, not raw storage clients"; exit 1; }
	@! grep -rn "FunctionConfig(" src/repro/core/ src/repro/apps/ --include="*.py" | grep -v "core/deployment\.py" \
		|| { echo "lint: apps reach Lambda only through repro.core.deployment.Deployer"; exit 1; }
	@! grep -rn 'f"{[^}]*}-state"\|f"{[^}]*}-mail"\|f"{[^}]*}-drop"\|f"{[^}]*}-home"\|f"{[^}]*}-calls"\|f"{[^}]*}-kv"' src/repro/apps/ \
		|| { echo "lint: resource names belong to the kernel, not the apps"; exit 1; }
	@! grep -rn "MetricRegistry()" src/repro/cloud/ --include="*.py" | grep -v "cloud/provider\.py" \
		|| { echo "lint: cloud services must use the provider's injected MetricRegistry"; exit 1; }
	@! grep -rn 'json\.loads(line\|"repro-trace"' src/repro --include="*.py" | grep -v "sim/replay/format\.py" \
		|| { echo "lint: trace files are parsed only by repro.sim.replay.format"; exit 1; }
	@! grep -rnE 'os\.environ|getenv\(' src/repro --include="*.py" \
		|| { echo "lint: src/repro reads no process environment; the DeploymentPlan is the only config input"; exit 1; }
	@! grep -rn '# TYPE ' src/repro --include="*.py" | grep -v "obs/metrics\.py" \
		|| { echo "lint: only repro.obs.metrics emits Prometheus exposition"; exit 1; }
	@! grep -rnE '_BILLING_GRANULARITY_MICROS|// granularity|UsageKind\.(S3_PUT|DYNAMO_WRITES|LAMBDA_GB_SECONDS|TRANSFER_OUT_GB)' src/repro/sim --include="*.py" | grep -v "sim/fold\.py" \
		|| { echo "lint: the Lambda billing rule lives only in repro.sim.fold"; exit 1; }
	@! grep -rn 'chacha20_block(' src/repro --include="*.py" | grep -v "crypto/chacha20\.py\|crypto/__init__\.py" \
		|| { echo "lint: the AEAD takes its Poly1305 key from its one keystream pass, not from chacha20_block"; exit 1; }
	@! grep -rn 'trace\.events' src/repro/sim/replay/replayer.py src/repro/__main__.py src/repro/sim/scenarios/ src/repro/sim/replay/recorder.py \
		|| { echo "lint: the replay engines, the CLI, the scenario library and the recorder read trace columns, never trace.events"; exit 1; }
	@! grep -rnE 'PRICES_2017|prices: PriceBook' src/repro/sim src/repro/obs --include="*.py" | grep -E '^src/repro/sim/|PRICES_2017' \
		|| { echo "lint: the fleet engines price with plan.prices, and the trace exporters with the book they are given"; exit 1; }
	@! grep -rnE 'call_with_retries\(|CircuitBreaker\(|AvailabilityTracker\(|ThrottledError\(|status == 429' src/repro/apps --include="*.py" \
		|| { echo "lint: app clients retry and queue through repro.resilience"; exit 1; }
	@! grep -rnE 'create_queue\(|create_bucket\(|create_table\(|queue_exists\(' src/repro/core src/repro/apps --include="*.py" | grep -v "core/deployment\.py\|core/app\.py" \
		|| { echo "lint: apps make resources only through the Deployer and DIYApp.queue"; exit 1; }
	@! grep -rnE '\.(lambda_per|lambda_free|s3_storage_per|s3_put_per|s3_get_per|transfer_out_per|transfer_free|sqs_per|sqs_free|ses_per|ses_free|kms_per|kms_free|dynamo_per|dynamo_storage_per|ebs_per|health_check_per|elb_per)[a-z_]*|\.hourly\b' src/repro --include="*.py" | grep -v "cloud/billing\.py\|cloud/pricing\.py" \
		|| { echo "lint: PriceBook rates and allowances are read only by repro.cloud.billing's rate table"; exit 1; }
	@! grep -rn 'write_bench_json(' src/repro benchmarks --include="*.py" | grep -v "src/repro/__main__\.py\|src/repro/analysis/bench\.py" \
		|| { echo "lint: each BENCH_*.json has one writer, a python -m repro" "command"; exit 1; }
	@! grep -rnE '^\s*(import numpy|from numpy)' src/repro --include="*.py" | grep -v "src/repro/_optional\.py\|src/repro/analysis/bench\.py" \
		|| { echo "lint: numpy enters src/repro only through repro._optional.numpy_or_none"; exit 1; }
	@! grep -rn 'tostring(' src/repro --include="*.py" | grep -v "src/repro/protocols/xmpp\.py" \
		|| { echo "lint: stanzas and BOSH bodies are written directly; tostring( only in repro.protocols.xmpp, for namespaced attributes"; exit 1; }
	@! grep -nE 'recorder|health' src/repro/sim/scale.py \
		|| { echo "lint: the sharded engine alone records traces and carries the health plane; repro.sim.scale takes neither"; exit 1; }
	@! grep -rn 'norm_ppf(' src/repro --include="*.py" | grep -v 'src/repro/sim/vecmath\.py:[0-9]*:def norm_ppf(\|src/repro/sim/vecmath\.py:[0-9]*: *grid = _normal_grids\[bits\] = \[norm_ppf(' \
		|| { echo "lint: norm_ppf runs only in repro.sim.vecmath._normal_grid; tables share its grid"; exit 1; }
	@! grep -rnE '^[^[:space:]#].*numpy_or_none\(' src/repro --include="*.py" | grep -v 'src/repro/sim/vecmath\.py:\|src/repro/_optional\.py:[0-9]*:def numpy_or_none(' \
		|| { echo "lint: only repro.sim.vecmath calls numpy_or_none() at import; every other module loads numpy on first use"; exit 1; }
	@! grep -rnE '\b(gzip|zlib)\.|^\s*(import|from)\s.*\b(gzip|zlib)\b' src/repro --include="*.py" | grep -v 'src/repro/sim/replay/format\.py:' \
		|| { echo "lint: trace compression lives only in repro.sim.replay.format; no gzip or zlib elsewhere in src/repro"; exit 1; }
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

# The chaos fleet at the recorded config (4 tenants x 60 messages, with
# the chaos-off control run); writes BENCH_chaos.json.
bench-chaos:
	$(PY) -m repro chaos --tenants 4 --messages 60 --out BENCH_chaos.json

# Observability acceptance tests (opt-in; the default test run
# deselects `-m obs`).
obs:
	$(PY) -m pytest benchmarks/test_obs_overhead.py -m obs -s

# Traced chat run: latency decomposition table + Perfetto/JSONL export.
trace:
	$(PY) -m repro trace

# Tracing-overhead benchmark on the batched engine; writes BENCH_obs.json.
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
