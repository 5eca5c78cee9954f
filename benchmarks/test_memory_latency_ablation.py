"""X4 — the §6.2 memory ablation.

"Even though our function only uses 51MB of memory, allocating 448 MB
gave significantly better latencies than a 128 MB function; we found
that API calls to S3 took significantly longer when we allocated less
memory to the function."

The bench deploys the same chat app at 128/256/448/1024 MB and measures
the warm-path median run time and E2E latency at each size.
"""

from bench_utils import attach_and_print

from repro import CloudProvider
from repro.analysis import PaperComparison, format_table
from repro.apps.chat import ChatClient, ChatService, chat_manifest
from repro.core.deployment import Deployer

MESSAGES = 30
SIZES = (128, 256, 448, 1024)


def _measure(memory_mb: int) -> dict:
    provider = CloudProvider(name="bench", seed=2017)
    app = Deployer(provider).deploy(
        chat_manifest(memory_mb=memory_mb), owner="alice",
        instance_name=f"chat-{memory_mb}",
    )
    service = ChatService(app)
    service.create_room("r", ["alice@diy", "bob@diy"])
    alice = ChatClient(service, "alice@diy")
    bob = ChatClient(service, "bob@diy")
    for client in (alice, bob):
        client.join("r")
        client.connect()
    for i in range(MESSAGES):
        alice.send("r", f"m{i}")
        bob.poll()
    name = f"{app.instance_name}-handler"
    return {
        "run_ms": provider.lambda_.metrics.get(f"{name}.run_ms").median(),
        "e2e_ms": provider.metrics.get("chat.e2e_ms").median(),
        "peak_mb": provider.lambda_.metrics.get(f"{name}.peak_memory_mb").max(),
    }


def test_memory_latency_ablation(benchmark):
    results = benchmark.pedantic(
        lambda: {size: _measure(size) for size in SIZES}, rounds=1, iterations=1
    )
    rows = [
        (size, round(r["run_ms"], 1), round(r["e2e_ms"], 1), round(r["peak_mb"], 1))
        for size, r in results.items()
    ]
    print()
    print(format_table(
        ["memory (MB)", "median run (ms)", "median E2E (ms)", "peak used (MB)"],
        rows, title="X4: chat latency vs allocated memory",
    ))

    comparison = PaperComparison("X4: 448 MB vs 128 MB (the paper's choice)")
    speedup = results[128]["run_ms"] / results[448]["run_ms"]
    comparison.add("run-time speedup 128->448 MB", 3.5, round(speedup, 2),
                   note="paper is qualitative ('significantly better'); 3.5 = 448/128 share ratio")
    comparison.add("peak memory at 448 MB", 51.0, round(results[448]["peak_mb"], 1))
    attach_and_print(benchmark, comparison)

    run_times = [results[size]["run_ms"] for size in SIZES]
    assert run_times == sorted(run_times, reverse=True), "more memory must not be slower"
    assert speedup > 1.5, "the 128 MB function must be significantly slower"
    # Peak usage stays far below every allocation: memory is bought for
    # network share, not for space — exactly the paper's observation.
    for size in SIZES:
        assert results[size]["peak_mb"] < 60

    # Extension: what the paper's hand-tuned 448 MB misses. The advisor
    # sweeps every size and finds 640 MB dominates — crossing under the
    # 100 ms billing increment makes it faster AND cheaper.
    from repro.core.advisor import WorkloadProfile, recommend_plan
    from repro.plan import DeploymentPlan

    recommendation = recommend_plan(
        WorkloadProfile("chat", daily_requests=2000, target_run_ms=150),
        base_plan=DeploymentPlan(accounting="marginal"), backends=("s3",),
    )
    print()
    print(recommendation.render())
    assert recommendation.recommended.plan.memory_mb == 640
    assert recommendation.knee_memory_mb == 448
