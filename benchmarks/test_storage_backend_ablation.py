"""X11 — the storage-backend ablation (the paper's footnote 1).

"Amazon DynamoDB is a low-latency alternative to S3." With every app on
the runtime kernel's ``StateStore``, the backend is one plan field
(``DeploymentPlan(storage="dynamo")``), so the ablation covers chat,
email, and file transfer: each app runs its workload with state on S3
and again on DynamoDB, and the bench reports the warm-path median run
time per backend plus the price the footnote doesn't mention: DynamoDB
storage is ~11x the per-GB price of S3.
"""

from bench_utils import attach_and_print

from repro.analysis import PaperComparison, format_table
from repro.sim.scale import run_storage_ablation

REQUESTS = 40


def test_storage_backend_ablation(benchmark):
    record = benchmark.pedantic(
        lambda: run_storage_ablation(requests=REQUESTS, seed=2017),
        rounds=1, iterations=1,
    )
    price_ratio = record["storage_price_ratio"]
    print()
    print(format_table(
        ["application", "S3 median run (ms)", "DynamoDB median run (ms)", "S3/Dynamo"],
        [(app, round(cell["s3_run_ms"], 1), round(cell["dynamo_run_ms"], 1),
          f"{cell['runtime_ratio']:.2f}x")
         for app, cell in record["apps"].items()],
        title="X11: state backend per app",
    ))
    comparison = PaperComparison("X11: DynamoDB as the low-latency alternative")
    for app, cell in record["apps"].items():
        comparison.add(
            f"{app} run-time reduction (S3/Dynamo)", 1.5, cell["runtime_ratio"],
            note="footnote is qualitative; the S3 put dominates the S3 path",
        )
    comparison.add("storage price ratio (Dynamo/S3)", 10.9, round(price_ratio, 1))
    attach_and_print(benchmark, comparison)
    assert set(record["apps"]) == {"chat", "email", "filetransfer"}
    for app, cell in record["apps"].items():
        assert cell["dynamo_is_faster"], f"{app}: dynamo not faster"
        assert cell["dynamo_run_ms"] < cell["s3_run_ms"]
    assert price_ratio > 5
