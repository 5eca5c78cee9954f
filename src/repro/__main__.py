"""Command-line entry point: reproduce the paper's tables from a shell.

``python -m repro --help`` lists the commands. Each is one entry of
:data:`COMMANDS`: its help text, its arguments, a ``run(args)`` that
returns a record, and a ``render(record)`` that formats it; ``main``
prints the render. An entry that produces a tracked ``BENCH_*.json``
record names it under ``"bench"``, and ``main`` writes the record to
``--out`` unchanged — the one writer of every benchmark record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro import CloudProvider
from repro.analysis import format_table
from repro.analysis.bench import write_bench_json
from repro.apps.chat import chat_pair
from repro.baselines.vm_hosting import ha_configurations, table1_estimate
from repro.core.advisor import WorkloadProfile, recommend_plan, run_advisor_benchmark
from repro.core.costmodel import PAPER_WORKLOADS, VIDEO_WORKLOAD, CostModel
from repro.core.threatmodel import centralized_tcb_profile, diy_tcb_profile
from repro.obs.export import decomposition_report, to_chrome_trace, to_jsonl, validate_span_tree
from repro.obs.slo import run_slo_benchmark, run_slo_scenario
from repro.plan import DeploymentPlan
from repro.sim.replay import (
    ReplayConfig,
    TraceRecorder,
    read_trace,
    run_replay_chaos,
    run_replay_sharded,
    write_trace,
)
from repro.sim.scale import (
    ChaosConfig,
    ScaleConfig,
    run_chaos_fleet,
    run_obs_benchmark,
    run_storage_ablation,
)
from repro.sim.shard import FleetConfig, run_fleet_sharded
from repro.sim.scenarios import build_scenario, scenario_catalog
from repro.units import ms

# -- what several commands share -------------------------------------------

_SEED = ("--seed", dict(type=int, default=2017))
_CHAT = (("--messages", dict(type=int, default=50)), _SEED)
_FLEET = (
    ("--tenants", dict(type=int, default=12)),
    ("--daily-requests", dict(type=float, default=1200.0)),
    ("--days", dict(type=float, default=7.0)),
    _SEED,
    ("--memory-mb", dict(type=int, default=448)),
    ("--chunk", dict(type=int, default=4096)),
)
_CHAOS_RATES = (("--error-rate", dict(type=float, default=0.01)),
                ("--brownout-rate", dict(type=float, default=0.5)))
_METRICS_OUT = ("--metrics-out",
                dict(default=None, help="with --metrics: write the JSONL exposition here"))


def _fleet(args) -> dict:
    """The config fields ``_FLEET`` sets; ``--chunk`` is added by each command."""
    return dict(tenants=args.tenants, daily_requests=args.daily_requests, days=args.days,
                seed=args.seed, plan=DeploymentPlan(memory_mb=args.memory_mb))


def _chat_run(provider, messages: int) -> str:
    """Table 3's workload: alice posts, bob polls; returns the app instance name."""
    alice, bob = chat_pair(provider)
    for i in range(messages):
        alice.send("room", f"message {i}")
        bob.poll()
    return alice.service.app.instance_name


def _fleet_rows(record, result, args) -> None:
    """The bill rows ``record`` and ``replay`` share, so a divergence shows, and
    with ``--metrics`` the exposition digest (the exposition to ``--metrics-out``)."""
    record["rows"] += [("Billed units", f"{result.billed_units:,}"),
                       ("Invoice", result.invoice_total)]
    if result.health is not None:
        exposition = result.health.to_jsonl()
        if args.metrics_out:
            with open(args.metrics_out, "w") as fh:
                fh.write(exposition)
            record["wrote"].append(args.metrics_out)
        record["rows"].append(
            ("Exposition sha256", hashlib.sha256(exposition.encode("ascii")).hexdigest()))


def _render_table(record) -> str:
    """One table ("statistic / value" unless ``headers`` says otherwise),
    after the run's banner and before the files it wrote."""
    lines = [record["banner"]] if "banner" in record else []
    lines.append(format_table(record.get("headers", ["statistic", "value"]),
                              record["rows"], title=record["title"]))
    lines += [f"wrote {path}" for path in record.get("wrote", ())]
    return "\n".join(lines)


def _format_micros(micros) -> str:
    if micros is None:
        return "-"
    return f"{micros / 1_000_000:.1f} s"


# -- the paper's tables ------------------------------------------------------


def _run_table1(_args):
    estimate = table1_estimate()
    return {"headers": ["component", "monthly cost"],
            "rows": [(part, getattr(estimate, part.lower()).rounded(2))
                     for part in ("Transfer", "Storage", "Compute", "Total")],
            "title": "Table 1: monthly cost of an email service on AWS (t2.nano, 24/7)"}


def _run_table2(args):
    model = CostModel()
    accounting = "full" if args.full else "paper"

    def costs(estimate):
        return (estimate.compute.rounded(2), estimate.storage_and_transfer.rounded(2),
                estimate.total.rounded(2))

    rows = [(name, workload.daily_requests, f"{workload.compute_ms_per_request} ms",
             workload.memory_mb, workload.storage_gb,
             *costs(model.estimate_serverless(workload, accounting=accounting)))
            for name, workload in PAPER_WORKLOADS.items()]
    rows.append(("video_conferencing", 1, "15 min call", "-", 1.0,
                 *costs(model.estimate_vm(VIDEO_WORKLOAD, accounting=accounting))))
    return {"headers": ["application", "daily req", "compute/req", "mem MB", "storage GB",
                        "compute", "storage+transfer", "total"],
            "rows": rows,
            "title": f"Table 2: per-user costs of DIY services ({accounting} accounting)"}


def _run_table3(args):
    provider = CloudProvider(seed=args.seed)
    name = f"{_chat_run(provider, args.messages)}-handler"
    metrics = provider.lambda_.metrics
    return {"title": f"Table 3: chat prototype statistics (seed {args.seed})", "rows": [
        ("Med. Lambda Time Billed", f"{metrics.get(f'{name}.billed_ms').median():.0f} ms"),
        ("Med. Lambda Time Run", f"{metrics.get(f'{name}.run_ms').median():.0f} ms"),
        ("E2E Chat Latency", f"{provider.metrics.get('chat.e2e_ms').median():.0f} ms"),
        ("Lambda Memory Allocated", "448 MB"),
        ("Peak Memory Used", f"{metrics.get(f'{name}.peak_memory_mb').max():.0f} MB"),
        ("Messages exchanged", args.messages),
    ]}


def _render_tcb(profiles) -> str:
    diy, centralized = profiles
    return "\n\n".join([
        diy.summary(), centralized.summary(),
        f"TCB reduction: ~{centralized.total_kloc() / diy.total_kloc():.0f}x by code size",
    ])


def _run_ha(_args):
    diy = CostModel().estimate_serverless(PAPER_WORKLOADS["email"]).total
    return {"headers": ["VM configuration", "monthly cost", "x DIY email ($0.26)"],
            "rows": [(name, estimate.total.rounded(2), f"{float(estimate.total / diy):.0f}x")
                     for name, estimate in ha_configurations().items()],
            "title": "Highly-available VM hosting vs DIY (the abstract's 50x claim)"}


# -- the deployment-plan advisor ---------------------------------------------


def _run_advise(args):
    profile = WorkloadProfile(
        name=args.name, daily_requests=args.daily_requests, storage_puts=args.puts,
        storage_gets=args.gets, sqs_sends=args.sqs_sends, kms_calls=args.kms_calls,
        storage_gb=args.storage_gb, target_run_ms=args.target_ms,
        polling_clients=args.polling_clients,
    )
    return recommend_plan(profile, base_plan=DeploymentPlan(accounting=args.accounting))


def _render_advise(recommendation) -> str:
    lines = [recommendation.render(),
             f"recommended plan: {recommendation.recommended.plan.to_json()}"]
    if recommendation.knee_memory_mb is not None:
        lines.append(f"latency knee (S3 backend): {recommendation.knee_memory_mb} MB")
    return "\n".join(lines)


def _run_bench_advisor(args):
    worker_counts = tuple(
        int(w.strip()) for w in args.workers.split(",") if w.strip()
    ) or (1,)
    record = run_advisor_benchmark(
        tenants=args.tenants, days=args.days, seed=args.seed, worker_counts=worker_counts,
    )
    fleet = record["fleet"]
    record["headline"] = (f"plan optimizer saves {fleet['savings_monthly_usd']}/mo "
                          f"({fleet['savings_pct']}%) across {record['tenants']:,} "
                          f"heterogeneous tenants vs one-size-fits-all")
    record["runs"] = record.pop("classes")
    record["digests"] = record.pop("determinism")
    return record


def _render_bench_advisor(record) -> str:
    fleet = record["fleet"]
    det = record["digests"]
    return "\n".join([
        f"advisor closed loop: {record['tenants']:,} tenants x {record['days']:g} days per arm, "
        f"workers {det['worker_counts']} ...",
        format_table(
            ["class", "tenants", "backend", "mem MB", "uniform $/mo",
             "optimized $/mo", "saved $/mo"],
            [(row["class"], f"{row['tenants']:,}", row["plan"]["storage"],
              row["plan"]["memory_mb"], row["baseline_monthly_usd"],
              row["optimized_monthly_usd"], row["savings_monthly_usd"])
             for row in record["runs"]],
            title=f"Per-class deployment plans (seed {record['seed']})",
        ),
        f"fleet: {fleet['baseline_monthly_usd']}/mo uniform -> "
        f"{fleet['optimized_monthly_usd']}/mo optimized, saving "
        f"{fleet['savings_monthly_usd']}/mo ({fleet['savings_pct']}%); "
        f"byte-identical across workers {det['worker_counts']}: "
        f"{det['identical_across_worker_counts']}",
    ])


def _run_bench_storage(args):
    apps = tuple(name.strip() for name in args.apps.split(",") if name.strip())
    record = run_storage_ablation(apps=apps, requests=args.requests, seed=args.seed)
    record["headline"] = (f"DynamoDB state is faster but "
                          f"{record['storage_price_ratio']:.1f}x the storage price")
    record["runs"] = [dict(app=name, **cell) for name, cell in record["apps"].items()]
    record["digests"] = {"seed": args.seed, "requests": args.requests}
    return record


def _render_bench_storage(record) -> str:
    return "\n".join([
        format_table(
            ["application", "S3 median run (ms)", "DynamoDB median run (ms)", "S3/Dynamo"],
            [(app, cell["s3_run_ms"], cell["dynamo_run_ms"], f"{cell['runtime_ratio']:.2f}x")
             for app, cell in record["apps"].items()],
            title=(f"Storage-backend ablation (seed {record['digests']['seed']}, "
                   f"{record['digests']['requests']} requests/app)"),
        ),
        f"DynamoDB storage price: {record['storage_price_ratio']:.1f}x S3 per GB-month",
    ])


# -- chaos and tracing -------------------------------------------------------


def _run_chaos(args):
    """The chaos fleet's record; one written with ``--out`` carries its control."""
    config = ChaosConfig(tenants=args.tenants, messages=args.messages, seed=args.seed,
                         error_rate=args.error_rate, brownout_rate=args.brownout_rate)
    record = run_chaos_fleet(config, chaos=not args.no_chaos, workers=args.workers)
    if args.out and not args.no_chaos:
        record["control"] = run_chaos_fleet(config, chaos=False, workers=args.workers)["fleet"]
    faults = "under sustained fault injection" if record["chaos"] else "with no faults"
    record["headline"] = (f"chaos fleet: {record['fleet']['eventual_delivery_rate']:.4%} "
                          f"eventual delivery {faults}")
    record["runs"] = record.pop("per_tenant")
    record["digests"] = record.pop("fleet")
    return record


def _render_chaos(record) -> str:
    config = record["config"]
    fleet = record["digests"]
    latency = fleet["latency_ms"] or {}
    return _render_table({
        "banner": (f"chaos fleet: {config['tenants']} tenant(s) x {config['messages']} "
                   f"messages, error rate {config['error_rate']:.1%}, brown-out rate "
                   f"{config['brownout_rate']:.0%} ..."),
        "title": (f"Chaos SLA summary (seed {config['seed']}, "
                  f"chaos={'on' if record['chaos'] else 'off'})"),
        "rows": [
            ("Eventual delivery", f"{fleet['eventual_delivery_rate']:.4%}"),
            ("Per-attempt availability", f"{fleet['attempt_success_rate']:.4%}"),
            ("Retries", fleet["retries"]),
            ("Queued / drained", f"{fleet['queued']} / {fleet['drained']}"),
            ("Breaker trips", fleet["breaker_trips"]),
            ("Injected faults", sum(fleet["injected_faults"].values())),
            ("Downtime", f"{sum(fleet['downtime_micros'].values()) / ms(1):.0f} ms"),
            ("E2E latency p99", f"{latency.get('p99', 0):.0f} ms"),
        ],
    })


def _run_trace(args):
    provider = CloudProvider(seed=args.seed)
    tracer = provider.enable_tracing(sample_rate=args.sample_rate)
    _chat_run(provider, args.messages)
    traces = tracer.collector.traces()
    for root in traces:
        validate_span_tree(root)
    outputs = [(Path(args.out), json.dumps(to_chrome_trace(traces, provider.prices)) + "\n")]
    if args.jsonl:
        outputs.append((Path(args.jsonl), to_jsonl(traces, provider.prices)))
    for path, text in outputs:
        path.write_text(text)
    return {"seed": args.seed, "report": decomposition_report(traces, provider.prices),
            "stats": tracer.collector.stats(), "wrote": [path for path, _text in outputs]}


def _render_trace(record) -> str:
    report = record["report"]
    total = report["total_ms"]
    stats = record["stats"]
    chrome, *jsonl = record["wrote"]
    return "\n".join([
        format_table(
            ["component", "p50 ms", "p95 ms", "p99 ms", "total ms", "share"],
            [(category, f"{cell['p50_ms']:.1f}", f"{cell['p95_ms']:.1f}",
              f"{cell['p99_ms']:.1f}", f"{cell['total_ms']:.1f}", f"{cell['share_pct']:.1f}%")
             for category, cell in report["categories"].items()],
            title=(f"Table 3 latency decomposition: where a chat request's time goes "
                   f"(seed {record['seed']}, {report['traces']} traces)"),
        ),
        f"end-to-end: p50 {total['p50']:.1f} ms, p95 {total['p95']:.1f} ms, "
        f"p99 {total['p99']:.1f} ms across {report['traces']} sampled traces",
        f"billed cost of sampled traces: ${float(report['cost']['total_usd']):.6f} "
        f"(median {report['cost']['median_trace_micro_usd']:.3f} micro-USD/request)",
        f"traces: {stats['started']} requests seen, {stats['sampled']} sampled, "
        f"{stats['dropped']} dropped by the ring buffer",
        f"wrote {chrome} (open in Perfetto: https://ui.perfetto.dev)",
        *(f"wrote {path}" for path in jsonl),
    ])


def _render_bench_obs(record) -> str:
    config = record["config"]
    requests = config["tenants"] * config["daily_requests"] * config["days"]
    return "\n".join([
        f"tracing overhead: {config['tenants']} tenants x {config['daily_requests']:g} "
        f"req/day x {config['days']:g} days (~{requests:,.0f} requests), "
        f"sample rate {record['sample_rate']:g} ...",
        format_table(
            ["mode", "requests", "events/sec", "best wall", "median wall", "invoice"],
            [(run["mode"].replace("_", " "), f"{run['arrivals']:,}",
              f"{run['events_per_second']:,.0f}", f"{run['wall_seconds']:.3f} s",
              f"{run['median_wall_seconds']:.3f} s", run["invoice_total"])
             for run in record["runs"]],
            title=(f"Tracing overhead on the batched engine (seed {config['seed']}, "
                   f"best of {record['repeats']} per mode)"),
        ),
        f"overhead: {record['overhead_pct']:.2f}% "
        f"(budget <10%: {'OK' if record['within_budget'] else 'EXCEEDED'}); "
        f"bills identical: {record['digests']['identical']}",
    ])


# -- record and replay -------------------------------------------------------


def _run_record(args):
    """Run the sharded fleet at one worker and record its trace; ``replay`` reproduces the run."""
    config = FleetConfig(chunk_events=args.chunk, **_fleet(args))
    recorder = TraceRecorder(name=args.name, seed=config.seed, tenants=config.tenants)
    result = run_fleet_sharded(config, collect_health=args.metrics, recorder=recorder)
    trace = recorder.trace()
    write_trace(args.out, trace)
    record = {
        "banner": (f"recording {config.tenants} tenants x {config.daily_requests:g} req/day "
                   f"x {config.days:g} days (~{config.expected_requests():,.0f} requests) ..."),
        "title": f"Recorded trace {trace.header.name!r} (seed {config.seed})",
        "rows": [("Events recorded", f"{len(trace):,}"),
                 ("Tenants", trace.header.tenants),
                 ("Trace sha256", trace.digest())],
        "wrote": [args.out],
    }
    _fleet_rows(record, result, args)
    return record


def _run_replay(args):
    """Replay through the sharded engine or, with ``--chaos``, the chat stacks.

    The plan and engine settings come from the trace header, so with the
    recording seed (the header's, by default) a ``record`` trace replays
    to the recorded run.
    """
    if args.scenario:
        trace = build_scenario(args.scenario, seed=args.seed)
        source = f"scenario {args.scenario!r} (seed {args.seed})"
    elif args.trace:
        trace = read_trace(args.trace)
        source = args.trace
    else:
        raise SystemExit("replay needs a trace file or --scenario NAME")
    if args.metrics and args.chaos:
        raise SystemExit("--metrics applies to the engine replay paths, not --chaos")
    name = trace.header.name
    seed = trace.header.seed if args.replay_seed is None else args.replay_seed
    record = {"banner": f"replaying {len(trace):,} events from {source} ...", "wrote": []}
    if args.chaos:
        chaos = run_replay_chaos(trace, error_rate=args.error_rate,
                                 brownout_rate=args.brownout_rate)
        fleet = chaos["fleet"]
        record["title"] = f"Chaos replay of {name!r}"
        record["rows"] = [("Eventual delivery", f"{fleet['eventual_delivery_rate']:.4%}"),
                          ("Per-attempt availability", f"{fleet['attempt_success_rate']:.4%}"),
                          ("Retries", fleet["retries"]),
                          ("Trace sha256", chaos["trace_sha256"])]
    else:
        result = run_replay_sharded(trace, ReplayConfig(seed=seed), workers=args.workers,
                                    collect_health=args.metrics)
        digest = result.determinism_digest()
        p99 = digest["latency_p99_ms"]
        record["title"] = f"Sharded replay of {name!r} ({args.workers} worker(s))"
        record["rows"] = [("Events replayed", f"{result.events:,}"),
                          ("Payload", f"{result.payload_bytes / 1e9:.3f} GB"),
                          ("Latency p99", f"{p99:.0f} ms" if p99 is not None else "-"),
                          ("Tenant counts sha256", digest["tenant_counts_sha256"]),
                          ("Trace sha256", result.trace_sha256)]
        _fleet_rows(record, result, args)
    return record


def _run_scenarios(args):
    catalog = scenario_catalog(seed=args.seed, replay=args.replay)
    if args.json:
        return {"json": catalog}
    return {"headers": ["scenario", "tenants", "events", "duration",
                        *(["invoice"] if args.replay else []), "trace sha256"],
            "rows": [(entry["name"], entry["tenants"], f"{entry['events']:,}",
                      f"{entry['duration_hours']:g} h",
                      *([entry["invoice_total"]] if args.replay else []),
                      entry["trace_sha256"][:16])
                     for entry in catalog],
            "title": f"Scenario library (seed {args.seed}; digests are per-seed goldens)"}


# -- SLO alerting ------------------------------------------------------------


def _run_slo(args):
    record = run_slo_scenario(args.scenario, seed=args.seed, probes=args.probes)
    plane = record.pop("_plane")
    record["wrote"] = []
    for path, exposition in ((args.jsonl, plane.to_jsonl), (args.prom, plane.to_prometheus)):
        if path:
            with open(path, "w") as fh:
                fh.write(exposition())
            record["wrote"].append(path)
    return record


def _render_slo(record) -> str:
    detection = record["detection"]
    return "\n".join([
        _render_table({
            "title": f"SLO scenario {record['scenario']!r} (seed {record['seed']})",
            "rows": [("Probes (1/s virtual)", record["probes"]),
                     ("Probe failures", record["probe_failures"]),
                     ("Injected fault windows", len(record["truth"])),
                     ("Alert spans", len(record["alerts"])),
                     ("Precision (time-weighted)", f"{detection['precision']:.3f}"),
                     ("Recall", f"{detection['recall']:.3f}"),
                     ("Exposition sha256", record["exposition_sha256"][:32])],
        }),
        format_table(
            ["target", "kind", "window", "detected", "time to detect"],
            [(w["target"], w["kind"],
              f"{_format_micros(w['start'])} .. {_format_micros(w['end'])}",
              "yes" if w["detected"] else "NO",
              _format_micros(w["ttd_micros"]))
             for w in detection["windows"]],
            title="Ground truth (injected faults at rate >= 0.25)",
        ),
        format_table(
            ["slo", "rule", "kind", "alert window"],
            [(a["slo"], a["rule"], a["kind"],
              f"{_format_micros(a['start'])} .. {_format_micros(a['end'])}")
             for a in record["alerts"]],
            title="Burn-rate alerts (virtual time)",
        ),
        *(f"wrote {path}" for path in record["wrote"]),
    ])


def _render_bench_slo(record) -> str:
    seed = record["runs"][0]["seed"]
    rows = []
    for run in record["runs"]:
        detection = run["detection"]
        ttds = [w["ttd_micros"] for w in detection["windows"]]
        worst = max((t for t in ttds if t is not None), default=None)
        rows.append((
            run["scenario"], len(run["truth"]), len(run["alerts"]),
            f"{detection['precision']:.3f}", f"{detection['recall']:.3f}",
            _format_micros(worst) if None not in ttds else "MISSED",
        ))
    delivery = record["delivery_slo"]
    return "\n".join([
        f"slo bench: replaying chaos scenarios twice each (seed {seed}) ...",
        format_table(["scenario", "faults", "alerts", "precision", "recall", "worst TTD"],
                     rows, title=f"Alert detection benchmark (seed {seed})"),
        f"delivery SLO {delivery['slo']}: rate {delivery['delivery_rate']:.4f} "
        f"vs objective {delivery['objective']} -> "
        f"{'compliant' if delivery['compliant'] else 'VIOLATED'}",
    ])


# -- the command table -------------------------------------------------------

COMMANDS = {
    "table1": dict(help="Table 1: the VM email strawman", args=(),
                   run=_run_table1, render=_render_table),
    "table2": dict(help="Table 2: per-user DIY costs", args=(
        ("--full", dict(action="store_true",
                        help="full accounting (adds request + KMS key charges)")),
    ), run=_run_table2, render=_render_table),
    "table3": dict(help="Table 3: run the chat prototype", args=_CHAT,
                   run=_run_table3, render=_render_table),
    "tcb": dict(help="Figure 1: TCB comparison", args=(),
                run=lambda _args: (diy_tcb_profile(), centralized_tcb_profile()),
                render=_render_tcb),
    "ha": dict(help="the 50x-cheaper HA configurations", args=(),
               run=_run_ha, render=_render_table),
    "advise": dict(help="deployment-plan advisor: joint memory/backend/polling sweep", args=(
        ("--name", dict(default="workload", help="workload profile name shown in the table")),
        ("--daily-requests", dict(type=int, default=2000)),
        ("--target-ms", dict(type=float, default=150.0)),
        ("--puts", dict(type=float, default=1.0, help="storage puts per request")),
        ("--gets", dict(type=float, default=0.0, help="storage gets per request")),
        ("--sqs-sends", dict(type=float, default=1.0)),
        ("--kms-calls", dict(type=float, default=1.0)),
        ("--storage-gb", dict(type=float, default=2.0,
                              help="at-rest state (the S3-vs-Dynamo term)")),
        ("--polling-clients", dict(
            type=int, default=0,
            help="continuously long-polling clients (prices the poll budget)")),
        ("--accounting", dict(
            choices=("billed", "marginal"), default="marginal",
            help="billed = free tiers applied; marginal = fleet-operator lens")),
    ), run=_run_advise, render=_render_advise),
    "bench-advisor": dict(
        help="advisor closed loop at fleet scale; writes BENCH_advisor.json", args=(
            ("--tenants", dict(type=int, default=100_000)),
            ("--days", dict(type=float, default=2.0)),
            _SEED,
            ("--workers", dict(default="1,2",
                               help="comma-separated worker counts to run and compare")),
            ("--out", dict(default="BENCH_advisor.json", help="where to write the JSON record")),
        ), run=_run_bench_advisor, render=_render_bench_advisor, bench="BENCH_advisor.json"),
    "bench-storage": dict(
        help="storage-backend ablation: each app on S3 vs DynamoDB state", args=(
            ("--apps", dict(default="chat,email,filetransfer",
                            help="comma-separated subset of the ablation apps")),
            ("--requests", dict(type=int, default=40)),
            _SEED,
            ("--out", dict(default="BENCH_storage.json", help="where to write the JSON record")),
        ), run=_run_bench_storage, render=_render_bench_storage, bench="BENCH_storage.json"),
    "chaos": dict(
        help="run the chat fleet under fault injection and print the SLA summary", args=(
            ("--tenants", dict(type=int, default=2)),
            ("--messages", dict(type=int, default=30)),
            _SEED,
            *_CHAOS_RATES,
            ("--no-chaos", dict(action="store_true",
                                help="run the identical workload with no faults (the control)")),
            ("--workers", dict(type=int, default=1,
                               help="tenant-parallel worker processes (result is identical)")),
            ("--out", dict(default=None, help="optionally write the full JSON record here")),
        ), run=_run_chaos, render=_render_chaos, bench="BENCH_chaos.json"),
    "trace": dict(
        help="traced chat run: latency decomposition + Perfetto/JSONL export", args=(
            *_CHAT,
            ("--sample-rate", dict(type=float, default=1.0)),
            ("--out", dict(default="trace_chat.json",
                           help="Chrome trace_event JSON output (load in Perfetto)")),
            ("--jsonl", dict(default="trace_chat.jsonl",
                             help="flat per-span JSONL output ('' to skip)")),
        ), run=_run_trace, render=_render_trace),
    "bench-obs": dict(
        help="tracing-overhead benchmark on the batched engine; writes BENCH_obs.json", args=(
            *_FLEET,
            ("--sample-rate", dict(type=float, default=1 / 64)),
            ("--capacity", dict(type=int, default=4096)),
            ("--out", dict(default="BENCH_obs.json", help="where to write the JSON perf record")),
        ), run=lambda args: run_obs_benchmark(ScaleConfig(chunk=args.chunk, **_fleet(args)),
                                              sample_rate=args.sample_rate,
                                              capacity=args.capacity),
        render=_render_bench_obs, bench="BENCH_obs.json"),
    "record": dict(
        help="run the sharded fleet engine at one worker and record its workload trace", args=(
            *_FLEET,
            ("--name", dict(default="fleet", help="trace name written into the header")),
            ("--out", dict(default="trace_fleet.jsonl.gz",
                           help="trace output (.gz for deterministic gzip)")),
            ("--metrics", dict(
                action="store_true",
                help="attach the health plane and report its exposition digest")),
            _METRICS_OUT,
        ), run=_run_record, render=_render_table),
    "replay": dict(
        help="replay a recorded trace or a library scenario on the sharded fleet engine",
        args=(
            ("trace", dict(nargs="?", default=None,
                           help="trace file written by 'record' (or a TraceRecorder)")),
            ("--scenario", dict(default=None,
                                help="replay a library scenario instead of a trace file")),
            ("--seed", dict(type=int, default=2017, help="scenario seed (with --scenario)")),
            ("--replay-seed", dict(type=int, default=None,
                                   help="latency-RNG seed (default: the trace header's seed)")),
            ("--workers", dict(type=int, default=1)),
            ("--metrics", dict(action="store_true",
                               help="collect the health plane: same exposition bytes as "
                                    "'record --metrics' for the trace it recorded")),
            _METRICS_OUT,
            ("--chaos", dict(action="store_true",
                             help="drive the trace through real chat stacks under faults")),
            *_CHAOS_RATES,
        ), run=_run_replay, render=_render_table),
    "scenarios": dict(
        help="list the scenario library with event counts and golden digests", args=(
            _SEED,
            ("--replay", dict(action="store_true",
                              help="also replay each scenario for its golden invoice")),
            ("--json", dict(action="store_true", help="print the full catalog as JSON")),
        ), run=_run_scenarios,
        render=lambda record: (json.dumps(record["json"], indent=2) if "json" in record
                               else _render_table(record))),
    "slo": dict(
        help="probe a chaos scenario and evaluate SLO burn-rate alerts against ground truth",
        args=(
            ("--scenario", dict(default="regional-storm",
                                help="SLO scenario name (see repro.obs.slo.SLO_SCENARIOS)")),
            _SEED,
            ("--probes", dict(type=int, default=150,
                              help="synthetic probes at 1/s of virtual time")),
            ("--jsonl", dict(default=None,
                             help="optionally write the health-plane JSONL exposition here")),
            ("--prom", dict(default=None,
                            help="optionally write the Prometheus text exposition here")),
        ), run=_run_slo, render=_render_slo),
    "bench-slo": dict(
        help="alerting precision/recall/TTD over the chaos scenarios; writes BENCH_slo.json",
        args=(
            _SEED,
            ("--probes", dict(type=int, default=150)),
            ("--out", dict(default="BENCH_slo.json", help="where to write the JSON record")),
        ), run=lambda args: run_slo_benchmark(seed=args.seed, probes=args.probes),
        render=_render_bench_slo, bench="BENCH_slo.json"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the tables of 'DIY Hosting for Online Privacy' (HotNets 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        subparser = sub.add_parser(name, help=command["help"])
        for flag, options in command["args"]:
            subparser.add_argument(flag, **options)
    args = parser.parse_args(argv)
    command = COMMANDS[args.command]
    record = command["run"](args)
    print(command["render"](record))
    if "bench" in command and args.out:
        print(f"wrote {write_bench_json(args.out, **record)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
