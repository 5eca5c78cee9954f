"""Command-line entry point: reproduce the paper's tables from a shell.

    python -m repro table1     # §5's VM email strawman breakdown
    python -m repro table2     # per-user DIY service costs
    python -m repro table3     # run the chat prototype, print its stats
    python -m repro tcb        # Figure 1's TCB comparison
    python -m repro ha         # the "50x cheaper" HA configurations
    python -m repro chaos      # the chat fleet under fault injection
    python -m repro trace      # traced chat run + latency decomposition
    python -m repro bench-obs  # tracing-overhead benchmark (BENCH_obs.json)
    python -m repro record     # record a fleet run to a workload trace
    python -m repro replay     # replay a trace (or library scenario)
    python -m repro scenarios  # list the scenario library + golden digests
    python -m repro advise     # deployment-plan advisor (memory x backend x polling)
    python -m repro bench-advisor  # advisor closed loop (BENCH_advisor.json)
    python -m repro slo        # probe a chaos scenario, evaluate SLO burn alerts
    python -m repro bench-slo  # alerting precision/recall/TTD benchmark (BENCH_slo.json)
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import format_table


def _cmd_table1(_args) -> None:
    from repro.baselines.vm_hosting import table1_estimate

    estimate = table1_estimate()
    print(format_table(
        ["component", "monthly cost"],
        [("Transfer", estimate.transfer.rounded(2)),
         ("Storage", estimate.storage.rounded(2)),
         ("Compute", estimate.compute.rounded(2)),
         ("Total", estimate.total.rounded(2))],
        title="Table 1: monthly cost of an email service on AWS (t2.nano, 24/7)",
    ))


def _cmd_table2(args) -> None:
    from repro.core.costmodel import CostModel, PAPER_WORKLOADS, VIDEO_WORKLOAD

    model = CostModel()
    accounting = "full" if args.full else "paper"
    rows = []
    for name, workload in PAPER_WORKLOADS.items():
        estimate = model.estimate_serverless(workload, accounting=accounting)
        rows.append((
            name, workload.daily_requests, f"{workload.compute_ms_per_request} ms",
            workload.memory_mb, workload.storage_gb,
            estimate.compute.rounded(2), estimate.storage_and_transfer.rounded(2),
            estimate.total.rounded(2),
        ))
    video = model.estimate_vm(VIDEO_WORKLOAD, accounting=accounting)
    rows.append(("video_conferencing", 1, "15 min call", "-", 1.0,
                 video.compute.rounded(2), video.storage_and_transfer.rounded(2),
                 video.total.rounded(2)))
    print(format_table(
        ["application", "daily req", "compute/req", "mem MB", "storage GB",
         "compute", "storage+transfer", "total"],
        rows,
        title=f"Table 2: per-user costs of DIY services ({accounting} accounting)",
    ))


def _cmd_table3(args) -> None:
    from repro import CloudProvider
    from repro.apps.chat import chat_pair
    from repro.plan import plan_from_env

    provider = CloudProvider(seed=args.seed, plan=plan_from_env())
    alice, bob = chat_pair(provider)
    for i in range(args.messages):
        alice.send("room", f"message {i}")
        bob.poll()
    name = f"{alice.service.app.instance_name}-handler"
    metrics = provider.lambda_.metrics
    print(format_table(
        ["statistic", "value"],
        [("Med. Lambda Time Billed", f"{metrics.get(f'{name}.billed_ms').median():.0f} ms"),
         ("Med. Lambda Time Run", f"{metrics.get(f'{name}.run_ms').median():.0f} ms"),
         ("E2E Chat Latency", f"{provider.metrics.get('chat.e2e_ms').median():.0f} ms"),
         ("Lambda Memory Allocated", "448 MB"),
         ("Peak Memory Used", f"{metrics.get(f'{name}.peak_memory_mb').max():.0f} MB"),
         ("Messages exchanged", args.messages)],
        title=f"Table 3: chat prototype statistics (seed {args.seed})",
    ))


def _cmd_tcb(_args) -> None:
    from repro.core.threatmodel import centralized_tcb_profile, diy_tcb_profile

    diy = diy_tcb_profile()
    centralized = centralized_tcb_profile()
    print(diy.summary())
    print()
    print(centralized.summary())
    print()
    print(f"TCB reduction: ~{centralized.total_kloc() / diy.total_kloc():.0f}x by code size")


def _cmd_advise(args) -> None:
    from repro.core.advisor import (
        RequestProfile, WorkloadProfile, recommend_memory, recommend_plan,
    )
    from repro.plan import DeploymentPlan

    if args.calls is not None:
        # Legacy one-knob mode: an explicit per-request call list sweeps
        # memory only (the original advisor).
        calls = []
        for spec in args.calls.split(","):
            if ":" in spec:
                component, count = spec.rsplit(":", 1)
                calls.append((component, int(count)))
            else:
                calls.append((spec, 1))
        profile = RequestProfile(tuple(calls))
        plan = recommend_memory(
            profile, daily_requests=args.daily_requests, target_run_ms=args.target_ms,
            include_free_tier=args.free_tier,
        )
        print(plan.render())
        return
    profile = WorkloadProfile(
        name=args.name,
        daily_requests=args.daily_requests,
        storage_puts=args.puts,
        storage_gets=args.gets,
        sqs_sends=args.sqs_sends,
        kms_calls=args.kms_calls,
        storage_gb=args.storage_gb,
        target_run_ms=args.target_ms,
        polling_clients=args.polling_clients,
    )
    base = DeploymentPlan(accounting=args.accounting)
    recommendation = recommend_plan(profile, base_plan=base)
    print(recommendation.render())
    pick = recommendation.recommended
    print(f"recommended plan: {pick.plan.to_json()}")
    if recommendation.knee_memory_mb is not None:
        print(f"latency knee (S3 backend): {recommendation.knee_memory_mb} MB")


def _cmd_bench_advisor(args) -> None:
    from repro.analysis.bench import write_bench_json
    from repro.core.advisor import run_advisor_benchmark

    worker_counts = tuple(
        int(w.strip()) for w in args.workers.split(",") if w.strip()
    ) or (1,)
    print(
        f"advisor closed loop: {args.tenants:,} tenants x {args.days:g} days per arm, "
        f"workers {list(worker_counts)} ..."
    )
    record = run_advisor_benchmark(
        tenants=args.tenants, days=args.days, seed=args.seed,
        worker_counts=worker_counts,
    )
    rows = [
        (row["class"], f"{row['tenants']:,}", row["plan"]["storage"],
         row["plan"]["memory_mb"], row["baseline_monthly_usd"],
         row["optimized_monthly_usd"], row["savings_monthly_usd"])
        for row in record["classes"]
    ]
    print(format_table(
        ["class", "tenants", "backend", "mem MB", "uniform $/mo",
         "optimized $/mo", "saved $/mo"],
        rows,
        title=f"Per-class deployment plans (seed {args.seed})",
    ))
    fleet = record["fleet"]
    det = record["determinism"]
    print(f"fleet: {fleet['baseline_monthly_usd']}/mo uniform -> "
          f"{fleet['optimized_monthly_usd']}/mo optimized, saving "
          f"{fleet['savings_monthly_usd']}/mo ({fleet['savings_pct']}%); "
          f"byte-identical across workers {det['worker_counts']}: "
          f"{det['identical_across_worker_counts']}")
    out = write_bench_json(
        args.out,
        headline=(f"plan optimizer saves {fleet['savings_monthly_usd']}/mo "
                  f"({fleet['savings_pct']}%) across {record['tenants']:,} "
                  f"heterogeneous tenants vs one-size-fits-all"),
        runs=record.pop("classes"),
        digests=record.pop("determinism"),
        **record,
    )
    print(f"wrote {out}")


def _cmd_ha(_args) -> None:
    from repro.baselines.vm_hosting import ha_configurations
    from repro.core.costmodel import CostModel, PAPER_WORKLOADS

    diy = CostModel().estimate_serverless(PAPER_WORKLOADS["email"]).total
    rows = [
        (name, estimate.total.rounded(2), f"{float(estimate.total / diy):.0f}x")
        for name, estimate in ha_configurations().items()
    ]
    print(format_table(
        ["VM configuration", "monthly cost", "x DIY email ($0.26)"], rows,
        title="Highly-available VM hosting vs DIY (the abstract's 50x claim)",
    ))


def _cmd_bench_storage(args) -> None:
    from repro.analysis.bench import write_bench_json
    from repro.sim.scale import run_storage_ablation

    apps = tuple(name.strip() for name in args.apps.split(",") if name.strip())
    record = run_storage_ablation(apps=apps, requests=args.requests, seed=args.seed)
    rows = [
        (app, cell["s3_run_ms"], cell["dynamo_run_ms"],
         f"{cell['runtime_ratio']:.2f}x")
        for app, cell in record["apps"].items()
    ]
    print(format_table(
        ["application", "S3 median run (ms)", "DynamoDB median run (ms)", "S3/Dynamo"],
        rows,
        title=f"Storage-backend ablation (seed {args.seed}, {args.requests} requests/app)",
    ))
    print(f"DynamoDB storage price: {record['storage_price_ratio']:.1f}x S3 per GB-month")
    apps_cells = record.pop("apps")
    out = write_bench_json(
        args.out,
        headline=(f"DynamoDB state is faster but "
                  f"{record['storage_price_ratio']:.1f}x the storage price"),
        runs=[dict(app=name, **cell) for name, cell in apps_cells.items()],
        digests={"seed": args.seed, "requests": args.requests},
        apps=apps_cells,
        **record,
    )
    print(f"wrote {out}")


def _cmd_chaos(args) -> None:
    from repro.analysis.bench import write_bench_json
    from repro.sim.scale import ChaosConfig, run_chaos_fleet
    from repro.units import ms

    config = ChaosConfig(
        tenants=args.tenants,
        messages=args.messages,
        seed=args.seed,
        error_rate=args.error_rate,
        brownout_rate=args.brownout_rate,
    )
    print(
        f"chaos fleet: {config.tenants} tenant(s) x {config.messages} messages, "
        f"error rate {config.error_rate:.1%}, brown-out rate {config.brownout_rate:.0%} ..."
    )
    record = run_chaos_fleet(config, chaos=not args.no_chaos, workers=args.workers)
    fleet = record["fleet"]
    latency = fleet["latency_ms"] or {}
    rows = [
        ("Eventual delivery", f"{fleet['eventual_delivery_rate']:.4%}"),
        ("Per-attempt availability", f"{fleet['attempt_success_rate']:.4%}"),
        ("Retries", fleet["retries"]),
        ("Queued / drained", f"{fleet['queued']} / {fleet['drained']}"),
        ("Breaker trips", fleet["breaker_trips"]),
        ("Injected faults", sum(fleet["injected_faults"].values())),
        ("Downtime", f"{sum(fleet['downtime_micros'].values()) / ms(1):.0f} ms"),
        ("E2E latency p99", f"{latency.get('p99', 0):.0f} ms"),
    ]
    print(format_table(
        ["statistic", "value"], rows,
        title=f"Chaos SLA summary (seed {config.seed}, chaos={'off' if args.no_chaos else 'on'})",
    ))
    if args.out:
        out = write_bench_json(
            args.out,
            headline=(f"chaos fleet: {fleet['eventual_delivery_rate']:.4%} eventual "
                      f"delivery at {config.error_rate:.1%} injected error rate"),
            runs=record.pop("per_tenant"),
            digests=record.pop("fleet"),
            **record,
        )
        print(f"wrote {out}")


def _cmd_trace(args) -> None:
    import json
    from pathlib import Path

    from repro import CloudProvider
    from repro.apps.chat import chat_pair
    from repro.obs.export import (
        decomposition_report,
        to_chrome_trace,
        to_jsonl,
        validate_span_tree,
    )
    from repro.plan import plan_from_env

    provider = CloudProvider(seed=args.seed, plan=plan_from_env())
    tracer = provider.enable_tracing(sample_rate=args.sample_rate)
    alice, bob = chat_pair(provider)
    for i in range(args.messages):
        alice.send("room", f"message {i}")
        bob.poll()

    traces = tracer.collector.traces()
    for root in traces:
        validate_span_tree(root)
    report = decomposition_report(traces)
    rows = [
        (category, f"{cell['p50_ms']:.1f}", f"{cell['p95_ms']:.1f}",
         f"{cell['p99_ms']:.1f}", f"{cell['total_ms']:.1f}", f"{cell['share_pct']:.1f}%")
        for category, cell in report["categories"].items()
    ]
    print(format_table(
        ["component", "p50 ms", "p95 ms", "p99 ms", "total ms", "share"],
        rows,
        title=(f"Table 3 latency decomposition: where a chat request's time goes "
               f"(seed {args.seed}, {report['traces']} traces)"),
    ))
    total = report["total_ms"]
    print(f"end-to-end: p50 {total['p50']:.1f} ms, p95 {total['p95']:.1f} ms, "
          f"p99 {total['p99']:.1f} ms across {report['traces']} sampled traces")
    print(f"billed cost of sampled traces: ${float(report['cost']['total_usd']):.6f} "
          f"(median {report['cost']['median_trace_micro_usd']:.3f} micro-USD/request)")
    stats = tracer.collector.stats()
    print(f"traces: {stats['started']} requests seen, {stats['sampled']} sampled, "
          f"{stats['dropped']} dropped by the ring buffer")

    chrome_out = Path(args.out)
    chrome_out.write_text(json.dumps(to_chrome_trace(traces)) + "\n")
    print(f"wrote {chrome_out} (open in Perfetto: https://ui.perfetto.dev)")
    if args.jsonl:
        jsonl_out = Path(args.jsonl)
        jsonl_out.write_text(to_jsonl(traces))
        print(f"wrote {jsonl_out}")


def _cmd_bench_obs(args) -> None:
    from repro.analysis.bench import write_bench_json
    from repro.plan import DeploymentPlan
    from repro.sim.scale import ScaleConfig, run_obs_benchmark

    config = ScaleConfig(
        tenants=args.tenants,
        daily_requests=args.daily_requests,
        days=args.days,
        seed=args.seed,
        chunk=args.chunk,
        plan=DeploymentPlan(memory_mb=args.memory_mb),
    )
    print(
        f"tracing overhead: {config.tenants} tenants x {config.daily_requests:g} req/day "
        f"x {config.days:g} days (~{config.expected_requests():,.0f} requests), "
        f"sample rate {args.sample_rate:g} ..."
    )
    record = run_obs_benchmark(
        config, sample_rate=args.sample_rate, capacity=args.capacity
    )
    rows = [
        (name, f"{cell['arrivals']:,}", f"{cell['events_per_second']:,.0f}",
         f"{cell['wall_seconds']:.3f} s", cell["invoice_total"])
        for name, cell in (("tracing off", record["tracing_off"]),
                           ("tracing on", record["tracing_on"]))
    ]
    print(format_table(
        ["mode", "requests", "events/sec", "wall time", "invoice"],
        rows,
        title=f"Tracing overhead on the batched engine (seed {config.seed})",
    ))
    print(f"overhead: {record['overhead_pct']:.2f}% "
          f"(budget <10%: {'OK' if record['within_budget'] else 'EXCEEDED'}); "
          f"bills identical: {record['determinism']['identical']}")
    out = write_bench_json(
        args.out,
        headline=(f"tracing overhead {record['overhead_pct']:.2f}% on the batched "
                  f"engine (budget <10%)"),
        runs=[dict(mode=mode, **record.pop(key))
              for mode, key in (("tracing_off", "tracing_off"),
                                ("tracing_on", "tracing_on"))],
        digests=record.pop("determinism"),
        **record,
    )
    print(f"wrote {out}")


def _cmd_record(args) -> None:
    import hashlib

    from repro.plan import DeploymentPlan
    from repro.sim.replay import TraceRecorder
    from repro.sim.scale import ScaleConfig, run_fleet

    config = ScaleConfig(
        tenants=args.tenants,
        daily_requests=args.daily_requests,
        days=args.days,
        seed=args.seed,
        chunk=args.chunk,
        plan=DeploymentPlan(memory_mb=args.memory_mb),
    )
    recorder = TraceRecorder(name=args.name, seed=config.seed, tenants=config.tenants)
    health = None
    if args.metrics:
        from repro.obs.metrics import MetricsPlane

        health = MetricsPlane()
    print(
        f"recording {config.tenants} tenants x {config.daily_requests:g} req/day "
        f"x {config.days:g} days (~{config.expected_requests():,.0f} requests) ..."
    )
    result = run_fleet(config, recorder=recorder, health=health)
    trace = recorder.trace()
    recorder.write(args.out)
    rows = [("Events recorded", f"{len(trace):,}"),
            ("Tenants", trace.header.tenants),
            ("Invoice (recorded run)", result.invoice_total),
            ("Trace sha256", trace.digest())]
    if health is not None:
        exposition = health.to_jsonl()
        rows.append(("Exposition sha256",
                     hashlib.sha256(exposition.encode("ascii")).hexdigest()))
    print(format_table(
        ["statistic", "value"],
        rows,
        title=f"Recorded trace {trace.header.name!r} (seed {config.seed})",
    ))
    print(f"wrote {args.out}")
    if health is not None and args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(exposition)
        print(f"wrote {args.metrics_out}")


def _cmd_replay(args) -> None:
    from repro.sim.replay import ReplayConfig, read_trace, run_replay_chaos, run_replay_sharded
    from repro.sim.scenarios import build_scenario

    if args.scenario:
        trace = build_scenario(args.scenario, seed=args.seed)
        source = f"scenario {args.scenario!r} (seed {args.seed})"
    elif args.trace:
        trace = read_trace(args.trace)
        source = args.trace
    else:
        raise SystemExit("replay needs a trace file or --scenario NAME")
    print(f"replaying {len(trace):,} events from {source} ...")
    if args.metrics and args.chaos:
        raise SystemExit("--metrics applies to the engine replay paths, not --chaos")
    if args.metrics:
        _replay_with_metrics(args, trace)
        return
    if args.chaos:
        record = run_replay_chaos(
            trace, error_rate=args.error_rate, brownout_rate=args.brownout_rate
        )
        fleet = record["fleet"]
        print(format_table(
            ["statistic", "value"],
            [("Eventual delivery", f"{fleet['eventual_delivery_rate']:.4%}"),
             ("Per-attempt availability", f"{fleet['attempt_success_rate']:.4%}"),
             ("Retries", fleet["retries"]),
             ("Trace sha256", record["trace_sha256"])],
            title=f"Chaos replay of {trace.header.name!r}",
        ))
        return
    config = ReplayConfig(
        seed=trace.header.seed if args.replay_seed is None else args.replay_seed,
    )
    result = run_replay_sharded(trace, config, workers=args.workers)
    digest = result.determinism_digest()
    print(format_table(
        ["statistic", "value"],
        [("Events replayed", f"{result.events:,}"),
         ("Billed units", f"{result.billed_units:,}"),
         ("Payload", f"{result.payload_bytes / 1e9:.3f} GB"),
         ("Invoice", result.invoice_total),
         ("Latency p99", f"{digest['latency_p99_ms']:.0f} ms"
          if digest["latency_p99_ms"] is not None else "-"),
         ("Tenant counts sha256", digest["tenant_counts_sha256"]),
         ("Trace sha256", result.trace_sha256)],
        title=f"Sharded replay of {trace.header.name!r} ({args.workers} worker(s))",
    ))


def _replay_with_metrics(args, trace) -> None:
    """Replay through the batched engine with the health plane attached.

    The batched path re-draws the *recording* run's per-tenant latency
    streams, so with the recording seed and chunk the emitted
    exposition is byte-identical to ``record --metrics`` — the health
    plane rides the record→replay fixpoint. The plan comes from the
    trace header.
    """
    import hashlib

    from repro.obs.metrics import MetricsPlane
    from repro.sim.replay import run_replay_batched, trace_plan
    from repro.sim.scale import ScaleConfig

    config = ScaleConfig(
        tenants=trace.header.tenants,
        seed=trace.header.seed if args.replay_seed is None else args.replay_seed,
        chunk=args.chunk,
        plan=trace_plan(trace.header),
    )
    health = MetricsPlane()
    result = run_replay_batched(trace, config, health=health)
    exposition = health.to_jsonl()
    print(format_table(
        ["statistic", "value"],
        [("Events replayed", f"{result.arrivals:,}"),
         ("Billed ms", f"{result.total_billed_ms:,}"),
         ("Invoice", result.invoice_total),
         ("Exposition sha256",
          hashlib.sha256(exposition.encode("ascii")).hexdigest()),
         ("Trace sha256", result.trace_sha256)],
        title=f"Batched replay of {trace.header.name!r} with health plane",
    ))
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(exposition)
        print(f"wrote {args.metrics_out}")


def _cmd_scenarios(args) -> None:
    import json

    from repro.sim.scenarios import scenario_catalog

    catalog = scenario_catalog(seed=args.seed, replay=args.replay)
    if args.json:
        print(json.dumps(catalog, indent=2))
        return
    if args.replay:
        rows = [
            (entry["name"], entry["tenants"], f"{entry['events']:,}",
             f"{entry['duration_hours']:g} h", entry["invoice_total"],
             entry["trace_sha256"][:16])
            for entry in catalog
        ]
        headers = ["scenario", "tenants", "events", "duration", "invoice", "trace sha256"]
    else:
        rows = [
            (entry["name"], entry["tenants"], f"{entry['events']:,}",
             f"{entry['duration_hours']:g} h", entry["trace_sha256"][:16])
            for entry in catalog
        ]
        headers = ["scenario", "tenants", "events", "duration", "trace sha256"]
    print(format_table(
        headers, rows,
        title=f"Scenario library (seed {args.seed}; digests are per-seed goldens)",
    ))


def _format_micros(micros) -> str:
    if micros is None:
        return "-"
    return f"{micros / 1_000_000:.1f} s"


def _cmd_slo(args) -> None:
    from repro.obs.slo import run_slo_scenario

    record = run_slo_scenario(args.scenario, seed=args.seed, probes=args.probes)
    plane = record.pop("_plane")
    detection = record["detection"]
    print(format_table(
        ["statistic", "value"],
        [("Probes (1/s virtual)", record["probes"]),
         ("Probe failures", record["probe_failures"]),
         ("Injected fault windows", len(record["truth"])),
         ("Alert spans", len(record["alerts"])),
         ("Precision (time-weighted)", f"{detection['precision']:.3f}"),
         ("Recall", f"{detection['recall']:.3f}"),
         ("Exposition sha256", record["exposition_sha256"][:32])],
        title=f"SLO scenario {args.scenario!r} (seed {args.seed})",
    ))
    print(format_table(
        ["target", "kind", "window", "detected", "time to detect"],
        [(w["target"], w["kind"],
          f"{_format_micros(w['start'])} .. {_format_micros(w['end'])}",
          "yes" if w["detected"] else "NO",
          _format_micros(w["ttd_micros"]))
         for w in detection["windows"]],
        title="Ground truth (injected faults at rate >= 0.25)",
    ))
    print(format_table(
        ["slo", "rule", "kind", "alert window"],
        [(a["slo"], a["rule"], a["kind"],
          f"{_format_micros(a['start'])} .. {_format_micros(a['end'])}")
         for a in record["alerts"]],
        title="Burn-rate alerts (virtual time)",
    ))
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            fh.write(plane.to_jsonl())
        print(f"wrote {args.jsonl}")
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(plane.to_prometheus())
        print(f"wrote {args.prom}")


def _cmd_bench_slo(args) -> None:
    from repro.analysis.bench import write_bench_json
    from repro.obs.slo import run_slo_benchmark

    print(f"slo bench: replaying chaos scenarios twice each (seed {args.seed}) ...")
    bench = run_slo_benchmark(seed=args.seed, probes=args.probes)
    rows = []
    for run in bench["runs"]:
        detection = run["detection"]
        ttds = [w["ttd_micros"] for w in detection["windows"]]
        worst = max((t for t in ttds if t is not None), default=None)
        rows.append((
            run["scenario"], len(run["truth"]), len(run["alerts"]),
            f"{detection['precision']:.3f}", f"{detection['recall']:.3f}",
            _format_micros(worst) if None not in ttds else "MISSED",
        ))
    print(format_table(
        ["scenario", "faults", "alerts", "precision", "recall", "worst TTD"],
        rows,
        title=f"Alert detection benchmark (seed {args.seed})",
    ))
    delivery = bench["delivery_slo"]
    print(f"delivery SLO {delivery['slo']}: rate {delivery['delivery_rate']:.4f} "
          f"vs objective {delivery['objective']} -> "
          f"{'compliant' if delivery['compliant'] else 'VIOLATED'}")
    out = write_bench_json(
        args.out,
        headline=(f"detected {sum(len(r['truth']) for r in bench['runs'])} injected "
                  f"fault windows across {len(bench['runs'])} scenarios at "
                  f"precision {bench['precision']:.2f} / recall {bench['recall']:.2f}, "
                  f"exposition byte-stable per scenario"),
        runs=bench["runs"],
        digests=bench["digests"],
        bench="slo_detection",
        precision=bench["precision"],
        recall=bench["recall"],
        all_windows_detected=bench["all_windows_detected"],
        delivery_slo=delivery,
    )
    print(f"wrote {out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the tables of 'DIY Hosting for Online Privacy' (HotNets 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="Table 1: the VM email strawman").set_defaults(fn=_cmd_table1)
    t2 = sub.add_parser("table2", help="Table 2: per-user DIY costs")
    t2.add_argument("--full", action="store_true",
                    help="full accounting (adds request + KMS key charges)")
    t2.set_defaults(fn=_cmd_table2)
    t3 = sub.add_parser("table3", help="Table 3: run the chat prototype")
    t3.add_argument("--messages", type=int, default=50)
    t3.add_argument("--seed", type=int, default=2017)
    t3.set_defaults(fn=_cmd_table3)
    sub.add_parser("tcb", help="Figure 1: TCB comparison").set_defaults(fn=_cmd_tcb)
    sub.add_parser("ha", help="the 50x-cheaper HA configurations").set_defaults(fn=_cmd_ha)
    advise = sub.add_parser(
        "advise",
        help="deployment-plan advisor: joint memory/backend/polling sweep",
    )
    advise.add_argument(
        "--calls",
        default=None,
        help="legacy memory-only mode: comma-separated service calls per "
             "request, e.g. 's3.get:2,sqs.send'",
    )
    advise.add_argument("--name", default="workload",
                        help="workload profile name shown in the table")
    advise.add_argument("--daily-requests", type=int, default=2000)
    advise.add_argument("--target-ms", type=float, default=150.0)
    advise.add_argument("--puts", type=float, default=1.0,
                        help="storage puts per request")
    advise.add_argument("--gets", type=float, default=0.0,
                        help="storage gets per request")
    advise.add_argument("--sqs-sends", type=float, default=1.0)
    advise.add_argument("--kms-calls", type=float, default=1.0)
    advise.add_argument("--storage-gb", type=float, default=2.0,
                        help="at-rest state (the S3-vs-Dynamo term)")
    advise.add_argument("--polling-clients", type=int, default=0,
                        help="continuously long-polling clients (prices the poll budget)")
    advise.add_argument("--accounting", choices=("billed", "marginal"),
                        default="marginal",
                        help="billed = free tiers applied; marginal = fleet-operator lens")
    advise.add_argument("--free-tier", action="store_true",
                        help="legacy mode: net out the Lambda free tier")
    advise.set_defaults(fn=_cmd_advise)
    bench_advisor = sub.add_parser(
        "bench-advisor",
        help="advisor closed loop at fleet scale; writes BENCH_advisor.json",
    )
    bench_advisor.add_argument("--tenants", type=int, default=100_000)
    bench_advisor.add_argument("--days", type=float, default=2.0)
    bench_advisor.add_argument("--seed", type=int, default=2017)
    bench_advisor.add_argument("--workers", default="1,2",
                               help="comma-separated worker counts to run and compare")
    bench_advisor.add_argument("--out", default="BENCH_advisor.json",
                               help="where to write the JSON record")
    bench_advisor.set_defaults(fn=_cmd_bench_advisor)
    storage = sub.add_parser(
        "bench-storage",
        help="storage-backend ablation: each app on S3 vs DynamoDB state",
    )
    storage.add_argument("--apps", default="chat,email,filetransfer",
                         help="comma-separated subset of the ablation apps")
    storage.add_argument("--requests", type=int, default=40)
    storage.add_argument("--seed", type=int, default=2017)
    storage.add_argument("--out", default="BENCH_storage.json",
                         help="where to write the JSON record")
    storage.set_defaults(fn=_cmd_bench_storage)
    chaos = sub.add_parser(
        "chaos",
        help="run the chat fleet under fault injection and print the SLA summary",
    )
    chaos.add_argument("--tenants", type=int, default=2)
    chaos.add_argument("--messages", type=int, default=30)
    chaos.add_argument("--seed", type=int, default=2017)
    chaos.add_argument("--error-rate", type=float, default=0.01)
    chaos.add_argument("--brownout-rate", type=float, default=0.5)
    chaos.add_argument("--no-chaos", action="store_true",
                       help="run the identical workload with no faults (the control)")
    chaos.add_argument("--workers", type=int, default=1,
                       help="tenant-parallel worker processes (result is identical)")
    chaos.add_argument("--out", default=None,
                       help="optionally write the full JSON record here")
    chaos.set_defaults(fn=_cmd_chaos)
    trace = sub.add_parser(
        "trace",
        help="traced chat run: latency decomposition + Perfetto/JSONL export",
    )
    trace.add_argument("--messages", type=int, default=50)
    trace.add_argument("--seed", type=int, default=2017)
    trace.add_argument("--sample-rate", type=float, default=1.0)
    trace.add_argument("--out", default="trace_chat.json",
                       help="Chrome trace_event JSON output (load in Perfetto)")
    trace.add_argument("--jsonl", default="trace_chat.jsonl",
                       help="flat per-span JSONL output ('' to skip)")
    trace.set_defaults(fn=_cmd_trace)
    bench_obs = sub.add_parser(
        "bench-obs",
        help="tracing-overhead benchmark on the batched engine; writes BENCH_obs.json",
    )
    bench_obs.add_argument("--tenants", type=int, default=12)
    bench_obs.add_argument("--daily-requests", type=float, default=1200.0)
    bench_obs.add_argument("--days", type=float, default=7.0)
    bench_obs.add_argument("--seed", type=int, default=2017)
    bench_obs.add_argument("--memory-mb", type=int, default=448)
    bench_obs.add_argument("--chunk", type=int, default=4096)
    bench_obs.add_argument("--sample-rate", type=float, default=1 / 64)
    bench_obs.add_argument("--capacity", type=int, default=4096)
    bench_obs.add_argument("--out", default="BENCH_obs.json",
                           help="where to write the JSON perf record")
    bench_obs.set_defaults(fn=_cmd_bench_obs)
    record = sub.add_parser(
        "record",
        help="run the batched fleet engine and record its workload trace",
    )
    record.add_argument("--tenants", type=int, default=12)
    record.add_argument("--daily-requests", type=float, default=1200.0)
    record.add_argument("--days", type=float, default=7.0)
    record.add_argument("--seed", type=int, default=2017)
    record.add_argument("--memory-mb", type=int, default=448)
    record.add_argument("--chunk", type=int, default=4096)
    record.add_argument("--name", default="fleet",
                        help="trace name written into the header")
    record.add_argument("--out", default="trace_fleet.jsonl.gz",
                        help="trace output (.gz for deterministic gzip)")
    record.add_argument("--metrics", action="store_true",
                        help="attach the health plane and report its exposition digest")
    record.add_argument("--metrics-out", default=None,
                        help="with --metrics: write the JSONL exposition here")
    record.set_defaults(fn=_cmd_record)
    replay = sub.add_parser(
        "replay",
        help="replay a recorded trace or a library scenario through the fleet engines",
    )
    replay.add_argument("trace", nargs="?", default=None,
                        help="trace file written by 'record' (or a TraceRecorder)")
    replay.add_argument("--scenario", default=None,
                        help="replay a library scenario instead of a trace file")
    replay.add_argument("--seed", type=int, default=2017,
                        help="scenario seed (with --scenario)")
    replay.add_argument("--replay-seed", type=int, default=None,
                        help="latency-RNG seed (default: the trace header's seed)")
    replay.add_argument("--workers", type=int, default=1)
    replay.add_argument("--chunk", type=int, default=4096,
                        help="batched-engine chunk size (with --metrics)")
    replay.add_argument("--metrics", action="store_true",
                        help="batched replay with the health plane: same exposition "
                             "bytes as 'record --metrics' under the recording config")
    replay.add_argument("--metrics-out", default=None,
                        help="with --metrics: write the JSONL exposition here")
    replay.add_argument("--chaos", action="store_true",
                        help="drive the trace through real chat stacks under faults")
    replay.add_argument("--error-rate", type=float, default=0.01)
    replay.add_argument("--brownout-rate", type=float, default=0.5)
    replay.set_defaults(fn=_cmd_replay)
    scenarios = sub.add_parser(
        "scenarios",
        help="list the scenario library with event counts and golden digests",
    )
    scenarios.add_argument("--seed", type=int, default=2017)
    scenarios.add_argument("--replay", action="store_true",
                           help="also replay each scenario for its golden invoice")
    scenarios.add_argument("--json", action="store_true",
                           help="print the full catalog as JSON")
    scenarios.set_defaults(fn=_cmd_scenarios)
    slo = sub.add_parser(
        "slo",
        help="probe a chaos scenario and evaluate SLO burn-rate alerts against ground truth",
    )
    slo.add_argument("--scenario", default="regional-storm",
                     help="SLO scenario name (see repro.obs.slo.SLO_SCENARIOS)")
    slo.add_argument("--seed", type=int, default=2017)
    slo.add_argument("--probes", type=int, default=150,
                     help="synthetic probes at 1/s of virtual time")
    slo.add_argument("--jsonl", default=None,
                     help="optionally write the health-plane JSONL exposition here")
    slo.add_argument("--prom", default=None,
                     help="optionally write the Prometheus text exposition here")
    slo.set_defaults(fn=_cmd_slo)
    bench_slo = sub.add_parser(
        "bench-slo",
        help="alerting precision/recall/TTD over the chaos scenarios; writes BENCH_slo.json",
    )
    bench_slo.add_argument("--seed", type=int, default=2017)
    bench_slo.add_argument("--probes", type=int, default=150)
    bench_slo.add_argument("--out", default="BENCH_slo.json",
                           help="where to write the JSON record")
    bench_slo.set_defaults(fn=_cmd_bench_slo)

    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
