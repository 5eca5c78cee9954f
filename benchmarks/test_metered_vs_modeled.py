"""X10 — closing the loop: the cost model vs the metered substrate.

Table 2's dollars come from flat-rate arithmetic. This bench drives a
realistic *diurnal* day of group chat (Poisson arrivals, evening peak)
at the table's 2,000 requests/day through the actually-deployed app,
reads the metered usage off the billing meter, and checks that the
model's per-dimension predictions (requests, GB-seconds, queue
operations, and the resulting $0.00 compute bill) match what the
substrate metered.
"""

from bench_utils import attach_and_print

from repro import CloudProvider
from repro.analysis import PaperComparison
from repro.apps.chat import ChatClient, ChatService, chat_manifest
from repro.cloud.billing import UsageKind
from repro.cloud.pricing import PRICES_2017
from repro.core.costmodel import PAPER_WORKLOADS
from repro.core.deployment import Deployer
from repro.sim.workload import DiurnalWorkload
from repro.units import ZERO

DAILY_REQUESTS = 2000  # Table 2's group-chat rate


def _run_day():
    provider = CloudProvider(name="bench", seed=2017)
    app = Deployer(provider).deploy(chat_manifest(memory_mb=128), owner="alice")
    service = ChatService(app)
    service.create_room("r", ["alice@diy", "bob@diy"])
    alice = ChatClient(service, "alice@diy")
    bob = ChatClient(service, "bob@diy")
    for client in (alice, bob):
        client.join("r")
        client.connect()
    members = {0: alice, 1: bob}

    workload = DiurnalWorkload(DAILY_REQUESTS, provider.rng.child("traffic"))
    sent = 0
    for arrival in workload.arrivals(days=1.0):
        if arrival.at_micros > provider.clock.now:
            provider.clock.advance_to(arrival.at_micros)
        sender = members[arrival.index % 2]
        receiver = members[(arrival.index + 1) % 2]
        sender.send("r", f"m{arrival.index}")
        sent += 1
        if sent % 25 == 0:
            while receiver.poll(wait_seconds=1):
                pass
    return provider, sent


def test_metered_day_matches_model(benchmark):
    provider, sent = benchmark.pedantic(_run_day, rounds=1, iterations=1)
    workload = PAPER_WORKLOADS["group_chat"]

    metered_requests = provider.meter.total(UsageKind.LAMBDA_REQUESTS)
    metered_gbs = provider.meter.total(UsageKind.LAMBDA_GB_SECONDS)
    modeled_gbs_per_day = workload.monthly_gb_seconds(PRICES_2017) / 30

    comparison = PaperComparison("X10: one diurnal day, metered vs modeled")
    comparison.add("chat requests sent", float(DAILY_REQUESTS), float(sent),
                   note="Poisson day at Table 2's rate")
    comparison.add("metered Lambda invocations", float(sent) + 2, metered_requests,
                   note="messages + the two session initiations")
    comparison.add("Lambda GB-seconds (model/day)", modeled_gbs_per_day,
                   round(metered_gbs, 1),
                   note="model assumes 500 ms billed; 128 MB measures ~500 ms real")
    attach_and_print(benchmark, comparison)

    # The free tier absorbs a whole month at 30x this usage — the $0.00
    # compute cell of Table 2, validated against metered usage.
    assert metered_requests * 30 < PRICES_2017.lambda_free_requests
    assert metered_gbs * 30 < PRICES_2017.lambda_free_gb_seconds
    invoice = provider.invoice()
    assert invoice.service_total("lambda") == ZERO
    # Request count within Poisson noise; GB-seconds within 2x (the
    # model's flat 500 ms vs the measured billed durations).
    assert abs(sent - DAILY_REQUESTS) < 5 * DAILY_REQUESTS**0.5
    assert 0.3 < metered_gbs / modeled_gbs_per_day < 2.0
