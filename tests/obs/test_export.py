"""Exporters: tree validation, the cost join, and deterministic output."""

import json

import pytest

from repro.cloud.billing import UsageKind, price_usage
from repro.cloud.pricing import PRICES_2017
from repro.errors import SimulationError
from repro.obs.collector import TraceCollector
from repro.obs.export import (
    categorize,
    decomposition_report,
    span_cost,
    to_chrome_trace,
    to_jsonl,
    trace_cost,
    validate_span_tree,
)
from repro.obs.trace import Span, Tracer
from repro.sim.clock import SimClock
from repro.sim.rng import SeededRng


def make_tracer(seed=11):
    return Tracer(SimClock(), SeededRng(seed, "obs"), TraceCollector())


def traced_chat_run(seed=2017, messages=8):
    """A full traced chat run; returns (provider, retained traces)."""
    from repro.apps.chat import ChatClient, ChatService, chat_manifest
    from repro.cloud.provider import CloudProvider
    from repro.core.deployment import Deployer

    provider = CloudProvider(seed=seed)
    tracer = provider.enable_tracing()
    app = Deployer(provider).deploy(chat_manifest(memory_mb=448), owner="alice")
    service = ChatService(app)
    service.create_room("room", ["alice@diy", "bob@diy"])
    alice = ChatClient(service, "alice@diy")
    bob = ChatClient(service, "bob@diy")
    for client in (alice, bob):
        client.join("room")
        client.connect()
    for i in range(messages):
        alice.send("room", f"message {i}")
        bob.poll()
    return provider, tracer.collector.traces()


class TestPriceJoin:
    def test_marginal_prices_match_the_invoice_formulas(self):
        prices = PRICES_2017
        assert str(price_usage(UsageKind.LAMBDA_REQUESTS, 1_000_000, prices).amount) == str(
            prices.lambda_per_million_requests.amount
        )
        assert str(price_usage(UsageKind.S3_PUT, 1_000, prices).amount) == str(
            prices.s3_put_per_thousand.amount
        )
        assert str(price_usage(UsageKind.KMS_REQUESTS, 10_000, prices).amount) == str(
            prices.kms_per_ten_thousand_requests.amount
        )
        assert str(price_usage(UsageKind.SQS_REQUESTS, 2_000_000, prices).amount) == str(
            (prices.sqs_per_million_requests * 2).amount
        )

    def test_span_and_trace_cost_aggregate_usage(self):
        tracer = make_tracer()
        with tracer.span("root", usage=(UsageKind.LAMBDA_REQUESTS, 1.0)):
            with tracer.span("kms", usage=(UsageKind.KMS_REQUESTS, 1.0)):
                pass
        (root,) = tracer.collector.traces()
        expected = price_usage(UsageKind.LAMBDA_REQUESTS, 1.0, PRICES_2017) + price_usage(
            UsageKind.KMS_REQUESTS, 1.0, PRICES_2017
        )
        assert str(trace_cost(root, PRICES_2017).amount) == str(expected.amount)
        assert str(span_cost(root, PRICES_2017).amount) == str(
            price_usage(UsageKind.LAMBDA_REQUESTS, 1.0, PRICES_2017).amount
        )


class TestValidation:
    def test_rejects_open_span(self):
        tracer = make_tracer()
        span = Span(tracer, "x", "t", "s", None, 0)
        with pytest.raises(SimulationError):
            validate_span_tree(span)

    def test_rejects_child_escaping_parent(self):
        tracer = make_tracer()
        root = Span(tracer, "root", "t", "r", None, 0)
        root.end = 10
        child = Span(tracer, "child", "t", "c", "r", 5)
        child.end = 15  # escapes
        root.children.append(child)
        with pytest.raises(SimulationError):
            validate_span_tree(root)

    def test_rejects_overlapping_siblings(self):
        tracer = make_tracer()
        root = Span(tracer, "root", "t", "r", None, 0)
        root.end = 100
        for start, end in ((0, 60), (50, 90)):
            child = Span(tracer, "c", "t", "x", "r", start)
            child.end = end
            root.children.append(child)
        with pytest.raises(SimulationError):
            validate_span_tree(root)


class TestChatAcceptance:
    """The PR's acceptance criterion, end to end on the real prototype."""

    def test_every_trace_is_exact_and_costed(self):
        _, traces = traced_chat_run()
        assert traces, "chat run retained no traces"
        for root in traces:
            # Σ self times == root duration exactly (integer micros).
            validate_span_tree(root)
        # Every trace carries billed usage somewhere in its tree, and the
        # exporter prices every span.
        for root in traces:
            assert any(span.usage for span in root.walk())
            assert float(trace_cost(root, PRICES_2017).amount) > 0.0

    def test_cold_and_warm_starts_are_distinct_spans(self):
        _, traces = traced_chat_run()
        names = {span.name for root in traces for span in root.walk()}
        assert "lambda.cold_start" in names
        assert "lambda.warm_start" in names
        assert "gateway.request" in names
        assert "kms.decrypt" in names or "kms.generate_data_key" in names

    def test_jsonl_is_byte_identical_across_runs(self):
        _, first = traced_chat_run(seed=5, messages=4)
        _, second = traced_chat_run(seed=5, messages=4)
        assert to_jsonl(first, PRICES_2017) == to_jsonl(second, PRICES_2017)
        _, other = traced_chat_run(seed=6, messages=4)
        assert to_jsonl(first, PRICES_2017) != to_jsonl(other, PRICES_2017)

    def test_jsonl_records_are_well_formed(self):
        _, traces = traced_chat_run(messages=3)
        lines = to_jsonl(traces, PRICES_2017).splitlines()
        assert len(lines) == sum(1 for root in traces for _ in root.walk())
        for line in lines:
            record = json.loads(line)
            assert record["duration_us"] >= record["self_us"] >= 0
            assert record["status"].startswith(("ok", "error:"))
            float(record["cost_usd"])  # parses as a number

    def test_chrome_trace_events_cover_every_span(self):
        _, traces = traced_chat_run(messages=3)
        doc = to_chrome_trace(traces, PRICES_2017)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == sum(1 for root in traces for _ in root.walk())
        lanes = {e["tid"] for e in complete}
        assert len(lanes) == len(traces)  # one thread lane per trace


class TestBreakdown:
    def test_categorize_prefix_rules(self):
        assert categorize("lambda.cold_start") == "cold_start"
        assert categorize("lambda.warm_start") == "warm_start"
        assert categorize("lambda.invoke") == "compute"
        assert categorize("kms.decrypt") == "kms"
        assert categorize("s3.put") == "storage"
        assert categorize("dynamo.query") == "storage"
        assert categorize("sqs.receive") == "queue"
        assert categorize("ses.send") == "email"
        assert categorize("gateway.request") == "network"
        assert categorize("mystery.op") == "other"

    def test_category_self_times_sum_to_total(self):
        _, traces = traced_chat_run(messages=4)
        report = decomposition_report(traces, PRICES_2017)
        total = sum(cell["total_ms"] for cell in report["categories"].values())
        expected = sum(root.duration_micros for root in traces) / 1000.0
        assert total == pytest.approx(expected, abs=0.01)
        assert abs(sum(c["share_pct"] for c in report["categories"].values()) - 100.0) < 0.1

    def test_report_includes_cost_block(self):
        _, traces = traced_chat_run(messages=3)
        report = decomposition_report(traces, PRICES_2017)
        assert float(report["cost"]["total_usd"]) > 0
        assert report["cost"]["median_trace_micro_usd"] > 0
        assert report["traces"] == len(traces)
        assert report["queue_wait_ms"] is not None

    def test_empty_traces_produce_empty_report(self):
        report = decomposition_report([], PRICES_2017)
        assert report["traces"] == 0
        assert report["total_ms"] is None
        assert report["categories"] == {}
