"""Golden-seed determinism under the scale-out optimizations.

The throughput rewrite (batched arrivals, tuple-heap events, memoized
latency distributions, aggregate metering) must not perturb a single
draw: a seed is a contract. These tests pin exact values produced by
fixed seeds and assert that every fast path produces bit-identical
streams, samples, and invoice totals. Each oracle is a pinned value or
a closed form, never a second implementation.
"""

from __future__ import annotations

import pytest

from repro.cloud.billing import BillingMeter, Invoice, UsageKind
from repro.cloud.pricing import PRICES_2017
from repro.sim.event import EventLoop
from repro.sim.latency import (
    LAMBDA_MEMORY_CEILING_MB,
    LAMBDA_MEMORY_FLOOR_MB,
    Constant,
    LatencyModel,
)
from repro.sim.rng import SeededRng
from repro.sim.scale import ScaleConfig, run_fleet
from repro.sim.workload import DiurnalWorkload
from repro.units import ms

# Pinned output of DiurnalWorkload(2000, SeededRng(42, "golden")) over one
# virtual day, as produced by the seed-era per-event loop.
GOLDEN_ARRIVAL_COUNT = 1999
GOLDEN_FIRST_ARRIVALS = [
    1498304, 1020900457, 1823206665, 1829650552, 1993617342,
    2142012228, 2368563125, 2401233818, 2735171200, 2791033505,
]
GOLDEN_LAST_ARRIVALS = [85886530487, 85900162848, 86182924418]

# Pinned s3.put samples from a 448 MB function, SeededRng(42, "golden-lat").
GOLDEN_S3_SAMPLES = [74750, 99672, 69079, 72003, 85635, 69017]

# Pinned fleet bill for ScaleConfig(tenants=3, daily_requests=500, days=2, seed=99).
GOLDEN_FLEET_CONFIG = ScaleConfig(tenants=3, daily_requests=500.0, days=2.0, seed=99)
GOLDEN_FLEET_ARRIVALS = (1037, 938, 1047)
GOLDEN_FLEET_BILLED_MS = 428100
GOLDEN_FLEET_TOTAL = "$0.02"


def _golden_workload() -> DiurnalWorkload:
    return DiurnalWorkload(2000.0, SeededRng(42, "golden"))


class TestArrivalStream:
    def test_golden_values(self):
        times = [a.at_micros for a in _golden_workload().arrivals(1.0)]
        assert len(times) == GOLDEN_ARRIVAL_COUNT
        assert times[:10] == GOLDEN_FIRST_ARRIVALS
        assert times[-3:] == GOLDEN_LAST_ARRIVALS

    def test_batches_equal_per_event_path(self):
        flat = [t for chunk in _golden_workload().arrival_batches(1.0) for t in chunk]
        assert len(flat) == GOLDEN_ARRIVAL_COUNT
        assert flat[:10] == GOLDEN_FIRST_ARRIVALS
        assert flat[-3:] == GOLDEN_LAST_ARRIVALS

    def test_arrival_times_equal_per_event_path(self):
        assert list(_golden_workload().arrival_times(1.0))[:10] == GOLDEN_FIRST_ARRIVALS

    def test_chunk_size_does_not_change_the_stream(self):
        streams = []
        for chunk in (1, 7, 256, 100_000):
            wl = _golden_workload()
            streams.append([t for block in wl.arrival_batches(1.0, chunk=chunk) for t in block])
        assert all(stream == streams[0] for stream in streams)

    def test_generated_counter_tracks_stream(self):
        wl = _golden_workload()
        total = sum(len(chunk) for chunk in wl.arrival_batches(1.0))
        assert wl.generated_total == total == GOLDEN_ARRIVAL_COUNT


class TestLatencySamples:
    def test_golden_values(self):
        model = LatencyModel(rng=SeededRng(42, "golden-lat"))
        assert [model.sample_micros("s3.put", 448) for _ in range(6)] == GOLDEN_S3_SAMPLES

    def test_sample_object_path_matches_fast_path(self):
        model = LatencyModel(rng=SeededRng(42, "golden-lat"))
        values = [model.sample("s3.put", 448).micros for _ in range(6)]
        assert values == GOLDEN_S3_SAMPLES

    def test_block_matches_per_call_path(self):
        model = LatencyModel(rng=SeededRng(42, "golden-lat"))
        assert model.sample_block("s3.put", 6, 448) == GOLDEN_S3_SAMPLES

    def test_constant_block_skips_the_rng(self):
        model = LatencyModel(
            rng=SeededRng(5, "const"), overrides={"s3.put": Constant(ms(7))}
        )
        assert model.sample_block("s3.put", 4, 448) == [round(ms(7) * (1536 / 448))] * 4
        # The RNG stream was never consumed: the next draw on an
        # untouched twin generator is identical.
        twin = SeededRng(5, "const")
        assert model.rng.random() == twin.random()

    def test_memory_factor_memoization_matches_legacy_formula(self):
        # The seed's formula, in closed form: clamp, then divide.
        for mb in (64, 128, 256, 448, 1024, 1536, 4096):
            clamped = min(max(mb, LAMBDA_MEMORY_FLOOR_MB), LAMBDA_MEMORY_CEILING_MB)
            assert LatencyModel.memory_factor(mb) == LAMBDA_MEMORY_CEILING_MB / clamped

    def test_samples_drawn_counter(self):
        model = LatencyModel(rng=SeededRng(0, "count"))
        model.sample("s3.put")
        model.sample_block("kms.decrypt", 9)
        assert model.samples_drawn == 10


class TestEventLoopParity:
    """The seed loop's semantics, derived from the schedule itself: events
    run in ``(when, insertion index)`` order, cancelled ones never."""

    CANCELLED = (3, 77, 120, 121)

    @classmethod
    def _schedule(cls, loop):
        order = []
        times = SeededRng(11, "sched")
        handles = []
        whens = []
        for i in range(200):
            when = times.randint(0, 50)
            whens.append(when)
            handles.append(loop.schedule_at(when, lambda i=i: order.append(i)))
        for victim in cls.CANCELLED:
            handles[victim].cancel()
        expected = sorted(
            (i for i in range(200) if i not in cls.CANCELLED), key=lambda i: (whens[i], i)
        )
        return order, expected, whens

    def test_execution_order_matches_seed_loop(self):
        loop = EventLoop()
        order, expected, _ = self._schedule(loop)
        loop.run_until_idle()
        assert order == expected

    def test_run_batch_executes_the_same_schedule(self):
        loop = EventLoop()
        order, expected, _ = self._schedule(loop)
        while loop.run_batch():
            pass
        assert order == expected
        assert loop.pending() == 0

    def test_live_counter_matches_o_n_scan(self):
        loop = EventLoop()
        _, expected, whens = self._schedule(loop)
        assert loop.pending() == len(expected) == 196
        loop.run_until(25)
        assert loop.pending() == sum(1 for i in expected if whens[i] > 25)

    def test_double_cancel_decrements_once(self):
        loop = EventLoop()
        event = loop.schedule_at(10, lambda: None)
        loop.schedule_at(20, lambda: None)
        event.cancel()
        event.cancel()
        assert loop.pending() == 1
        assert loop.run_until_idle() == 1


class TestBillingParity:
    def test_record_batch_equals_per_event_records(self):
        per_event = BillingMeter()
        for _ in range(1234):
            per_event.record(UsageKind.LAMBDA_REQUESTS, 1.0)
        batched = BillingMeter()
        batched.record_batch(UsageKind.LAMBDA_REQUESTS, 1000.0, 1000)
        batched.record_batch(UsageKind.LAMBDA_REQUESTS, 234.0, 234)
        assert batched.total(UsageKind.LAMBDA_REQUESTS) == per_event.total(
            UsageKind.LAMBDA_REQUESTS
        )
        assert batched.hits == per_event.hits == 1234
        assert batched.record_calls == 2
        one = Invoice(per_event, PRICES_2017)
        two = Invoice(batched, PRICES_2017)
        assert str(one.total()) == str(two.total())

    def test_record_batch_respects_attribution(self):
        meter = BillingMeter()
        with meter.attributed("chat"):
            meter.record_batch(UsageKind.S3_PUT, 50.0, 50)
        assert meter.tagged("chat").total(UsageKind.S3_PUT) == 50.0

    def test_record_batch_rejects_negatives(self):
        from repro.errors import BillingError

        meter = BillingMeter()
        with pytest.raises(BillingError):
            meter.record_batch(UsageKind.S3_PUT, -1.0, 1)
        with pytest.raises(BillingError):
            meter.record_batch(UsageKind.S3_PUT, 1.0, -1)


class TestFleetInvoice:
    def test_golden_bill(self):
        result = run_fleet(GOLDEN_FLEET_CONFIG)
        assert result.per_tenant_arrivals == GOLDEN_FLEET_ARRIVALS
        assert result.total_billed_ms == GOLDEN_FLEET_BILLED_MS
        assert result.invoice_total == GOLDEN_FLEET_TOTAL

    def test_chunk_size_does_not_change_the_bill(self):
        small = run_fleet(
            ScaleConfig(tenants=2, daily_requests=400.0, days=1.0, seed=4, chunk=16),
        )
        large = run_fleet(
            ScaleConfig(tenants=2, daily_requests=400.0, days=1.0, seed=4, chunk=65536),
        )
        assert small.invoice_total == large.invoice_total
        assert small.per_tenant_arrivals == large.per_tenant_arrivals


class TestTracingPreservesGoldens:
    """Enabling tracing must not perturb a single golden value: span ids
    come from a dedicated RNG stream and head sampling is a stride, so
    the fleet bill is byte-identical at any sample rate."""

    @pytest.mark.parametrize("sample_rate", [0.0, 1.0])
    def test_golden_fleet_bill_with_tracing(self, sample_rate):
        from repro.obs.collector import TraceCollector
        from repro.obs.trace import Tracer
        from repro.sim.clock import SimClock

        tracer = Tracer(
            SimClock(),
            SeededRng(GOLDEN_FLEET_CONFIG.seed, "scale/obs"),
            TraceCollector(capacity=256, sample_rate=sample_rate),
        )
        result = run_fleet(GOLDEN_FLEET_CONFIG, tracer=tracer)
        assert result.per_tenant_arrivals == GOLDEN_FLEET_ARRIVALS
        assert result.total_billed_ms == GOLDEN_FLEET_BILLED_MS
        assert result.invoice_total == GOLDEN_FLEET_TOTAL
        if sample_rate == 0.0:
            assert len(tracer.collector) == 0
        else:
            assert len(tracer.collector) > 0

    def test_sampled_trace_costs_match_the_fleet_bill_semantics(self):
        from repro.obs.collector import TraceCollector
        from repro.obs.export import validate_span_tree
        from repro.obs.trace import Tracer
        from repro.sim.clock import SimClock

        tracer = Tracer(
            SimClock(),
            SeededRng(GOLDEN_FLEET_CONFIG.seed, "scale/obs"),
            TraceCollector(capacity=4096, sample_rate=1.0),
        )
        run_fleet(GOLDEN_FLEET_CONFIG, tracer=tracer)
        traces = tracer.collector.traces()
        assert len(traces) == sum(GOLDEN_FLEET_ARRIVALS)
        total_billed_ms = 0
        for root in traces:
            validate_span_tree(root)
            total_billed_ms += root.attrs["billed_ms"]
        assert total_billed_ms == GOLDEN_FLEET_BILLED_MS

    def test_traced_chat_goldens_unchanged(self):
        """The chat prototype's metered outcome is identical with tracing
        off, sampled out (rate 0), and fully sampled (rate 1)."""
        from repro.apps.chat import ChatClient, ChatService, chat_manifest
        from repro.cloud.provider import CloudProvider
        from repro.core.deployment import Deployer

        def run(sample_rate):
            provider = CloudProvider(seed=13)
            if sample_rate is not None:
                provider.enable_tracing(sample_rate=sample_rate)
            app = Deployer(provider).deploy(chat_manifest(memory_mb=448), owner="alice")
            service = ChatService(app)
            service.create_room("room", ["alice@diy", "bob@diy"])
            alice = ChatClient(service, "alice@diy")
            bob = ChatClient(service, "bob@diy")
            for client in (alice, bob):
                client.join("room")
                client.connect()
            for i in range(6):
                alice.send("room", f"message {i}")
                bob.poll()
            invoice = Invoice(provider.meter, PRICES_2017)
            return provider.clock.now, str(invoice.total())

        untraced = run(None)
        assert run(0.0) == untraced
        assert run(1.0) == untraced
