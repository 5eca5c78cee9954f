"""RequestTrace: kernel-side request timing and its lifecycle guards."""

from types import SimpleNamespace

import pytest

from repro.errors import SimulationError
from repro.obs.metrics import MetricsPlane, bind_ambient
from repro.runtime.kernel import AppKernel, AppSpec, KernelFunction
from repro.runtime.trace import RequestTrace
from repro.sim.clock import SimClock


def make_trace():
    clock = SimClock()
    return clock, RequestTrace(clock, "chat.handler", "send")


class TestSpans:
    def test_span_records_virtual_elapsed(self):
        clock, trace = make_trace()
        with trace.span("store"):
            clock.advance(2500)
        assert trace.spans == [("store", 2500)]

    def test_span_records_even_when_body_raises(self):
        clock, trace = make_trace()
        with pytest.raises(RuntimeError):
            with trace.span("fails"):
                clock.advance(100)
                raise RuntimeError("boom")
        assert trace.spans == [("fails", 100)]

    def test_late_span_after_finish_raises(self):
        clock, trace = make_trace()
        trace.finish(200)
        with pytest.raises(SimulationError, match="after trace"):
            with trace.span("late"):
                pass
        # And nothing was recorded for the refused span.
        assert trace.spans == []

    def test_finish_is_idempotent(self):
        clock, trace = make_trace()
        clock.advance(1000)
        first = trace.finish(200)
        second = trace.finish(500)
        assert first == 1000
        assert second == 0
        assert trace.status == 200

    def test_finish_counts_status(self):
        # A request that escapes the kernel pipeline counts once under
        # status="error" in the ambient health plane.
        def crash(kctx, event):
            raise RuntimeError("boom")

        spec = AppSpec("probe", "1.0", "status probe",
                       (KernelFunction("handler", event_endpoint=crash),))
        handler = AppKernel(spec, storage="s3").handler(spec.functions[0])
        ctx = SimpleNamespace(
            clock=SimClock(), environment={"DIY_KEY_ID": "key"},
            services=SimpleNamespace(kms_key_provider=lambda key_id: None),
        )
        plane = MetricsPlane()
        with bind_ambient(plane), pytest.raises(RuntimeError, match="boom"):
            handler({}, ctx)
        counter = plane.counter("runtime.requests", app="probe", route="event",
                                status="error")
        assert counter.value == 1
