"""Per-request tracing for the application kernel.

The trace middleware opens one :class:`RequestTrace` per invocation and
closes it after the response (or error) is known. The trace holds the
request's route, start time, and named sub-spans; the kernel turns the
closed trace into health-plane metrics (``runtime.requests``,
``runtime.request_us``; see :meth:`repro.runtime.kernel.AppKernel`).

Endpoints can add finer-grained spans with :meth:`RequestTrace.span`;
each one also opens a ``runtime.span.<name>`` child in the
:mod:`repro.obs.trace` span tree.

Timing uses the simulation clock only — reading ``clock.now`` neither
advances time nor consumes randomness, so tracing never perturbs the
golden determinism tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Tuple

from repro.errors import SimulationError
from repro.obs.trace import child_span

__all__ = ["RequestTrace"]


class RequestTrace:
    """One request's timing record: a root span plus named sub-spans."""

    def __init__(self, clock, scope: str, route: str):
        self._clock = clock
        self.scope = scope  # "<app>.<function>"
        self.route = route  # route name, or "event" for non-HTTP triggers
        self.started_at = clock.now
        self.spans: List[Tuple[str, int]] = []  # (name, duration micros)
        self.status: object = None  # set by finish()
        self._finished = False

    @contextmanager
    def span(self, name: str):
        """Time one named section of the request on the virtual clock.

        Raises once the trace is finished: a late span would have no
        root span to account for it.
        """
        if self._finished:
            raise SimulationError(
                f"span {name!r} opened after trace {self.scope}.{self.route} finished"
            )
        started = self._clock.now
        with child_span(f"runtime.span.{name}"):
            try:
                yield
            finally:
                self.spans.append((name, self._clock.now - started))

    def finish(self, status: object) -> int:
        """Close the root span; returns its virtual micros (0 if already closed).

        ``status`` is an HTTP code or "error"; the first one sticks.
        """
        if self._finished:
            return 0
        self._finished = True
        self.status = status
        return self._clock.now - self.started_at
