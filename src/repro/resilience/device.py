"""The resilience shell every app client extends: one user device."""

from __future__ import annotations

from typing import Callable, List, Optional, TypeVar

from repro.errors import CircuitOpenError, CloudError, ThrottledError
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.policy import RetryPolicy
from repro.resilience.retry import call_with_retries, is_retryable
from repro.sim.metrics import AvailabilityTracker

__all__ = ["Device", "raise_if_throttled"]

T = TypeVar("T")


def raise_if_throttled(response, endpoint: str) -> None:
    """Surface an HTTP 429 as the retryable :class:`ThrottledError`.

    The retry executor then backs off, honoring the server's
    ``retry-after-ms`` hint when the response carries one.
    """
    if response.status == 429:
        hint = response.header("retry-after-ms")
        raise ThrottledError(
            f"{endpoint} endpoint throttled",
            retry_after_ms=int(hint) if hint is not None else None,
        )


class Device:
    """Retry, breaker, availability tracking and an outbox for one device.

    Transient cloud errors are retried with deterministic jittered
    backoff drawn from the ``resilience/<name>`` RNG stream; sustained
    failure trips :attr:`breaker`; work that still cannot go out is
    parked in :attr:`outbox` (graceful degradation instead of a crash)
    and re-sent in order by :meth:`drain_outbox`. :attr:`tracker`
    counts every attempt, retry, queue and drain for the SLA report.

    A subclass says how to send one queued item again in :meth:`_resend`.
    """

    def __init__(self, provider, name: str, retry_policy: Optional[RetryPolicy] = None):
        self.provider = provider
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.breaker = CircuitBreaker(provider.clock)
        self.tracker = AvailabilityTracker()
        self._retry_rng = provider.rng.child(f"resilience/{name}")
        self.outbox: List[object] = []

    def with_retries(self, fn: Callable[[], T], breaker: bool = True) -> T:
        """Call ``fn`` under the retry policy, guarded by the breaker if asked."""
        return call_with_retries(
            fn,
            clock=self.provider.clock,
            policy=self.retry_policy,
            rng=self._retry_rng,
            breaker=self.breaker if breaker else None,
            tracker=self.tracker,
        )

    def send_or_queue(self, item: object, send: Callable[[], T]) -> Optional[T]:
        """Run ``send``; if the deployment stays unreachable, queue ``item``.

        Returns ``None`` when the item was queued. A permanent cloud
        error (misconfiguration, a missing peer) is raised, not queued.
        """
        try:
            return send()
        except (CloudError, CircuitOpenError) as exc:
            if isinstance(exc, CloudError) and not is_retryable(exc):
                raise
            self.outbox.append(item)
            self.tracker.record_queued()
            return None

    def _resend(self, item) -> bool:
        """Send one queued item again; False if it was queued again."""
        raise NotImplementedError

    def drain_outbox(self) -> int:
        """Re-send queued items; returns how many went out.

        Items that still cannot be sent stay queued, in order, so
        draining is safe to call repeatedly while an outage resolves.
        """
        pending, self.outbox = self.outbox, []
        drained = 0
        for position, item in enumerate(pending):
            if not self._resend(item):
                # The failed send re-queued its item at the tail; it and
                # everything after it are still pending, in order.
                self.outbox = self.outbox[:-1]
                self.outbox.extend(pending[position:])
                break
            drained += 1
            self.tracker.record_drained()
        return drained
