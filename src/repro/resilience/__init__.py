"""Client-side resilience: retries, deadlines, circuit breakers.

The paper's claim 3 is that DIY apps inherit the platform's high
availability, but "Serverless Computing: Current Trends and Open
Problems" (Baldini et al.) names transient-failure handling as an open
problem the *application* must solve: throttles, brown-outs, and
timeouts surface at the client. This package is the DIY answer:

- :class:`RetryPolicy` — capped exponential backoff with deterministic
  jitter drawn from the sim RNG, honoring a service's ``retry_after_ms``
  hint when one is offered.
- :class:`Deadline` — a total virtual-time budget across attempts.
- :class:`CircuitBreaker` — closed/open/half-open, so a client stops
  hammering a browned-out deployment and queues work instead.
- :func:`call_with_retries` — the executor tying them together;
  backoff waits advance the *virtual* clock, so chaos runs stay fast
  and exactly reproducible.
- :class:`Device` — the client shell built from them: one retry
  policy, breaker, tracker, RNG stream and outbox per user device.

The chat, email, and file-transfer clients extend :class:`Device` to
degrade gracefully (queue-and-drain) instead of crashing on the first
:class:`~repro.errors.ThrottledError`.
"""

from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.device import Device, raise_if_throttled
from repro.resilience.policy import DEFAULT_POLICY, Deadline, RetryPolicy
from repro.resilience.retry import call_with_retries, is_retryable

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "DEFAULT_POLICY",
    "Deadline",
    "Device",
    "RetryPolicy",
    "call_with_retries",
    "is_retryable",
    "raise_if_throttled",
]
