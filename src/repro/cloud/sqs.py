"""SQS-style message queues with long polling.

The chat prototype's delivery path (§6.2): the serverless function
posts *encrypted* messages to a queue, and the client long-polls it.
We model per-queue FIFO delivery with visibility timeouts and receive
counts; every send/receive/delete is one billable request ("one million
free requests per month and ... $0.40 for every million requests
thereafter").

Long-poll semantics under virtual time: if a message is already
available the poll returns after a short receive latency; otherwise the
caller observes the configured wait. Delivery latency for freshly
posted messages is modelled by the ``sqs.deliver`` component — the
dominant term in the paper's 211 ms end-to-end chat latency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cloud.billing import BillingMeter, UsageKind
from repro.cloud.iam import Iam, Principal
from repro.errors import NoSuchQueue, PayloadTooLarge
from repro.obs.trace import traced
from repro.sim.clock import SimClock
from repro.sim.latency import LatencyModel

__all__ = ["QueueMessage", "Queue", "QueueService"]

MAX_MESSAGE_BYTES = 256 * 1024  # the SQS limit
DEFAULT_VISIBILITY_TIMEOUT_MICROS = 30 * 1_000_000


@dataclass
class QueueMessage:
    """One queued message."""

    message_id: str
    body: bytes
    sent_at: int
    visible_at: int  # not deliverable before this virtual time
    invisible_until: int = 0  # in-flight visibility timeout
    receive_count: int = 0


@dataclass
class Queue:
    name: str
    visibility_timeout: int = DEFAULT_VISIBILITY_TIMEOUT_MICROS
    messages: List[QueueMessage] = field(default_factory=list)


class QueueService:
    """Simulated SQS for one account."""

    def __init__(self, clock: SimClock, latency: LatencyModel, iam: Iam, meter: BillingMeter):
        self._clock = clock
        self._latency = latency
        self._iam = iam
        self._meter = meter
        self._queues: Dict[str, Queue] = {}
        self._ids = itertools.count(1)
        self._fault_hook = None
        self._tracer = None

    def attach_faults(self, hook) -> None:
        """Install the chaos fault check run at every data-path boundary."""
        self._fault_hook = hook

    def attach_tracer(self, tracer) -> None:
        """Open a span (with billed usage) around every queue API call."""
        self._tracer = tracer

    def create_queue(self, name: str, visibility_timeout: int = DEFAULT_VISIBILITY_TIMEOUT_MICROS) -> Queue:
        queue = Queue(name, visibility_timeout)
        self._queues[name] = queue
        return queue

    def delete_queue(self, name: str) -> None:
        self._queues.pop(name, None)

    def queue_exists(self, name: str) -> bool:
        return name in self._queues

    def list_queues(self, prefix: str) -> List[str]:
        """Names of the queues starting with ``prefix`` (ListQueues' QueueNamePrefix)."""
        return sorted(name for name in self._queues if name.startswith(prefix))

    def queue(self, name: str) -> Queue:
        try:
            return self._queues[name]
        except KeyError:
            raise NoSuchQueue(f"no such queue {name!r}") from None

    def arn(self, queue: str) -> str:
        return f"arn:diy:sqs:::{queue}"

    # -- API -----------------------------------------------------------

    def send_message(
        self, principal: Principal, queue_name: str, body: bytes,
        memory_mb: Optional[int] = None,
    ) -> str:
        with traced(self._tracer, "sqs.send", usage=(UsageKind.SQS_REQUESTS, 1.0)):
            if self._fault_hook is not None:
                self._fault_hook()
            if len(body) > MAX_MESSAGE_BYTES:
                raise PayloadTooLarge(f"message of {len(body)} bytes exceeds the SQS limit")
            queue = self.queue(queue_name)
            self._iam.check(principal, "sqs:SendMessage", self.arn(queue_name))
            self._clock.advance(self._latency.sample("sqs.send", memory_mb).micros)
            self._meter.record(UsageKind.SQS_REQUESTS, 1.0)
            message_id = f"msg-{next(self._ids)}"
            # Propagation delay before a long-poller can observe the message.
            deliver = self._latency.sample("sqs.deliver").micros
            queue.messages.append(
                QueueMessage(message_id, bytes(body), self._clock.now, self._clock.now + deliver)
            )
            return message_id

    def _visible(self, queue: Queue) -> Iterator[QueueMessage]:
        now = self._clock.now
        for message in queue.messages:
            if message.visible_at <= now and message.invisible_until <= now:
                yield message

    def receive_messages(
        self,
        principal: Principal,
        queue_name: str,
        max_messages: int = 10,
        wait_micros: int = 0,
    ) -> List[QueueMessage]:
        """Receive up to ``max_messages``; long-polls up to ``wait_micros``.

        Virtual-time semantics: if nothing is visible now but a message
        becomes visible within the wait, the clock advances exactly to
        that point; otherwise the full wait elapses.
        """
        with traced(
            self._tracer, "sqs.receive", usage=(UsageKind.SQS_REQUESTS, 1.0)
        ) as span:
            if self._fault_hook is not None:
                self._fault_hook()
            queue = self.queue(queue_name)
            self._iam.check(principal, "sqs:ReceiveMessage", self.arn(queue_name))
            self._meter.record(UsageKind.SQS_REQUESTS, 1.0)
            deadline = self._clock.now + wait_micros

            batch = list(itertools.islice(self._visible(queue), max_messages))
            if not batch and wait_micros > 0:
                upcoming = [
                    max(m.visible_at, m.invisible_until)
                    for m in queue.messages
                    if max(m.visible_at, m.invisible_until) <= deadline
                ]
                if upcoming:
                    self._clock.advance_to(min(upcoming))
                    batch = list(itertools.islice(self._visible(queue), max_messages))
                else:
                    self._clock.advance_to(deadline)
            if not batch:
                self._clock.advance(self._latency.sample("sqs.receive_empty").micros)
                return []

            self._clock.advance(self._latency.sample("sqs.receive_empty").micros)
            for message in batch:
                message.receive_count += 1
                message.invisible_until = self._clock.now + queue.visibility_timeout
            if span is not None:
                # Queue wait per delivered message: send → this receive.
                span.set_attr("queue_wait_ms", [
                    round((self._clock.now - m.sent_at) / 1000.0, 3) for m in batch
                ])
            return batch

    def delete_message(self, principal: Principal, queue_name: str, message_id: str) -> None:
        with traced(self._tracer, "sqs.delete", usage=(UsageKind.SQS_REQUESTS, 1.0)):
            if self._fault_hook is not None:
                self._fault_hook()
            queue = self.queue(queue_name)
            self._iam.check(principal, "sqs:DeleteMessage", self.arn(queue_name))
            self._meter.record(UsageKind.SQS_REQUESTS, 1.0)
            queue.messages = [m for m in queue.messages if m.message_id != message_id]

    def approximate_depth(self, queue_name: str) -> int:
        return len(self.queue(queue_name).messages)

    def scan(self, queue_name: str) -> List[Tuple[str, bytes]]:
        """Every queued (message id, body), oldest first, unmetered."""
        return [(m.message_id, m.body) for m in self.queue(queue_name).messages]

    def raw_scan(self, queue_name: str) -> Iterator[bytes]:
        """The internal attacker's view of queued bodies."""
        return (body for _message_id, body in self.scan(queue_name))
