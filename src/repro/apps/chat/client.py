"""The chat client: send over HTTPS, receive by long-polling SQS.

One client = one user device (a CLIENT trusted zone). Sending wraps a
message stanza in a BOSH body and POSTs it through the secure channel;
receiving long-polls the user's inbox queue and decrypts locally. Each
received message records an end-to-end latency sample — the statistic
behind Table 3's 211 ms row.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro import tcb
from repro.apps.chat.service import ChatService
from repro.cloud.iam import Principal
from repro.core.client import SecureChannel, open_channel
from repro.crypto.envelope import EnvelopeEncryptor
from repro.errors import CloudError, ProtocolError
from repro.net.http import HttpRequest
from repro.net.longpoll import MAX_POLL_WAIT_SECONDS
from repro.protocols.bosh import BoshBody, BoshSession
from repro.protocols.xmpp import Jid, Stanza, iq_stanza, message_stanza, parse_stanza
from repro.resilience import Device, RetryPolicy, is_retryable, raise_if_throttled
from repro.units import seconds, to_ms

__all__ = ["ChatClient", "ReceivedMessage"]


@dataclass(frozen=True)
class ReceivedMessage:
    """One delivered chat message with its measured E2E latency."""

    stanza: Stanza
    e2e_ms: float

    @property
    def body(self) -> Optional[str]:
        return self.stanza.body

    @property
    def sender(self) -> str:
        return self.stanza.from_jid.bare if self.stanza.from_jid else ""


class ChatClient(Device):
    """One member's device.

    Transient cloud errors are retried with backoff, a breaker trips
    during sustained outages, and sends are queued instead of crashing
    (drain with :meth:`drain_outbox`); see :class:`~repro.resilience.Device`.
    """

    def __init__(
        self,
        service: ChatService,
        jid: str,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.service = service
        self.jid = Jid.parse(jid)
        super().__init__(service.provider, self.jid.bare, retry_policy)
        self._principal = Principal(f"client:{self.jid.bare}", None)
        self._channel: Optional[SecureChannel] = None
        self._bosh: Optional[BoshSession] = None
        self._stanza_ids = 0
        self.session_id: str = ""
        self._seen: Set[Tuple[str, str]] = set()

    # -- connection -------------------------------------------------------

    def connect(self) -> str:
        """TLS + BOSH + XMPP session initiation; returns the session id."""
        self._channel = open_channel(self.provider, f"device:{self.jid.bare}")
        self._bosh = BoshSession(sid=f"bosh-{self.jid.bare}")
        reply = self._resilient_roundtrip(
            [iq_stanza(self.jid, None, "set", self._next_id(), children=(("session", ""),))]
        )
        session = reply[0].child("session") if reply else None
        if not session:
            raise ProtocolError("session initiation failed")
        self.session_id = session
        return session

    def _next_id(self) -> str:
        self._stanza_ids += 1
        return f"{self.jid.local}-{self._stanza_ids}"

    def _roundtrip(self, stanzas: List[Stanza]) -> List[Stanza]:
        if self._channel is None or self._bosh is None:
            raise ProtocolError("client is not connected")
        body = self._bosh.wrap(stanzas)
        request = HttpRequest(
            "POST",
            f"{self.service.route_prefix}",
            {"content-type": "text/xml"},
            body.serialize(),
        )
        response = self._channel.request(request)
        raise_if_throttled(response, "chat")
        if not response.ok:
            raise ProtocolError(f"chat endpoint returned {response.status}")
        return list(BoshBody.deserialize(response.body).stanzas)

    def _resilient_roundtrip(self, stanzas: List[Stanza]) -> List[Stanza]:
        return self.with_retries(lambda: self._roundtrip(stanzas))

    # -- sending ------------------------------------------------------------

    def send(self, room: str, text: str) -> Optional[Stanza]:
        """Send a groupchat message; returns the server's ack stanza.

        Transient cloud failures are retried with backoff; if the
        deployment stays unreachable (retries exhausted or the breaker
        is open) the message is queued locally and ``None`` is returned
        — graceful degradation instead of a crash. Queued messages go
        out on the next :meth:`drain_outbox`.
        """
        room_jid = Jid(room, f"conference.{self.service.app.instance_name}")
        stanza = message_stanza(self.jid, room_jid, text, self._next_id(), groupchat=True)
        # Stamp the send time so receivers can measure E2E latency.
        stamped = Stanza(
            stanza.kind, stanza.from_jid, stanza.to_jid, stanza.stanza_id,
            stanza.stanza_type, stanza.children,
            {"sent-at": str(self.provider.clock.now)},
        )
        replies = self.send_or_queue(
            (room, text), lambda: self._resilient_roundtrip([stamped])
        )
        if replies is None:
            return None
        if not replies:
            raise ProtocolError("no ack for message")
        return replies[0]

    def _resend(self, item: Tuple[str, str]) -> bool:
        return self.send(*item) is not None

    # -- receiving ------------------------------------------------------------

    def _decrypt(self, blob: bytes) -> Stanza:
        encryptor = EnvelopeEncryptor(
            self.provider.kms.key_provider(self._principal, self.service.app.key_id)
        )
        with tcb.zone(tcb.Zone.CLIENT, f"device:{self.jid.bare}"):
            # Blobs are sealed with the room name as AAD, and the room
            # name is inside the ciphertext — so try each joined room.
            return self._open_with_known_rooms(encryptor, blob)

    def _open_with_known_rooms(self, encryptor: EnvelopeEncryptor, blob: bytes) -> Stanza:
        from repro.errors import AuthenticationFailure

        last_error: Optional[Exception] = None
        # Direct (federated) deliveries are sealed with an empty AAD.
        for room in list(self._known_rooms) + [""]:
            try:
                return parse_stanza(encryptor.decrypt_bytes(blob, aad=room.encode()))
            except AuthenticationFailure as exc:
                last_error = exc
        raise last_error if last_error else ProtocolError("no rooms known")

    @property
    def _known_rooms(self) -> List[str]:
        return getattr(self, "_rooms", [])

    def join(self, room: str) -> None:
        """Record room membership locally (roster lives server-side)."""
        rooms = getattr(self, "_rooms", [])
        if room not in rooms:
            rooms.append(room)
        self._rooms = rooms

    def poll(self, wait_seconds: float = MAX_POLL_WAIT_SECONDS) -> List[ReceivedMessage]:
        """One long poll of the inbox; decrypts and measures E2E latency.

        Under fault injection delivery is at-least-once: a message whose
        delete fails is redelivered on a later poll, so stanzas are
        deduplicated by (sender, id). A poll that cannot reach SQS even
        after retries returns ``[]`` rather than crashing the device.
        """
        queue = self.service.inbox_queue(self.jid.local)
        try:
            messages = self.with_retries(
                lambda: self.provider.sqs.receive_messages(
                    self._principal, queue, wait_micros=seconds(wait_seconds)
                ),
                breaker=False,
            )
        except CloudError as exc:
            if not is_retryable(exc):
                raise  # e.g. the queue is gone — not a transient fault
            return []
        received: List[ReceivedMessage] = []
        for message in messages:
            try:
                stanza = self._decrypt(message.body)
            except CloudError as exc:
                if not is_retryable(exc):
                    raise
                # KMS unreachable mid-poll: leave the message queued for
                # redelivery once the fault clears.
                continue
            key = (stanza.from_jid.bare if stanza.from_jid else "", stanza.stanza_id)
            duplicate = key in self._seen
            self._seen.add(key)
            if not duplicate:
                sent_at = int(stanza.attributes.get("sent-at", message.sent_at))
                # The poll response still has to reach the device over the WAN.
                self.provider.fabric.send_wan(
                    "sqs", f"device:{self.jid.bare}", message.body, upstream=False
                )
                e2e_ms = to_ms(self.provider.clock.now - sent_at)
                self.provider.metrics.record("chat.e2e_ms", e2e_ms, "ms")
                received.append(ReceivedMessage(stanza, e2e_ms))
            try:
                self.provider.sqs.delete_message(self._principal, queue, message.message_id)
            except CloudError as exc:
                if not is_retryable(exc):
                    raise
                # Transient delete failure: the message is redelivered
                # later and the dedup set absorbs it.
        return received

    def fetch_history(self, room: str) -> List[Stanza]:
        """Fetch and decrypt the room's full history."""
        reply = self._resilient_roundtrip(
            [iq_stanza(self.jid, None, "get", self._next_id(), children=(("history", room),))]
        )
        if not reply or reply[0].stanza_type != "result":
            raise ProtocolError("history query failed")
        blobs = json.loads(reply[0].child("history") or "[]")
        encryptor = EnvelopeEncryptor(
            self.provider.kms.key_provider(self._principal, self.service.app.key_id)
        )
        with tcb.zone(tcb.Zone.CLIENT, f"device:{self.jid.bare}"):
            return [
                parse_stanza(encryptor.decrypt_bytes(base64.b64decode(b), aad=room.encode()))
                for b in blobs
            ]
