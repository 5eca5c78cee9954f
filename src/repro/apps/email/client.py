"""The owner's mail client.

Reads the encrypted mailbox from S3 and decrypts it with the owner's
private key on her own device (the CLIENT trusted zone); sends through
the HTTPS endpoint; deletes and exports per §3.3's user-control story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import tcb
from repro.apps.email.service import EmailService_
from repro.cloud.iam import Principal
from repro.core.client import SecureChannel, open_channel
from repro.runtime.owner import owner_store
from repro.crypto.pgp import PGPMessage, pgp_decrypt
from repro.errors import ProtocolError
from repro.net.http import HttpRequest, HttpResponse
from repro.protocols.mime import EmailMessage, parse_email
from repro.resilience import Device, RetryPolicy, raise_if_throttled

__all__ = ["MailboxEntry", "EmailClient"]


@dataclass(frozen=True)
class MailboxEntry:
    """One decrypted mailbox message."""

    key: str
    folder: str
    message: EmailMessage

    @property
    def spam_status(self) -> str:
        return self.message.extra_headers.get("X-Spam-Status", "No")


class EmailClient(Device):
    """The owner's device; :attr:`outbox` holds messages not yet sent."""

    def __init__(self, service: EmailService_, retry_policy: Optional[RetryPolicy] = None):
        self.service = service
        super().__init__(service.provider, service.app.owner, retry_policy)
        self._owner = Principal(f"owner:{service.app.owner}", None)
        self._channel: Optional[SecureChannel] = None

    def _ensure_channel(self) -> SecureChannel:
        if self._channel is None:
            self._channel = open_channel(
                self.provider, f"device:{self.service.app.owner}"
            )
        return self._channel

    def _resilient_request(self, request: HttpRequest) -> HttpResponse:
        """One HTTPS request with retry/breaker protection."""

        def attempt() -> HttpResponse:
            response = self._ensure_channel().request(request)
            raise_if_throttled(response, "email")
            return response

        return self.with_retries(attempt)

    # -- reading ----------------------------------------------------------

    def _decrypt_entry(self, key: str, raw: bytes) -> MailboxEntry:
        folder = key.split("/", 1)[0]
        with tcb.zone(tcb.Zone.CLIENT, f"device:{self.service.app.owner}"):
            plaintext = pgp_decrypt(self.service.owner_keys, PGPMessage.deserialize(raw))
        return MailboxEntry(key, folder, parse_email(plaintext))

    def fetch_folder(self, folder: str = "inbox") -> List[MailboxEntry]:
        """List, download, and decrypt one folder.

        Store reads retry transient faults with backoff before giving up.
        """
        store = owner_store(self.service.app)
        entries: List[MailboxEntry] = []
        keys = self.with_retries(lambda: store.list(f"{folder}/"), breaker=False)
        for key in keys:
            raw = self.with_retries(lambda: store.get(key), breaker=False)
            self.provider.fabric.send_wan(
                store.backend, f"device:{self.service.app.owner}", raw, upstream=False
            )
            entries.append(self._decrypt_entry(key, raw))
        return entries

    # -- sending ------------------------------------------------------------

    def send(self, message: EmailMessage) -> Optional[str]:
        """Send through the DIY outbound function; returns the sent-copy key.

        If the deployment is unreachable even after retries, the message
        is queued locally and ``None`` is returned; call
        :meth:`drain_outbox` once the outage clears.
        """
        request = HttpRequest(
            "POST",
            self.service.send_route,
            {"content-type": "message/rfc822"},
            message.serialize(),
        )
        response = self.send_or_queue(message, lambda: self._resilient_request(request))
        if response is None:
            return None
        if not response.ok:
            raise ProtocolError(f"send failed with HTTP {response.status}")
        import json

        return json.loads(response.body)["stored"]

    def _resend(self, item: EmailMessage) -> bool:
        return self.send(item) is not None

    def search(self, query: str) -> List[dict]:
        """Server-side search over message metadata (see server module docs).

        The function decrypts only the KMS-tier metadata index inside
        its container; message bodies stay sealed to this device's key.
        """
        response = self._resilient_request(
            HttpRequest("GET", f"/{self.service.app.instance_name}/search",
                        {"x-diy-query": query})
        )
        if not response.ok:
            raise ProtocolError(f"search failed with HTTP {response.status}")
        import json

        return json.loads(response.body)["matches"]

    # -- user control (§3.3) ---------------------------------------------------

    def delete(self, key: str) -> None:
        """Delete one message — and it is actually gone (no analytics copies)."""
        from repro.apps.email.server import index_key

        store = owner_store(self.service.app)
        store.delete(key)
        store.delete(index_key(key))

    def export_mailbox(self) -> Dict[str, EmailMessage]:
        """Decrypt-and-export everything (no lock-in)."""
        export: Dict[str, EmailMessage] = {}
        for folder in ("inbox", "spam", "sent"):
            for entry in self.fetch_folder(folder):
                export[entry.key] = entry.message
        return export
