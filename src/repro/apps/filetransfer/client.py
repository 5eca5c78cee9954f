"""Sender and receiver sides of a file drop."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

from repro.apps.filetransfer.server import CHUNK_BYTES
from repro.core.app import DIYApp
from repro.core.client import SecureChannel, open_channel
from repro.errors import ConfigurationError, ProtocolError
from repro.net.http import HttpRequest
from repro.resilience import Device, RetryPolicy, raise_if_throttled

__all__ = ["TransferTicket", "FileTransferClient"]


@dataclass(frozen=True)
class TransferTicket:
    """A created transfer offer."""

    ticket: str
    filename: str
    sender: str
    recipient: str
    chunks: int


class FileTransferClient(Device):
    """One party's view of the file-transfer app (sender or receiver).

    Chunks that cannot be uploaded during an outage wait in
    :attr:`outbox` as ``(ticket, chunk index, chunk bytes)``.
    """

    def __init__(
        self,
        app: DIYApp,
        user: str,
        chunk_bytes: int = CHUNK_BYTES,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if app.manifest.app_id != "diy-filetransfer":
            raise ConfigurationError(f"not a file-transfer app: {app.manifest.app_id}")
        if chunk_bytes <= 0:
            raise ConfigurationError("chunk size must be positive")
        super().__init__(app.provider, user, retry_policy)
        self.app = app
        self.user = user
        self.chunk_bytes = chunk_bytes
        self._channel: Optional[SecureChannel] = None

    @property
    def _route(self) -> str:
        return f"/{self.app.instance_name}/xfer"

    def _request(self, request: HttpRequest):
        def attempt():
            if self._channel is None:
                self._channel = open_channel(self.provider, f"device:{self.user}")
            response = self._channel.request(request)
            raise_if_throttled(response, "transfer")
            return response

        return self.with_retries(attempt)

    # -- sender ------------------------------------------------------------

    def offer(self, filename: str, recipient: str, data: bytes) -> TransferTicket:
        """Create the transfer and return its ticket."""
        chunks = max(1, -(-len(data) // self.chunk_bytes))
        response = self._request(
            HttpRequest(
                "POST", f"{self._route}/offer", {},
                json.dumps({
                    "filename": filename,
                    "sender": self.user,
                    "recipient": recipient,
                    "chunks": chunks,
                }).encode(),
            )
        )
        if not response.ok:
            raise ProtocolError(f"offer failed with HTTP {response.status}")
        return TransferTicket(
            json.loads(response.body)["ticket"], filename, self.user, recipient, chunks
        )

    def _put_chunk(self, ticket: TransferTicket, index: int, chunk: bytes) -> bool:
        """Upload one chunk; on an unreachable deployment queue it and
        return False instead of raising."""
        request = HttpRequest(
            "PUT", f"{self._route}/chunk",
            {"x-diy-ticket": ticket.ticket, "x-diy-chunk": str(index)},
            chunk,
        )
        response = self.send_or_queue((ticket, index, chunk), lambda: self._request(request))
        if response is None:
            return False
        if not response.ok:
            raise ProtocolError(f"chunk {index} failed with HTTP {response.status}")
        return True

    def upload(self, ticket: TransferTicket, data: bytes) -> int:
        """Upload every chunk; returns chunks sent.

        Chunks that cannot be uploaded during an outage are queued in
        :attr:`outbox` (re-send with :meth:`drain_outbox`), so
        a fault mid-transfer degrades to a partial upload, not a crash.
        """
        sent = 0
        for index in range(ticket.chunks):
            chunk = data[index * self.chunk_bytes : (index + 1) * self.chunk_bytes]
            if self._put_chunk(ticket, index, chunk):
                sent += 1
        return sent

    def _resend(self, item) -> bool:
        return self._put_chunk(*item)

    def send_file(self, filename: str, recipient: str, data: bytes) -> TransferTicket:
        """Offer + upload in one call."""
        ticket = self.offer(filename, recipient, data)
        self.upload(ticket, data)
        return ticket

    # -- receiver -------------------------------------------------------------

    def download(self, ticket: TransferTicket) -> bytes:
        """Download and reassemble the file (the path-addressed route)."""
        pieces: List[bytes] = []
        for index in range(ticket.chunks):
            response = self._request(
                HttpRequest(
                    "GET", f"{self._route}/download/{ticket.ticket}/{index}", {}
                )
            )
            if not response.ok:
                raise ProtocolError(f"fetch {index} failed with HTTP {response.status}")
            pieces.append(response.body)
        return b"".join(pieces)

    def acknowledge(self, ticket: TransferTicket) -> int:
        """Confirm receipt; the service deletes the temporary chunks."""
        response = self._request(
            HttpRequest("POST", f"{self._route}/done", {"x-diy-ticket": ticket.ticket})
        )
        if not response.ok:
            raise ProtocolError(f"ack failed with HTTP {response.status}")
        return json.loads(response.body)["deleted"]
