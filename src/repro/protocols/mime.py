"""RFC 5322 email messages with basic MIME multipart support.

The email application stores and forwards real message bytes, so this
is a real (if deliberately small) implementation: header folding on
serialize, strict unfolding on parse, address lists, Message-ID
generation, and single-level ``multipart/mixed`` bodies for
attachments. Round-trip (``parse(serialize(m)) == m``) is property-
tested.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ProtocolError

__all__ = ["Address", "Attachment", "EmailMessage", "parse_email", "format_address"]

_ADDRESS_RE = re.compile(r"^[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}$")
_CRLF = "\r\n"


@dataclass(frozen=True)
class Address:
    """An email address with an optional display name."""

    email: str
    name: str = ""

    def __post_init__(self):
        if not _ADDRESS_RE.match(self.email):
            raise ProtocolError(f"invalid email address {self.email!r}")

    @property
    def domain(self) -> str:
        return self.email.rsplit("@", 1)[1].lower()

    @property
    def local_part(self) -> str:
        return self.email.rsplit("@", 1)[0]

    def __str__(self) -> str:
        return format_address(self)


def format_address(address: Address) -> str:
    if address.name:
        return f'"{address.name}" <{address.email}>'
    return address.email


def _parse_address(text: str) -> Address:
    text = text.strip()
    match = re.match(r'^"?([^"<]*)"?\s*<([^>]+)>$', text)
    if match:
        return Address(match.group(2).strip(), match.group(1).strip())
    return Address(text)


def _parse_address_list(text: str) -> Tuple[Address, ...]:
    return tuple(_parse_address(part) for part in text.split(",") if part.strip())


@dataclass(frozen=True)
class Attachment:
    """One MIME part of a multipart/mixed body."""

    filename: str
    content_type: str
    data: bytes


@dataclass
class EmailMessage:
    """A parsed or to-be-sent email."""

    sender: Address
    recipients: Tuple[Address, ...]
    subject: str
    body: str
    message_id: str = ""
    date: str = ""
    extra_headers: Dict[str, str] = field(default_factory=dict)
    attachments: Tuple[Attachment, ...] = ()

    def __post_init__(self):
        if not self.recipients:
            raise ProtocolError("email needs at least one recipient")
        if not self.message_id:
            # Deterministic-enough id from content; real ids come from the app.
            import hashlib

            digest = hashlib.sha256(
                (self.subject + self.body + self.sender.email).encode()
            ).hexdigest()[:16]
            self.message_id = f"<{digest}@diy>"

    # -- serialization ------------------------------------------------------

    def serialize(self) -> bytes:
        headers = [
            ("From", format_address(self.sender)),
            ("To", ", ".join(format_address(r) for r in self.recipients)),
            ("Subject", self.subject),
            ("Message-ID", self.message_id),
        ]
        if self.date:
            headers.append(("Date", self.date))
        headers.extend(sorted(self.extra_headers.items()))

        if self.attachments:
            boundary = "diy-boundary-" + self.message_id.strip("<>").split("@")[0]
            headers.append(("MIME-Version", "1.0"))
            headers.append(("Content-Type", f'multipart/mixed; boundary="{boundary}"'))
            parts = [
                f"--{boundary}{_CRLF}Content-Type: text/plain; charset=utf-8{_CRLF}{_CRLF}{self.body}"
            ]
            for attachment in self.attachments:
                parts.append(
                    f"--{boundary}{_CRLF}"
                    f"Content-Type: {attachment.content_type}{_CRLF}"
                    f'Content-Disposition: attachment; filename="{attachment.filename}"{_CRLF}'
                    f"{_CRLF}{attachment.data.decode('latin-1')}"
                )
            body = _CRLF.join(parts) + f"{_CRLF}--{boundary}--{_CRLF}"
        else:
            body = self.body

        head = _CRLF.join(f"{name}: {_fold(value)}" for name, value in headers)
        return (head + _CRLF + _CRLF + body).encode("utf-8", "surrogateescape")

    @property
    def nbytes(self) -> int:
        return len(self.serialize())


def _fold(value: str) -> str:
    """Fold long header values at commas per RFC 5322 (simplified)."""
    if len(value) <= 78 or "," not in value:
        return value
    pieces = value.split(", ")
    lines: List[str] = []
    current = pieces[0]
    for piece in pieces[1:]:
        if len(current) + len(piece) + 2 > 76:
            lines.append(current + ",")
            current = " " + piece
        else:
            current += ", " + piece
    lines.append(current)
    return _CRLF.join(lines)


def _unfold(raw: str) -> List[str]:
    lines: List[str] = []
    for line in raw.split(_CRLF):
        if line.startswith((" ", "\t")) and lines:
            lines[-1] += " " + line.strip()
        else:
            lines.append(line)
    return lines


def parse_email(data: bytes) -> EmailMessage:
    """Parse serialized RFC 5322 bytes back into a message."""
    text = data.decode("utf-8", "surrogateescape")
    try:
        head, body = text.split(_CRLF + _CRLF, 1)
    except ValueError:
        raise ProtocolError("email has no header/body separator") from None

    headers: Dict[str, str] = {}
    for line in _unfold(head):
        if ":" not in line:
            raise ProtocolError(f"malformed header line {line!r}")
        name, value = line.split(":", 1)
        headers[name.strip().lower()] = value.strip()

    for required in ("from", "to", "subject"):
        if required not in headers:
            raise ProtocolError(f"email missing required header {required!r}")

    sender = _parse_address(headers.pop("from"))
    recipients = _parse_address_list(headers.pop("to"))
    subject = headers.pop("subject")
    message_id = headers.pop("message-id", "")
    date = headers.pop("date", "")

    attachments: Tuple[Attachment, ...] = ()
    content_type = headers.get("content-type", "")
    if content_type.startswith("multipart/mixed"):
        match = re.search(r'boundary="([^"]+)"', content_type)
        if not match:
            raise ProtocolError("multipart message without a boundary")
        headers.pop("content-type")
        headers.pop("mime-version", None)
        body, attachments = _parse_multipart(body, match.group(1))

    extra = {name.title(): value for name, value in headers.items()}
    return EmailMessage(sender, recipients, subject, body, message_id, date, extra, attachments)


def _parse_multipart(body: str, boundary: str) -> Tuple[str, Tuple[Attachment, ...]]:
    sections = body.split(f"--{boundary}")
    text_body = ""
    attachments: List[Attachment] = []
    for section in sections:
        section = section.strip(_CRLF)
        if not section or section == "--":
            continue
        try:
            part_head, part_body = section.split(_CRLF + _CRLF, 1)
        except ValueError:
            continue
        part_headers = {}
        for line in _unfold(part_head):
            if ":" in line:
                name, value = line.split(":", 1)
                part_headers[name.strip().lower()] = value.strip()
        ctype = part_headers.get("content-type", "text/plain")
        disposition = part_headers.get("content-disposition", "")
        if disposition.startswith("attachment"):
            match = re.search(r'filename="([^"]+)"', disposition)
            filename = match.group(1) if match else "attachment.bin"
            attachments.append(Attachment(filename, ctype, part_body.encode("latin-1")))
        else:
            text_body = part_body
    return text_body, tuple(attachments)
