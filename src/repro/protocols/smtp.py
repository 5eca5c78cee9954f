"""An SMTP server state machine and a matching client (RFC 5321 subset).

§4's canonical trigger example is "a message arriving at port 25 for an
SMTP server". The DIY email application fronts this state machine with
a Lambda function: each completed DATA transaction becomes one
invocation that spam-scores, encrypts, and stores the message.

Implemented verbs: HELO/EHLO, MAIL FROM, RCPT TO, DATA (with
dot-stuffing), RSET, NOOP, QUIT. The server enforces command ordering
and returns the standard reply codes, so out-of-order clients get 503s
— all covered by the tests.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import SMTPProtocolError

__all__ = ["SmtpReply", "SmtpTransaction", "SmtpServer", "SmtpClient"]

_MAIL_FROM_RE = re.compile(r"^MAIL FROM:\s*<([^>]*)>\s*$", re.IGNORECASE)
_RCPT_TO_RE = re.compile(r"^RCPT TO:\s*<([^>]+)>\s*$", re.IGNORECASE)

MAX_RECIPIENTS = 100
MAX_MESSAGE_BYTES = 10 * 1024 * 1024


@dataclass(frozen=True)
class SmtpReply:
    """One server reply line."""

    code: int
    text: str

    def serialize(self) -> bytes:
        return f"{self.code} {self.text}\r\n".encode()

    def __str__(self) -> str:
        return f"{self.code} {self.text}"


@dataclass
class SmtpTransaction:
    """One completed mail transaction handed to the application."""

    sender: str
    recipients: Tuple[str, ...]
    data: bytes


class _State(enum.Enum):
    START = "start"
    GREETED = "greeted"
    MAIL = "mail"
    RCPT = "rcpt"
    DATA = "data"
    CLOSED = "closed"


# The application callback: gets the transaction, returns True to accept.
DeliveryHook = Callable[[SmtpTransaction], bool]


class SmtpServer:
    """One SMTP session's server side.

    Feed it command lines with :meth:`handle_line`; completed
    transactions are passed to the delivery hook, whose boolean decides
    between ``250 OK`` and ``554 rejected`` (the spam path).
    """

    def __init__(self, hostname: str, deliver: DeliveryHook):
        self.hostname = hostname
        self._deliver = deliver
        self._state = _State.START
        self._sender: Optional[str] = None
        self._recipients: List[str] = []
        self._data_lines: List[bytes] = []
        self.transactions: List[SmtpTransaction] = []

    @property
    def closed(self) -> bool:
        return self._state is _State.CLOSED

    def greeting(self) -> SmtpReply:
        return SmtpReply(220, f"{self.hostname} DIY SMTP ready")

    def _reset_transaction(self) -> None:
        self._sender = None
        self._recipients = []
        self._data_lines = []

    def handle_line(self, line: bytes) -> List[SmtpReply]:
        """Process one CRLF-stripped line; returns zero or more replies.

        In DATA state most lines accumulate silently (no reply) until
        the terminating ``.``.
        """
        if self._state is _State.CLOSED:
            raise SMTPProtocolError("session is closed")
        if self._state is _State.DATA:
            return self._handle_data_line(line)

        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            return [SmtpReply(500, "command line is not valid UTF-8")]
        verb = text.split(" ", 1)[0].upper() if text else ""

        if verb in ("HELO", "EHLO"):
            return self._handle_helo(text, verb)
        if verb == "MAIL":
            return self._handle_mail(text)
        if verb == "RCPT":
            return self._handle_rcpt(text)
        if verb == "DATA":
            return self._handle_data_start()
        if verb == "RSET":
            self._reset_transaction()
            if self._state is not _State.START:
                self._state = _State.GREETED
            return [SmtpReply(250, "OK")]
        if verb == "NOOP":
            return [SmtpReply(250, "OK")]
        if verb == "QUIT":
            self._state = _State.CLOSED
            return [SmtpReply(221, f"{self.hostname} closing connection")]
        return [SmtpReply(500, f"unrecognized command {verb!r}")]

    # -- verb handlers ---------------------------------------------------

    def _handle_helo(self, text: str, verb: str) -> List[SmtpReply]:
        parts = text.split(" ", 1)
        if len(parts) < 2 or not parts[1].strip():
            return [SmtpReply(501, f"{verb} requires a domain")]
        self._state = _State.GREETED
        self._reset_transaction()
        if verb == "EHLO":
            return [SmtpReply(250, f"{self.hostname} greets {parts[1].strip()}")]
        return [SmtpReply(250, self.hostname)]

    def _handle_mail(self, text: str) -> List[SmtpReply]:
        if self._state is _State.START:
            return [SmtpReply(503, "send HELO/EHLO first")]
        if self._state in (_State.MAIL, _State.RCPT):
            return [SmtpReply(503, "nested MAIL command")]
        match = _MAIL_FROM_RE.match(text)
        if not match:
            return [SmtpReply(501, "syntax: MAIL FROM:<address>")]
        self._sender = match.group(1)
        self._state = _State.MAIL
        return [SmtpReply(250, "OK")]

    def _handle_rcpt(self, text: str) -> List[SmtpReply]:
        if self._state not in (_State.MAIL, _State.RCPT):
            return [SmtpReply(503, "need MAIL before RCPT")]
        match = _RCPT_TO_RE.match(text)
        if not match:
            return [SmtpReply(501, "syntax: RCPT TO:<address>")]
        if len(self._recipients) >= MAX_RECIPIENTS:
            return [SmtpReply(452, "too many recipients")]
        self._recipients.append(match.group(1))
        self._state = _State.RCPT
        return [SmtpReply(250, "OK")]

    def _handle_data_start(self) -> List[SmtpReply]:
        if self._state is not _State.RCPT:
            return [SmtpReply(503, "need RCPT before DATA")]
        self._state = _State.DATA
        self._data_lines = []
        return [SmtpReply(354, "start mail input; end with <CRLF>.<CRLF>")]

    def _handle_data_line(self, line: bytes) -> List[SmtpReply]:
        if line == b".":
            return self._finish_data()
        # Dot-unstuffing per RFC 5321 §4.5.2.
        if line.startswith(b".."):
            line = line[1:]
        self._data_lines.append(line)
        if sum(len(l) + 2 for l in self._data_lines) > MAX_MESSAGE_BYTES:
            self._state = _State.GREETED
            self._reset_transaction()
            return [SmtpReply(552, "message exceeds maximum size")]
        return []

    def _finish_data(self) -> List[SmtpReply]:
        data = b"\r\n".join(self._data_lines) + b"\r\n"
        transaction = SmtpTransaction(self._sender or "", tuple(self._recipients), data)
        self._state = _State.GREETED
        self._reset_transaction()
        if self._deliver(transaction):
            self.transactions.append(transaction)
            return [SmtpReply(250, "OK: queued")]
        return [SmtpReply(554, "transaction failed: message rejected")]


class SmtpClient:
    """Drives an :class:`SmtpServer` through a complete transaction."""

    def __init__(self, server: SmtpServer, client_hostname: str = "client.diy"):
        self._server = server
        self._client_hostname = client_hostname
        self.dialogue: List[Tuple[bytes, List[SmtpReply]]] = []

    def _send(self, line: bytes, expect: Optional[int] = None) -> List[SmtpReply]:
        replies = self._server.handle_line(line)
        self.dialogue.append((line, replies))
        if expect is not None and replies and replies[0].code != expect:
            raise SMTPProtocolError(
                f"expected {expect} in reply to {line!r}, got {replies[0]}"
            )
        return replies

    def send_message(self, sender: str, recipients: List[str], data: bytes) -> SmtpReply:
        """EHLO → MAIL → RCPT* → DATA → body → ``.``; returns the final reply."""
        self._send(f"EHLO {self._client_hostname}".encode(), expect=250)
        self._send(f"MAIL FROM:<{sender}>".encode(), expect=250)
        for recipient in recipients:
            self._send(f"RCPT TO:<{recipient}>".encode(), expect=250)
        self._send(b"DATA", expect=354)
        for line in data.split(b"\r\n"):
            if line.startswith(b"."):
                line = b"." + line  # dot-stuffing
            self._send(line)
        replies = self._send(b".")
        return replies[0]

    def quit(self) -> SmtpReply:
        return self._send(b"QUIT", expect=221)[0]
