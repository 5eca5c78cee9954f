"""BOSH-style XMPP-over-HTTP binding (XEP-0124/0206 subset).

§6.2: "messages are tunneled through HTTPS, because Lambda only
supports HTTP(S)-based endpoints." A :class:`BoshSession` wraps stanzas
in ``<body/>`` wrapper elements carrying a session id (sid) and a
strictly increasing request id (rid); the wrapper travels as an HTTPS
POST body. Out-of-order rids are rejected, matching the XEP.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import List, Optional, Tuple
from xml.etree.ElementTree import _escape_attrib

from repro.errors import XMPPProtocolError
from repro.protocols.xmpp import Stanza, stanza_from_element

__all__ = ["BoshBody", "BoshSession"]

_HTTPBIND_NS = "http://jabber.org/protocol/httpbind"


@dataclass(frozen=True)
class BoshBody:
    """One HTTP-carried wrapper: session id, request id, stanzas."""

    sid: str
    rid: int
    stanzas: Tuple[Stanza, ...]

    def serialize(self) -> bytes:
        head = f'<body sid="{_escape_attrib(self.sid)}" rid="{self.rid}" xmlns="{_HTTPBIND_NS}">'
        payload = b"".join(stanza.serialize() for stanza in self.stanzas)
        return head.encode("utf-8", "xmlcharrefreplace") + payload + b"</body>"

    @classmethod
    def deserialize(cls, data: bytes) -> "BoshBody":
        try:
            element = ET.fromstring(data)
        except ET.ParseError as exc:
            raise XMPPProtocolError(f"malformed BOSH body: {exc}") from exc
        if element.tag.split("}")[-1] != "body":
            raise XMPPProtocolError(f"expected <body>, got <{element.tag}>")
        sid = element.get("sid", "")
        rid_text = element.get("rid", "")
        try:
            rid = int(rid_text)
        except ValueError:
            raise XMPPProtocolError(f"bad rid {rid_text!r}") from None
        for child in element:
            if child.tail and child.tail.strip(" \t\r\n"):
                raise XMPPProtocolError(f"text after a stanza in a BOSH body: {child.tail!r}")
        return cls(sid, rid, tuple(stanza_from_element(child) for child in element))


class BoshSession:
    """One side's BOSH session state: sid plus rid sequencing."""

    def __init__(self, sid: str, initial_rid: int = 1):
        if not sid:
            raise XMPPProtocolError("BOSH session needs a sid")
        self.sid = sid
        self._next_rid = initial_rid
        self._expected_rid: Optional[int] = None
        self.sent: List[BoshBody] = []

    def wrap(self, stanzas: List[Stanza]) -> BoshBody:
        """Wrap outgoing stanzas with the next rid."""
        body = BoshBody(self.sid, self._next_rid, tuple(stanzas))
        self._next_rid += 1
        self.sent.append(body)
        return body

    def accept(self, body: BoshBody) -> Tuple[Stanza, ...]:
        """Validate an incoming wrapper and return its stanzas.

        Enforces the sid match and strict rid ordering.
        """
        if body.sid != self.sid:
            raise XMPPProtocolError(f"sid mismatch: got {body.sid!r}, want {self.sid!r}")
        if self._expected_rid is None:
            self._expected_rid = body.rid
        elif body.rid != self._expected_rid:
            raise XMPPProtocolError(
                f"rid out of order: got {body.rid}, want {self._expected_rid}"
            )
        self._expected_rid = body.rid + 1
        return body.stanzas
