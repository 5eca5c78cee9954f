"""XMPP stanzas (RFC 6120/6121 subset).

The §6.2 prototype is "an instant messaging server ... based on the
XMPP protocol" supporting "basic session initiation and message
exchange". We model the three stanza kinds — ``message``, ``presence``
and ``iq`` — with JIDs, ids, and child payloads, serialized as real XML
so stanzas round-trip through bytes exactly as they would on a socket.

:meth:`Stanza.serialize` writes the XML directly with ``str`` joins and
ElementTree's own escaping rules, byte for byte what
:func:`xml.etree.ElementTree.tostring` writes but for one thing: a CR in
text is written ``&#13;``, since XML parsing turns a raw CR (and CRLF)
into LF. A stanza with a namespaced ``{uri}name`` attribute
(``xml:lang``, say) still goes through ``tostring``, which owns the
prefix rule, with the same CR rule applied to its bytes. Parsing is
ElementTree's (:func:`parse_stanza`), and :class:`Stanza` refuses what
that parser would not read back as written: reserved attribute names,
names that are not XML names, and characters XML 1.0 forbids.
"""

from __future__ import annotations

import functools
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from xml.etree.ElementTree import _escape_attrib, _escape_cdata

from repro.errors import XMPPProtocolError

__all__ = [
    "Jid", "Stanza", "message_stanza", "presence_stanza", "iq_stanza", "parse_stanza",
    "stanza_from_element",
]

_STANZA_KINDS = frozenset({"message", "presence", "iq"})
# Attributes a stanza writes from its own fields.
_RESERVED = frozenset({"from", "to", "id", "type"})
# Any character outside XML 1.0's Char production (§2.2): C0 controls
# other than tab, LF and CR, lone surrogates, U+FFFE and U+FFFF.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
CLIENT_NS = "jabber:client"


@functools.lru_cache(maxsize=512)
def _reads_back(name: str, attribute: bool) -> bool:
    """Whether ``name`` parses back as itself, as an attribute name or a child tag.

    The parser is the oracle (expat's names are XML 1.0's, without a
    prefix it has no binding for): a child tag must parse as written,
    and an attribute name must survive ElementTree's writer, which owns
    the ``{uri}name`` prefix rule and writes a plain name as it is.
    """
    try:
        if attribute:
            return ET.fromstring(ET.tostring(ET.Element("x", {name: ""}))).attrib == {name: ""}
        return ET.fromstring(f"<{name} />".encode("utf-8", "xmlcharrefreplace")).tag == name
    except (ET.ParseError, ValueError):
        return False


@dataclass(frozen=True)
class Jid:
    """A Jabber ID: local@domain/resource."""

    local: str
    domain: str
    resource: str = ""

    def __post_init__(self):
        if not self.local or not self.domain:
            raise XMPPProtocolError("JID needs both a local part and a domain")
        for part in (self.local, self.domain, self.resource):
            if any(ch in part for ch in "@/ "):
                raise XMPPProtocolError(f"illegal character in JID part {part!r}")

    @classmethod
    def parse(cls, text: str) -> "Jid":
        if "@" not in text:
            raise XMPPProtocolError(f"JID {text!r} has no @")
        local, rest = text.split("@", 1)
        if "/" in rest:
            domain, resource = rest.split("/", 1)
        else:
            domain, resource = rest, ""
        return cls(local, domain, resource)

    @property
    def bare(self) -> str:
        return f"{self.local}@{self.domain}"

    def __str__(self) -> str:
        if self.resource:
            return f"{self.bare}/{self.resource}"
        return self.bare


@dataclass(frozen=True)
class Stanza:
    """One XMPP stanza."""

    kind: str  # message | presence | iq
    from_jid: Optional[Jid]
    to_jid: Optional[Jid]
    stanza_id: str = ""
    stanza_type: str = ""  # e.g. chat, groupchat, get, set, result
    children: Tuple[Tuple[str, str], ...] = ()  # (tag, text) pairs
    attributes: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _STANZA_KINDS:
            raise XMPPProtocolError(f"unknown stanza kind {self.kind!r}")
        attributes, children = self.attributes, self.children
        if not _RESERVED.isdisjoint(attributes):
            name = min(_RESERVED.intersection(attributes))
            raise XMPPProtocolError(f"attribute {name!r} is reserved for the stanza's own field")
        for name in attributes:
            if not _reads_back(name, True):
                raise XMPPProtocolError(f"attribute name {name!r} is not an XML name")
        for tag, _text in children:
            if not _reads_back(tag, False):
                raise XMPPProtocolError(f"child tag {tag!r} is not an XML name")
        texts = [self.stanza_id, self.stanza_type, *attributes.values(), *[t for _, t in children]]
        texts += [str(jid) for jid in (self.from_jid, self.to_jid) if jid is not None]
        bad = _NOT_XML_CHAR.search("".join(texts))
        if bad:
            raise XMPPProtocolError(f"stanza text holds {bad.group()!r}, which XML 1.0 forbids")

    def child(self, tag: str) -> Optional[str]:
        for child_tag, text in self.children:
            if child_tag == tag:
                return text
        return None

    @property
    def body(self) -> Optional[str]:
        return self.child("body")

    # -- XML codec -----------------------------------------------------

    def serialize(self) -> bytes:
        attributes = self.attributes
        if any("{" in name for name in attributes):
            return self._tostring()
        kind = self.kind
        out = ["<", kind]
        for name, value in (("from", self.from_jid), ("to", self.to_jid)):
            if value is not None:
                out += " ", name, '="', _escape_attrib(str(value)), '"'
        if self.stanza_id:
            out += ' id="', _escape_attrib(self.stanza_id), '"'
        if self.stanza_type:
            out += ' type="', _escape_attrib(self.stanza_type), '"'
        for name, value in sorted(attributes.items()):
            out += " ", name, '="', _escape_attrib(value), '"'
        if self.children:
            out.append(">")
            for tag, text in self.children:
                if text:
                    out += "<", tag, ">", _escape_cdata(text).replace("\r", "&#13;"), "</", tag, ">"
                else:
                    out += "<", tag, " />"
            out += "</", kind, ">"
        else:
            out.append(" />")
        return "".join(out).encode("utf-8", "xmlcharrefreplace")

    def _tostring(self) -> bytes:
        element = ET.Element(self.kind)
        if self.from_jid is not None:
            element.set("from", str(self.from_jid))
        if self.to_jid is not None:
            element.set("to", str(self.to_jid))
        if self.stanza_id:
            element.set("id", self.stanza_id)
        if self.stanza_type:
            element.set("type", self.stanza_type)
        for name, value in sorted(self.attributes.items()):
            element.set(name, value)
        for tag, text in self.children:
            child = ET.SubElement(element, tag)
            child.text = text
        # Attribute values are written with CR as ``&#13;`` already, so a
        # raw CR here is in text.
        return ET.tostring(element, encoding="utf-8").replace(b"\r", b"&#13;")


def parse_stanza(data: bytes) -> Stanza:
    """Parse one stanza from XML bytes."""
    try:
        element = ET.fromstring(data)
    except ET.ParseError as exc:
        raise XMPPProtocolError(f"malformed stanza XML: {exc}") from exc
    return stanza_from_element(element)


def stanza_from_element(element: ET.Element) -> Stanza:
    """The stanza a parsed element holds (namespaces dropped from tags)."""
    kind = element.tag.split("}")[-1]
    if kind not in _STANZA_KINDS:
        raise XMPPProtocolError(f"unknown stanza kind {kind!r}")

    def _jid(name: str) -> Optional[Jid]:
        value = element.get(name)
        return Jid.parse(value) if value else None

    attributes = {k: v for k, v in element.attrib.items() if k not in _RESERVED}
    children = tuple(
        (child.tag.split("}")[-1], child.text or "") for child in element
    )
    return Stanza(
        kind=kind,
        from_jid=_jid("from"),
        to_jid=_jid("to"),
        stanza_id=element.get("id", ""),
        stanza_type=element.get("type", ""),
        children=children,
        attributes=attributes,
    )


def message_stanza(
    from_jid: Jid, to_jid: Jid, body: str, stanza_id: str, groupchat: bool = False
) -> Stanza:
    """A chat message stanza."""
    return Stanza(
        kind="message",
        from_jid=from_jid,
        to_jid=to_jid,
        stanza_id=stanza_id,
        stanza_type="groupchat" if groupchat else "chat",
        children=(("body", body),),
    )


def presence_stanza(from_jid: Jid, available: bool = True, stanza_id: str = "") -> Stanza:
    """A presence stanza (available or unavailable)."""
    return Stanza(
        kind="presence",
        from_jid=from_jid,
        to_jid=None,
        stanza_id=stanza_id,
        stanza_type="" if available else "unavailable",
    )


def iq_stanza(
    from_jid: Optional[Jid], to_jid: Optional[Jid], iq_type: str, stanza_id: str,
    children: Tuple[Tuple[str, str], ...] = (),
) -> Stanza:
    """An info/query stanza (session initiation, roster, ...)."""
    if iq_type not in ("get", "set", "result", "error"):
        raise XMPPProtocolError(f"invalid iq type {iq_type!r}")
    return Stanza(
        kind="iq",
        from_jid=from_jid,
        to_jid=to_jid,
        stanza_id=stanza_id,
        stanza_type=iq_type,
        children=children,
    )
