"""The BOSH XMPP-over-HTTP binding."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, strategies as st

from repro.errors import XMPPProtocolError
from repro.protocols.bosh import BoshBody, BoshSession
from repro.protocols.xmpp import Jid, Stanza, iq_stanza, message_stanza, parse_stanza


def _stanza(text="hello"):
    return message_stanza(Jid.parse("a@d"), Jid.parse("b@d"), text, "s1")


class TestWireFormat:
    def test_round_trip(self):
        body = BoshBody("sid-1", 5, (_stanza(), _stanza("two")))
        parsed = BoshBody.deserialize(body.serialize())
        assert parsed.sid == "sid-1"
        assert parsed.rid == 5
        assert [s.body for s in parsed.stanzas] == ["hello", "two"]

    def test_empty_body_round_trip(self):
        parsed = BoshBody.deserialize(BoshBody("sid", 1, ()).serialize())
        assert parsed.stanzas == ()

    def test_malformed_xml_rejected(self):
        with pytest.raises(XMPPProtocolError):
            BoshBody.deserialize(b"<body sid='x' rid='1'>")

    def test_wrong_root_rejected(self):
        with pytest.raises(XMPPProtocolError):
            BoshBody.deserialize(b"<envelope/>")

    def test_non_numeric_rid_rejected(self):
        with pytest.raises(XMPPProtocolError):
            BoshBody.deserialize(b"<body sid='x' rid='abc'></body>")

    @pytest.mark.parametrize("tail", ["junk", " x ", "&amp;", "\n\t.\n"])
    @pytest.mark.parametrize("position", [0, 1])
    def test_text_after_a_stanza_is_rejected(self, tail, position):
        stanzas = ["<message to='a@d'><body>1</body></message>", "<presence from='a@d'/>"]
        stanzas[position] += tail
        data = f"<body sid='x' rid='1'>{''.join(stanzas)}</body>".encode()
        with pytest.raises(XMPPProtocolError):
            BoshBody.deserialize(data)

    def test_whitespace_between_stanzas_is_accepted(self):
        data = (b"<body sid='x' rid='1'>\n  <message to='a@d'><body>1</body></message>\r\n"
                b"\t<presence from='a@d'/> </body>")
        parsed = BoshBody.deserialize(data)
        assert [s.kind for s in parsed.stanzas] == ["message", "presence"]

    def test_stanzas_under_the_body_namespace_parse_like_bare_stanzas(self):
        stanzas = (_stanza("a&b"), iq_stanza(Jid.parse("a@d"), None, "set", "q", (("session", ""),)),
                   Stanza("message", Jid.parse("a@d"), None, attributes={
                       "{http://www.w3.org/XML/1998/namespace}lang": "en", "sent-at": "1"}))
        parsed = BoshBody.deserialize(BoshBody("s", 3, stanzas).serialize())
        assert parsed.stanzas == stanzas
        assert parsed.stanzas == tuple(parse_stanza(s.serialize()) for s in stanzas)


def _elementtree_body(sid, rid, stanzas):
    """The wrapper as ``ET.tostring`` writes it, with the stanzas spliced in."""
    element = ET.Element("body")
    element.set("sid", sid)
    element.set("rid", str(rid))
    element.set("xmlns", "http://jabber.org/protocol/httpbind")
    head = ET.tostring(element, encoding="utf-8")
    assert head.endswith(b" />")
    return head[:-3] + b">" + b"".join(s.serialize() for s in stanzas) + b"</body>"


_bodies = st.text(
    alphabet=st.one_of(st.sampled_from(list("&<>\"'\n\t ")), st.characters(blacklist_categories=("Cs", "Cc"))),
    max_size=12,
)


@given(sid=_bodies, rid=st.integers(0, 2**53), bodies=st.lists(_bodies, max_size=3))
def test_property_wire_format_matches_elementtree_and_round_trips(sid, rid, bodies):
    stanzas = tuple(message_stanza(Jid.parse("a@d"), Jid.parse("b@d"), text, f"i{n}")
                    for n, text in enumerate(bodies))
    data = BoshBody(sid, rid, stanzas).serialize()
    assert data == _elementtree_body(sid, rid, stanzas)
    assert BoshBody.deserialize(data) == BoshBody(sid, rid, stanzas)


class TestSession:
    def test_wrap_increments_rid(self):
        session = BoshSession("sid-a", initial_rid=10)
        assert session.wrap([_stanza()]).rid == 10
        assert session.wrap([_stanza()]).rid == 11

    def test_accept_enforces_rid_order(self):
        sender = BoshSession("shared")
        receiver = BoshSession("shared")
        first, second = sender.wrap([_stanza("1")]), sender.wrap([_stanza("2")])
        receiver.accept(first)
        receiver.accept(second)

    def test_out_of_order_rejected(self):
        sender = BoshSession("shared")
        receiver = BoshSession("shared")
        first, second = sender.wrap([_stanza()]), sender.wrap([_stanza()])
        receiver.accept(first)
        with pytest.raises(XMPPProtocolError):
            receiver.accept(sender.wrap([_stanza()]))  # skipped `second`
        del second

    def test_sid_mismatch_rejected(self):
        receiver = BoshSession("right-sid")
        body = BoshSession("wrong-sid").wrap([_stanza()])
        with pytest.raises(XMPPProtocolError):
            receiver.accept(body)

    def test_empty_sid_rejected(self):
        with pytest.raises(XMPPProtocolError):
            BoshSession("")

    def test_accept_returns_stanzas(self):
        sender = BoshSession("s")
        receiver = BoshSession("s")
        stanzas = receiver.accept(sender.wrap([_stanza("payload")]))
        assert stanzas[0].body == "payload"
