"""XMPP stanzas and JIDs.

The stanza writer is checked against ``xml.etree.ElementTree.tostring``,
kept here as the oracle: for every stanza :class:`Stanza` accepts, the
bytes are identical but for a CR in text, written ``&#13;`` so that it
reads back, and every stanza it refuses is one whose ElementTree bytes
would not parse back as written.
"""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.errors import XMPPProtocolError
from repro.protocols.xmpp import (
    Jid,
    Stanza,
    iq_stanza,
    message_stanza,
    parse_stanza,
    presence_stanza,
)


class TestJid:
    def test_parse_full(self):
        jid = Jid.parse("alice@diy/laptop")
        assert (jid.local, jid.domain, jid.resource) == ("alice", "diy", "laptop")
        assert jid.bare == "alice@diy"
        assert str(jid) == "alice@diy/laptop"

    def test_parse_bare(self):
        jid = Jid.parse("bob@example.org")
        assert jid.resource == ""
        assert str(jid) == "bob@example.org"

    @pytest.mark.parametrize("bad", ["nodomain", "a@", "@d", "a b@d", "a@d d"])
    def test_invalid_jids(self, bad):
        with pytest.raises(XMPPProtocolError):
            Jid.parse(bad)


class TestStanzas:
    def test_message_round_trip(self):
        stanza = message_stanza(
            Jid.parse("a@d/r"), Jid.parse("room@conf.d"), "hi there", "id-1", groupchat=True
        )
        parsed = parse_stanza(stanza.serialize())
        assert parsed.kind == "message"
        assert parsed.body == "hi there"
        assert parsed.stanza_type == "groupchat"
        assert parsed.from_jid == Jid.parse("a@d/r")
        assert parsed.to_jid == Jid.parse("room@conf.d")
        assert parsed.stanza_id == "id-1"

    def test_presence_round_trip(self):
        stanza = presence_stanza(Jid.parse("a@d"), available=False)
        parsed = parse_stanza(stanza.serialize())
        assert parsed.kind == "presence"
        assert parsed.stanza_type == "unavailable"

    def test_iq_round_trip(self):
        stanza = iq_stanza(Jid.parse("a@d"), None, "get", "q1", (("history", "room"),))
        parsed = parse_stanza(stanza.serialize())
        assert parsed.stanza_type == "get"
        assert parsed.child("history") == "room"
        assert parsed.to_jid is None

    def test_custom_attributes_round_trip(self):
        stanza = Stanza("message", Jid.parse("a@d"), Jid.parse("b@d"),
                        "i", "chat", (("body", "x"),), {"sent-at": "12345"})
        parsed = parse_stanza(stanza.serialize())
        assert parsed.attributes["sent-at"] == "12345"

    def test_xml_escaping(self):
        stanza = message_stanza(Jid.parse("a@d"), Jid.parse("b@d"),
                                "<script>&\"injection\"</script>", "i")
        parsed = parse_stanza(stanza.serialize())
        assert parsed.body == "<script>&\"injection\"</script>"

    def test_unknown_kind_rejected(self):
        with pytest.raises(XMPPProtocolError):
            Stanza("carrier-pigeon", None, None)

    def test_invalid_iq_type_rejected(self):
        with pytest.raises(XMPPProtocolError):
            iq_stanza(None, None, "push", "i")

    def test_malformed_xml_rejected(self):
        with pytest.raises(XMPPProtocolError):
            parse_stanza(b"<message><body>unclosed")

    def test_non_stanza_element_rejected(self):
        with pytest.raises(XMPPProtocolError):
            parse_stanza(b"<html/>")

    def test_missing_body_is_none(self):
        stanza = presence_stanza(Jid.parse("a@d"))
        assert stanza.body is None


_name = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=10)
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=120
)


@given(local=_name, domain=_name, body=_text)
def test_property_message_round_trip(local, domain, body):
    jid = Jid(local, domain)
    stanza = message_stanza(jid, Jid("room", domain), body, "id-p")
    parsed = parse_stanza(stanza.serialize())
    # ElementTree maps an empty text node to None → "" via our codec.
    assert (parsed.body or "") == body
    assert parsed.from_jid == jid


XML_NS = "http://www.w3.org/XML/1998/namespace"


def _fields(stanza):
    return (stanza.kind, stanza.from_jid, stanza.to_jid, stanza.stanza_id,
            stanza.stanza_type, stanza.children, stanza.attributes)


def _elementtree_bytes(kind, from_jid, to_jid, stanza_id, stanza_type, children, attributes):
    """What ``ET.tostring`` writes for these stanza fields, with CR in text as ``&#13;``.

    ``ET.tostring`` already writes a CR in an attribute value as ``&#13;``,
    so every raw CR it writes is in text, which a parser would read as LF.
    """
    element = ET.Element(kind)
    if from_jid is not None:
        element.set("from", str(from_jid))
    if to_jid is not None:
        element.set("to", str(to_jid))
    if stanza_id:
        element.set("id", stanza_id)
    if stanza_type:
        element.set("type", stanza_type)
    for name, value in sorted(attributes.items()):
        element.set(name, value)
    for tag, text in children:
        ET.SubElement(element, tag).text = text
    return ET.tostring(element, encoding="utf-8").replace(b"\r", b"&#13;")


def _reads_back_as(data, fields):
    try:
        return _fields(parse_stanza(data)) == fields
    except XMPPProtocolError:
        return False


class TestWriter:
    def test_bytes_match_elementtree(self):
        stanza = Stanza("message", Jid.parse("a@d/r&"), Jid.parse("b@d"), "i<1>", 'q"t',
                        (("body", "x & <y>\r\n\t\"'"), ("session", ""), ("é", "\U0001f600")),
                        {"sent-at": "1\r\n\t<&>\"", "z": ""})
        assert stanza.serialize() == _elementtree_bytes(*_fields(stanza))
        assert b"<session />" in stanza.serialize()

    @pytest.mark.parametrize("attributes", [{}, {"{urn:x}a": "1\r2"}])
    def test_a_carriage_return_in_text_reads_back(self, attributes):
        body = "line one\r\nline two\rend"
        stanza = Stanza("message", Jid.parse("a@d"), Jid.parse("b@d"), "i", "chat",
                        (("body", body),), attributes)
        assert b"line one&#13;\nline two&#13;end" in stanza.serialize()
        assert parse_stanza(stanza.serialize()) == stanza
        assert parse_stanza(stanza.serialize()).body == body

    def test_an_empty_stanza_closes_itself(self):
        stanza = presence_stanza(Jid.parse("a@d"))
        assert stanza.serialize() == b'<presence from="a@d" />'

    @pytest.mark.parametrize("name", [f"{{{XML_NS}}}lang", "{urn:x}a", '{http://e.org/?a=1&b="2"}c'])
    def test_a_namespaced_attribute_round_trips(self, name):
        stanza = Stanza("message", Jid.parse("a@d"), None, "i", "", (("body", "hi"),),
                        {name: "en", "sent-at": "1"})
        assert stanza.serialize() == _elementtree_bytes(*_fields(stanza))
        assert parse_stanza(stanza.serialize()) == stanza


class TestStanzaValidation:
    """A stanza holds only what its own parser reads back as written."""

    def test_a_reserved_attribute_would_overwrite_the_id(self):
        with pytest.raises(XMPPProtocolError, match="'id' is reserved"):
            Stanza("message", Jid("a", "b"), Jid("c", "d"), "id1", "chat",
                   (("body", "hi"),), {"id": "x"})

    @pytest.mark.parametrize("name", ["from", "to", "id", "type"])
    def test_reserved_attribute_names_are_refused(self, name):
        with pytest.raises(XMPPProtocolError, match=f"{name!r} is reserved"):
            Stanza("presence", Jid.parse("a@d"), None, attributes={name: "v"})

    @pytest.mark.parametrize("name", [
        "a b", "", "1a", "a:b", "xml:lang", "xmlns", "xmlns:p", "{}a",
        "{http://www.w3.org/2000/xmlns/}p", "\u0221", "a\x01",
    ])
    def test_attribute_names_that_are_not_xml_names_are_refused(self, name):
        with pytest.raises(XMPPProtocolError, match="not an XML name"):
            Stanza("presence", Jid.parse("a@d"), None, attributes={name: "v"})

    @pytest.mark.parametrize("tag", ["bo dy", "", "1a", "a:b", "{urn:x}body", "\u0221", "a>"])
    def test_child_tags_that_are_not_xml_names_are_refused(self, tag):
        with pytest.raises(XMPPProtocolError, match="not an XML name"):
            Stanza("message", Jid.parse("a@d"), None, children=((tag, "x"),))

    @pytest.mark.parametrize("bad", ["\x00", "\x01", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"])
    @pytest.mark.parametrize("where", ["body", "attribute", "id", "type", "jid"])
    def test_characters_xml_forbids_are_refused(self, bad, where):
        fields = {"body": "hi", "attribute": "v", "id": "i", "type": "chat", "jid": "a"}
        fields[where] += bad
        with pytest.raises(XMPPProtocolError, match="XML 1.0 forbids"):
            Stanza("message", Jid(fields["jid"], "d"), None, fields["id"], fields["type"],
                   (("body", fields["body"]),), {"sent-at": fields["attribute"]})

    def test_every_allowed_whitespace_and_the_top_plane_are_accepted(self):
        stanza = message_stanza(Jid.parse("a@d"), Jid.parse("b@d"), "\t\n\r \U0010ffff\ufffd", "i")
        assert stanza.body == "\t\n\r \U0010ffff\ufffd"

    def test_a_parsed_stanza_keeps_its_namespaced_attribute(self):
        parsed = parse_stanza(b'<message xml:lang="en" xmlns:p="urn:p" p:x="1"><body>hi</body></message>')
        assert parsed.attributes == {f"{{{XML_NS}}}lang": "en", "{urn:p}x": "1"}
        assert parse_stanza(parsed.serialize()) == parsed


def _rarely(bad, good):
    """``bad`` in about one draw of twenty, else ``good``."""
    return st.integers(0, 19).flatmap(lambda i: bad if i == 13 else good)


# Names the writer meets: XML names, ``{uri}name`` forms with
# ``xml:lang`` among them, and now and then a name the parser refuses.
_plain_names = st.from_regex(r"\A[A-Za-z_][A-Za-z0-9._-]{0,6}\Z")
_names = _rarely(
    st.sampled_from(["bo dy", "a:b", "1a", "", "xmlns", "\u0221", "id", "from", "to", "type",
                     "{http://www.w3.org/2000/xmlns/}p", "{}a"]),
    st.one_of(
        _plain_names,
        st.sampled_from(["sent-at", "\xe9", "\u0e01", "a\xb7"]),
        st.builds("{{{}}}{}".format, st.sampled_from([XML_NS, "urn:x", 'http://e.org/?a=1&b="2"']),
                  st.one_of(_plain_names, st.just("lang"))),
    ),
)
# Text with escapes, CR/LF/tab, non-BMP characters and empty text, and
# now and then a character XML forbids: a control or a lone surrogate.
_good_chars = st.one_of(
    st.sampled_from(list("&<>\"']\r\n\t ") + ["\x7f", "\x85", "\U0001f600", "\U0010ffff"]),
    st.characters(blacklist_categories=("Cs", "Cc")),
)
_good_texts = st.text(alphabet=_good_chars, max_size=8)
_texts = _rarely(
    st.builds("{}{}{}".format, _good_texts,
              st.sampled_from(["\x00", "\x01", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"]),
              _good_texts),
    _good_texts,
)
_jid_parts = [st.text(alphabet="ab&<'\"\xe9\U0001f600", min_size=size, max_size=4) for size in (1, 1, 0)]
_jids = st.one_of(st.none(), _rarely(
    st.builds(Jid, st.just("a\x01"), *_jid_parts[1:]), st.builds(Jid, *_jid_parts),
))


@settings(max_examples=300)
@given(kind=st.sampled_from(["message", "presence", "iq"]), from_jid=_jids, to_jid=_jids,
       stanza_id=_texts, stanza_type=_texts,
       children=st.lists(st.tuples(_names, _texts), max_size=3).map(tuple),
       attributes=st.dictionaries(_names, _texts, max_size=3))
def test_property_serialize_matches_elementtree(
    kind, from_jid, to_jid, stanza_id, stanza_type, children, attributes,
):
    fields = (kind, from_jid, to_jid, stanza_id, stanza_type, children, attributes)
    oracle = _elementtree_bytes(*fields)
    try:
        stanza = Stanza(*fields)
    except XMPPProtocolError:
        event("refused")
        assert not _reads_back_as(oracle, fields)
        return
    event("accepted")
    assert stanza.serialize() == oracle
    assert parse_stanza(oracle) == stanza
