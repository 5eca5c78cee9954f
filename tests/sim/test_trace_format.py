"""The trace format's byte contract and its reader's error contract.

* The canonical line formatter is checked against the reference
  definition ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
  over generated events, and ``sha256`` of a written file is its digest.
* Every malformed event line fails with a pinned message and line number.
* Corrupt files (truncated or non-gzip ``.gz``, non-ASCII bytes) fail
  with :class:`TraceFormatError` naming the path.
* A ``.gz`` write closes every handle it opens and compresses to the
  same bytes as a text-mode writer over :class:`gzip.GzipFile`.
"""

from __future__ import annotations

import gc
import gzip
import hashlib
import io
import json
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.replay import (
    Trace,
    TraceEvent,
    TraceFormatError,
    read_trace,
    trace_digest,
    write_trace,
)
from repro.sim.replay.format import TraceHeader, event_line, header_line

HEADER = (
    '{"events":2,"format":"repro-trace","name":"x","seed":0,'
    '"tenants":3,"version":1}'
)
GOOD = '{"app":"a","at":10,"bytes":1,"route":"/r","tenant":0}'


def _reference_line(event: TraceEvent) -> str:
    """The reference definition of a canonical event line."""
    obj = {
        "at": event.at_micros,
        "tenant": event.tenant,
        "app": event.app,
        "route": event.route,
        "bytes": event.payload_bytes,
    }
    if event.actor:
        obj["actor"] = event.actor
    if event.meta:
        obj["meta"] = dict(event.meta)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _reference_digest(trace: Trace) -> str:
    sha = hashlib.sha256()
    sha.update(header_line(trace.header, len(trace.events)).encode("ascii"))
    for event in trace.events:
        sha.update(b"\n")
        sha.update(_reference_line(event).encode("ascii"))
    return sha.hexdigest()


# -- the formatter oracle ------------------------------------------------

_text = st.text(
    alphabet=st.sampled_from(list('ab/-"\\\n\t\x00\x7fé€😀 ')), max_size=6,
)
_ints = st.one_of(st.integers(0, 10), st.integers(0, 2**70))
_meta_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), _text),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_text, inner, max_size=3),
    ),
    max_leaves=6,
)
_meta = st.dictionaries(_text, _meta_values, max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)


@st.composite
def _traces(draw, tenants: int = 4) -> Trace:
    count = draw(st.integers(0, 8))
    at = 0
    events = []
    for _ in range(count):
        at += draw(_ints)
        events.append(TraceEvent(
            at, draw(st.integers(0, tenants - 1)), draw(_text), draw(_text),
            draw(_ints), draw(_text), draw(_meta),
        ))
    return Trace(TraceHeader(draw(_text), draw(_ints), tenants), events)


@st.composite
def _odd_events(draw) -> TraceEvent:
    """Fields of the wrong exact type: bools where ints belong."""
    return TraceEvent(
        draw(st.one_of(st.booleans(), _ints)), draw(st.one_of(st.booleans(), st.integers(0, 3))),
        draw(_text), draw(_text), draw(st.one_of(st.booleans(), _ints)),
        draw(_text), draw(_meta),
    )


_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFormatterOracle:
    @_SETTINGS
    @given(_odd_events())
    def test_event_line_matches_reference(self, event):
        assert event_line(event) == _reference_line(event)

    @_SETTINGS
    @given(st.one_of(_traces(), st.lists(_odd_events(), max_size=6).map(
        lambda events: Trace(TraceHeader("odd", 0, 4), events))))
    def test_digest_matches_reference(self, trace):
        assert trace_digest(trace) == _reference_digest(trace)

    @_SETTINGS
    @given(_traces(), st.sampled_from(["jsonl", "jsonl.gz"]))
    def test_written_body_hashes_to_digest_and_round_trips(self, tmp_path, trace, suffix):
        path = tmp_path / f"t.{suffix}"
        write_trace(path, trace)
        raw = path.read_bytes()
        body = gzip.decompress(raw) if suffix.endswith("gz") else raw
        assert body.endswith(b"\n")
        assert hashlib.sha256(body[:-1]).hexdigest() == trace_digest(trace)
        back = read_trace(path)
        assert back.header.name == trace.header.name
        assert back.events == trace.events
        assert trace_digest(back) == trace_digest(trace)

    def test_digest_hashes_across_batch_boundaries(self):
        events = [TraceEvent(i, i % 3, actor=f"d{i % 7}") for i in range(10_000)]
        trace = Trace(TraceHeader("big", 1, 3), events)
        assert trace_digest(trace) == _reference_digest(trace)


# -- reader errors -------------------------------------------------------

READER_ERRORS = {
    "non-object": (
        "[1,2]",
        "trace line 3: event must be a JSON object",
    ),
    "bad-json": (
        '{"at":',
        "trace line 3: event is not JSON (Expecting value: line 1 column 7 (char 6))",
    ),
    "bool-at": (
        '{"app":"a","at":true,"bytes":1,"route":"/r","tenant":0}',
        "trace line 3: field 'at' must be int, got True",
    ),
    "string-tenant": (
        '{"app":"a","at":10,"bytes":1,"route":"/r","tenant":"0"}',
        "trace line 3: field 'tenant' must be int, got '0'",
    ),
    "negative-bytes": (
        '{"app":"a","at":10,"bytes":-1,"route":"/r","tenant":0}',
        "trace line 3: negative payload size -1",
    ),
    "decreasing-at": (
        '{"app":"a","at":5,"bytes":1,"route":"/r","tenant":0}',
        "trace line 3: timestamps must be non-decreasing (5 after 10)",
    ),
    "tenant-out-of-range": (
        '{"app":"a","at":10,"bytes":1,"route":"/r","tenant":3}',
        "trace line 3: tenant 3 outside [0, 3)",
    ),
    "non-string-actor": (
        '{"actor":7,"app":"a","at":10,"bytes":1,"route":"/r","tenant":0}',
        "trace line 3: actor must be a string, got 7",
    ),
    "non-object-meta": (
        '{"app":"a","at":10,"bytes":1,"meta":[1],"route":"/r","tenant":0}',
        "trace line 3: event meta must be an object",
    ),
}


class TestReaderErrors:
    @pytest.mark.parametrize("kind", sorted(READER_ERRORS))
    def test_message_and_line(self, tmp_path, kind):
        line, message = READER_ERRORS[kind]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([HEADER, GOOD, line]) + "\n")
        with pytest.raises(TraceFormatError) as info:
            read_trace(path)
        assert str(info.value) == message


# -- corrupt files -------------------------------------------------------


def _small(events: int = 300) -> Trace:
    return Trace(
        TraceHeader("small", 1, 3),
        [TraceEvent(i * 1000, i % 3, actor=f"dev-{i % 5}") for i in range(events)],
    )


class TestCorruptFiles:
    def test_truncated_gzip(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, _small())
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(TraceFormatError, match=r"t\.jsonl\.gz: line \d+: corrupt gzip"):
            read_trace(path)

    def test_non_gzip_file_named_gz(self, tmp_path):
        path = tmp_path / "plain.jsonl.gz"
        write_trace(tmp_path / "plain.jsonl", _small())
        path.write_bytes((tmp_path / "plain.jsonl").read_bytes())
        with pytest.raises(TraceFormatError, match=r"plain\.jsonl\.gz: line 1: corrupt gzip"):
            read_trace(path)

    def test_non_ascii_byte_names_its_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, _small(events=5))
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b"dev-", b"d\xc3\xa9v-")
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(TraceFormatError, match=r"t\.jsonl: line 4: non-ASCII byte"):
            read_trace(path)

    def test_missing_file_is_not_a_format_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_trace(tmp_path / "absent.jsonl.gz")


# -- the gzip writer -----------------------------------------------------


class TestGzipWriter:
    def test_closes_every_handle(self, tmp_path, monkeypatch):
        # A file finalized unclosed warns from its finalizer, where the
        # error the filter makes of it goes to sys.unraisablehook.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            write_trace(tmp_path / "t.jsonl.gz", _small())
            gc.collect()
        assert [str(hook.exc_value) for hook in unraisable] == []

    def test_bytes_match_a_text_mode_writer(self, tmp_path):
        trace = _small()
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, trace)
        reference = io.BytesIO()
        raw = gzip.GzipFile(fileobj=reference, mode="wb", filename="", mtime=0)
        out = io.TextIOWrapper(raw, encoding="ascii", newline="\n")
        out.write(header_line(trace.header, len(trace.events)))
        for event in trace.events:
            out.write("\n" + _reference_line(event))
        out.write("\n")
        out.close()  # flushes, then closes the GzipFile but not the BytesIO
        assert path.read_bytes() == reference.getvalue()
