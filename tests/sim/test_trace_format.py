"""The trace format's byte contract and its reader's error contract.

* The canonical line formatter is checked against the reference
  definition ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
  over generated events, and ``sha256`` of a written file is its digest.
* Every malformed event line fails with a pinned message and line number.
* Corrupt files (truncated or non-gzip ``.gz``, non-ASCII bytes) fail
  with :class:`TraceFormatError` naming the path.
* A ``.gz`` write closes every handle it opens and compresses to the
  same bytes as a text-mode writer over :class:`gzip.GzipFile` at the
  module's deflate level, zlib's default: the same bytes on every write,
  a deflate stream of exactly that level, and a level-9 file written as
  earlier writers did still reads to the same columns and digest.
* The block reader agrees with a line-by-line reference reader on every
  file, canonical or not: length, columns, events, digest and errors,
  with numpy and without; the numpy block decoder reads drawn blocks
  exactly as the ``findall`` decoder does.
* The numpy decoder's positional proof accepts a block exactly when the
  pattern it replaced (kept here as the oracle) matches it, and then
  decodes it as the ``findall`` decoder does; every block of a written
  library trace that the pattern accepts is decoded as arrays.
* A line the canonical pattern matches is exactly the formatter's line
  for the fields ``json.loads`` decodes from it.
"""

from __future__ import annotations

import dataclasses
import gc
import gzip
import hashlib
import io
import functools
import json
import re
import sys
import warnings
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import _optional
from repro.sim.replay import (
    Trace,
    TraceEvent,
    TraceFormatError,
    read_trace,
    trace_digest,
    write_trace,
)
from repro.sim.replay import format as trace_format
from repro.sim.scenarios import SCENARIOS, iot_fleet, tenant_multiply
from repro.sim.replay.format import (
    TraceHeader,
    _event_error,
    _fail,
    _parse_header,
    event_line,
    header_line,
    meta_pairs,
)

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
    alphabet=st.sampled_from(list('ab/-%"\\\n\t\x00\x7fé€😀 ')), max_size=6,
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


_odd_numbers = st.one_of(st.booleans(), st.floats(0, 1e6, allow_nan=False))
_odd_names = st.one_of(_text, st.booleans(), st.integers(0, 2))


@st.composite
def _odd_events(draw) -> TraceEvent:
    """Fields of the wrong exact type: bools and floats where ints belong,
    bools and ints where strings belong (``1`` and ``True`` compare equal)."""
    return TraceEvent(
        draw(st.one_of(_odd_numbers, _ints)),
        draw(st.one_of(st.booleans(), st.integers(0, 3))),
        draw(_odd_names), draw(_text), draw(st.one_of(_odd_numbers, _ints)),
        draw(_odd_names), draw(_meta),
    )


_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])
# Each example of the reader oracle writes a file and reads it three ways.
# Its tests also run from a subclass with numpy off, a second executor.
_READ_SETTINGS = settings(
    _SETTINGS, max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.differing_executors],
)


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

    def test_names_that_compare_equal_keep_their_encoding(self):
        events = [TraceEvent(0, 0, app=1), TraceEvent(1, 0, app=True), TraceEvent(2, 0, app=1.0),
                  TraceEvent(3, 0, actor=0), TraceEvent(4, 0, actor=False)]
        trace = Trace(TraceHeader("odd", 0, 1), events)
        assert trace_digest(trace) == _reference_digest(trace)
        assert trace.columns().events() == events
        assert [type(e.app) for e in trace.columns().events()] == [int, bool, float, str, str]

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
    @pytest.mark.parametrize("keep", [30, 2_000, 9_000, 40_000])
    def test_truncated_gzip_names_the_line_it_broke_in(self, tmp_path, keep):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, _small(events=20_000))
        path.write_bytes(path.read_bytes()[:keep])
        _assert_reads_like_reference(path)

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
        raw = gzip.GzipFile(fileobj=reference, mode="wb", compresslevel=trace_format._GZIP_LEVEL,
                            filename="", mtime=0)
        out = io.TextIOWrapper(raw, encoding="ascii", newline="\n")
        out.write(header_line(trace.header, len(trace.events)))
        for event in trace.events:
            out.write("\n" + _reference_line(event))
        out.write("\n")
        out.close()  # flushes, then closes the GzipFile but not the BytesIO
        assert path.read_bytes() == reference.getvalue()

    @_SETTINGS
    @given(_traces())
    def test_bytes_are_deterministic_at_the_module_level(self, tmp_path, trace):
        first, second = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        write_trace(first, trace)
        write_trace(second, trace)
        raw = first.read_bytes()
        assert raw == second.read_bytes()
        # Magic, deflate, no flags, mtime 0, XFL 0 (neither level 1 nor 9), OS unknown.
        assert raw[:10] == b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"
        body = gzip.decompress(raw)
        deflate = zlib.compressobj(trace_format._GZIP_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
        stream = deflate.compress(body) + deflate.flush(zlib.Z_SYNC_FLUSH) + deflate.flush()
        assert raw[10:-8] == stream
        assert raw[-8:] == (zlib.crc32(body).to_bytes(4, "little")
                            + len(body).to_bytes(4, "little"))

    def test_the_level_is_zlibs_default(self, tmp_path):
        # Z_DEFAULT_COMPRESSION (-1) means level 6 inside zlib; on this
        # body every other level deflates to other bytes.
        write_trace(tmp_path / "iot.jsonl", iot_fleet(2017))
        body = (tmp_path / "iot.jsonl").read_bytes()
        deflated = [zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS)
                    for level in (trace_format._GZIP_LEVEL, zlib.Z_DEFAULT_COMPRESSION)]
        assert len({d.compress(body) + d.flush() for d in deflated}) == 1

    def test_a_level_9_trace_reads_as_the_written_one(self, tmp_path):
        """A trace written at gzip's level 9, as earlier writers did, still reads alike."""
        trace = tenant_multiply(iot_fleet(2017), 2)
        new, old = tmp_path / "new.jsonl.gz", tmp_path / "old.jsonl.gz"
        write_trace(new, trace)
        with open(old, "wb") as handle:
            with gzip.GzipFile(fileobj=handle, mode="wb", compresslevel=9,
                               filename="", mtime=0) as out:
                out.write(header_line(trace.header, len(trace)).encode("ascii"))
                for event in trace.events:
                    out.write(("\n" + _reference_line(event)).encode("ascii"))
                out.write(b"\n")
                out.flush()
        assert old.read_bytes() != new.read_bytes()
        assert gzip.decompress(old.read_bytes()) == gzip.decompress(new.read_bytes())
        for numpy in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_optional, "_FORCE_FALLBACK", not numpy)
                read_old, read_new = read_trace(old), read_trace(new)
            assert read_old.header == read_new.header
            assert read_old.columns() == read_new.columns() == trace.columns()
            assert read_old.columns().kinds == read_new.columns().kinds
            assert read_old.digest() == read_new.digest() == trace_digest(trace)


# -- the block reader against a line-by-line reference --------------------


def _reference_read(path: Path) -> Trace:
    """The line-at-a-time reader the block reader replaced, kept as the oracle.

    A text-mode pass (universal newlines) that decodes each line with
    ``json`` and checks it by exact type; :func:`_event_error` names a
    refused line, and a damaged gzip stream names the first line not
    read whole.
    """
    decode = json.JSONDecoder().raw_decode
    if path.suffix == ".gz":
        handle = io.TextIOWrapper(gzip.open(path, "rb"), encoding="latin-1")
    else:
        handle = open(path, "r", encoding="latin-1")
    line_no = 0  # the last line read whole
    try:
        with handle:
            first = handle.readline()
            line_no = 1
            if not first.isascii():
                raise TraceFormatError(f"{path}: line 1: non-ASCII byte in trace")
            if not first.strip():
                raise TraceFormatError(f"{path}: empty trace file")
            header = _parse_header(first.strip())
            events = []
            prev_at = 0
            for line_no, line in enumerate(handle, start=2):
                if not line.isascii():
                    raise TraceFormatError(f"{path}: line {line_no}: non-ASCII byte in trace")
                line = line.strip()
                if not line:
                    continue
                try:
                    obj, end = decode(line)
                    at, tenant, size = obj["at"], obj["tenant"], obj["bytes"]
                    app, route = obj["app"], obj["route"]
                    actor, meta = obj.get("actor", ""), obj.get("meta", {})
                except (ValueError, KeyError, TypeError):
                    end = -1
                if not (end == len(line) and type(at) is int and type(tenant) is int
                        and type(size) is int and type(app) is str and type(route) is str
                        and type(actor) is str and type(meta) is dict
                        and prev_at <= at and 0 <= tenant < header.tenants and size >= 0):
                    _fail(line_no, _event_error(line, header.tenants, prev_at))
                events.append(TraceEvent(at, tenant, app, route, size, actor, meta_pairs(meta)))
                prev_at = at
            if header.events != len(events):
                raise TraceFormatError(
                    f"{path}: header declares {header.events} events, file holds {len(events)}"
                )
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise TraceFormatError(
            f"{path}: line {line_no + 1}: corrupt gzip stream ({exc})"
        ) from exc
    return Trace(header, events)


def _outcome(read, path: Path):
    """What a reader makes of a file: its error message, or the trace's views.

    The read trace's columns and digest are taken before its events,
    which would replace them.
    """
    try:
        trace = read(path)
    except TraceFormatError as exc:
        return str(exc)
    return len(trace), trace.columns(), trace_digest(trace), trace.events, trace_digest(trace)


def _assert_reads_like_reference(path: Path) -> None:
    got, want = _outcome(read_trace, path), _outcome(_reference_read, path)
    assert got == want
    if isinstance(want, str):
        with pytest.raises(TraceFormatError) as info:
            list(trace_format.iter_trace(path))
        assert str(info.value) == want
    else:
        stream = trace_format.iter_trace(path)
        next(stream)
        assert list(stream) == want[3]


def _write_lines(path: Path, events: int, lines, ending: str = "\n", final: bool = True):
    header = (f'{{"events":{events},"format":"repro-trace","name":"x","seed":0,'
              f'"tenants":3,"version":1}}')
    body = ending.join([header, *lines]) + (ending if final else "")
    path.write_bytes(body.encode("latin-1"))


_GOOD_2 = '{"actor":"d","app":"a","at":20,"bytes":2,"route":"/r","tenant":1}'

NON_CANONICAL = {
    "extra-whitespace": ['  { "app" : "a", "at" : 10,"bytes":1,"route":"/r","tenant":0 }\t',
                         _GOOD_2],
    "reordered-keys": ['{"at":10,"tenant":0,"app":"a","route":"/r","bytes":1}', _GOOD_2],
    "unicode-escape": ['{"app":"\\u0041","at":10,"bytes":1,"route":"/\\u00e9","tenant":0}',
                       _GOOD_2],
    "slash-escape": ['{"app":"a","at":10,"bytes":1,"route":"\\/r","tenant":0}', _GOOD_2],
    "meta-object": [GOOD, '{"app":"a","at":20,"bytes":2,"meta":{"k":[1,true]},'
                          '"route":"/r","tenant":1}'],
    "empty-actor": ['{"actor":"","app":"a","at":10,"bytes":1,"route":"/r","tenant":0}',
                    _GOOD_2],
    "big-number": ['{"app":"a","at":10,"bytes":123456789012345678901,"route":"/r",'
                   '"tenant":0}', _GOOD_2],
    "leading-zero-free-float": ['{"app":"a","at":10,"bytes":1e3,"route":"/r","tenant":0}',
                                _GOOD_2],
}


class TestBlockReaderOracle:
    @pytest.mark.parametrize("kind", sorted(NON_CANONICAL))
    def test_non_canonical_lines(self, tmp_path, kind):
        path = tmp_path / "t.jsonl"
        _write_lines(path, 2, NON_CANONICAL[kind])
        _assert_reads_like_reference(path)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_other_line_endings(self, tmp_path, ending):
        path = tmp_path / "t.jsonl"
        _write_lines(path, 2, [GOOD, _GOOD_2], ending=ending)
        _assert_reads_like_reference(path)
        assert len(read_trace(path)) == 2

    def test_no_final_newline(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_lines(path, 2, [GOOD, _GOOD_2], final=False)
        _assert_reads_like_reference(path)
        # Still canonical: the digest comes from the raw lines.
        assert read_trace(path)._digest is not None

    def test_blank_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_lines(path, 2, [GOOD, "", _GOOD_2])
        _assert_reads_like_reference(path)

    def test_canonical_file_keeps_the_raw_digest(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, _small())
        trace = read_trace(path)
        assert trace._digest == trace_digest(_small())
        assert trace.events == _small().events  # built from the columns ...
        assert trace._digest is None  # ... which are then dropped with the digest
        assert trace_digest(trace) == trace_digest(_small())

    def test_comparing_a_read_trace_keeps_its_columns(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, _small())
        trace = read_trace(path)
        same = Trace(trace.header, _small().events)
        assert trace == same and same == trace
        assert trace == read_trace(path)
        assert trace._events is None and trace._digest is not None
        same.events[-1] = dataclasses.replace(same.events[-1], actor="someone-else")
        assert trace != same
        assert trace != _small()  # the header declares no event count

    def test_a_new_header_drops_the_read_digest(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, _small())
        trace = read_trace(path)
        renamed = dataclasses.replace(trace.header, name="renamed")
        trace.header = renamed
        assert trace_digest(trace) == trace_digest(Trace(renamed, _small().events))
        assert trace_digest(trace) != trace_digest(_small())

    @pytest.mark.parametrize("kind", sorted(READER_ERRORS))
    def test_error_cases(self, tmp_path, kind):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([HEADER, GOOD, READER_ERRORS[kind][0]]) + "\n")
        _assert_reads_like_reference(path)

    @_READ_SETTINGS
    @given(_traces(), st.sampled_from([64, 200, 1 << 20]))
    def test_written_traces(self, tmp_path, monkeypatch, trace, block):
        monkeypatch.setattr(trace_format, "_BLOCK_BYTES", block)
        path = tmp_path / "t.jsonl"
        write_trace(path, trace)
        _assert_reads_like_reference(path)

    @_READ_SETTINGS
    @given(st.lists(_odd_events(), max_size=6), st.sampled_from([64, 1 << 20]))
    def test_odd_events(self, tmp_path, monkeypatch, events, block):
        monkeypatch.setattr(trace_format, "_BLOCK_BYTES", block)
        path = tmp_path / "t.jsonl"
        header = ('{"events":%d,"format":"repro-trace","name":"odd","seed":0,'
                  '"tenants":4,"version":1}' % len(events))
        path.write_text("\n".join([header, *map(event_line, events)]) + "\n")
        _assert_reads_like_reference(path)


class TestBlockReaderOracleWithoutNumpy(TestBlockReaderOracle):
    """The same oracle with numpy off: the ``findall`` decoder reads every canonical block."""

    @pytest.fixture(autouse=True)
    def _no_numpy(self, monkeypatch):
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", True)


# -- the numpy block decoder against the findall decoder ------------------

_names = st.text(alphabet=st.sampled_from(list("ab-/~ 0")), max_size=4)
_short_numbers = st.one_of(
    st.integers(0, 99),
    st.integers(10**17, 10**18 - 1),  # 18 digits: the numpy decoder's widest
)
_wide_numbers = st.one_of(
    _short_numbers,
    st.integers(10**18, 10**19 - 1),  # 19 digits: only the findall decoder's
    st.just(2**63 - 1),
)


@st.composite
def _drawn_files(draw) -> str:
    """A header and drawn event lines, ending in LF or CRLF.

    Each file draws which oddities it may hold: 19-digit numbers
    (``2**63 - 1`` among them), lines that are not canonical (a ``meta``
    object, an empty actor), tenants outside the header's four, and
    timestamps out of order (across a block boundary too, at the small
    block sizes); about a third of the files hold none, so the numpy
    decoder reads whole blocks. Lines have an actor or not and may have
    an empty app.
    """
    wide, odd, strays, unsorted = (draw(st.sampled_from([False, False, False, True]))
                                   for _ in range(4))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        numbers = _wide_numbers if wide else _short_numbers
        tenant = draw(st.integers(0, 4 if strays else 3))
        event = TraceEvent(draw(numbers), tenant, draw(_names), draw(_names), draw(numbers),
                           draw(st.one_of(st.just(""), _names)))
        shape = draw(st.integers(0, 3)) if odd else 3
        if shape == 0:
            event = dataclasses.replace(event, meta=(("k", 1),))
        line = event_line(event)
        if shape == 1:
            line = line.replace('{"app"', '{"actor":"","app"')
        lines.append(line)
    if not unsorted:
        lines.sort(key=lambda line: json.loads(line)["at"])
    ending = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    header = ('{"events":%d,"format":"repro-trace","name":"drawn","seed":0,'
              '"tenants":4,"version":1}' % len(lines))
    return ending.join([header, *lines]) + ending


def _read_views(path: Path):
    """What :func:`read_trace` makes of ``path``: its error, or columns, kinds, digest and events."""
    try:
        trace = read_trace(path)
    except TraceFormatError as exc:
        return str(exc)
    digest = trace_digest(trace)
    columns = trace.columns()
    events = trace.events
    assert all(type(e.at_micros) is int and type(e.tenant) is int
               and type(e.payload_bytes) is int for e in events)
    return columns, columns.kinds, digest, events


class TestNumpyDecoderOracle:
    @settings(_READ_SETTINGS, max_examples=150)
    @given(_drawn_files(), st.sampled_from([64, 200, 1 << 20]))
    def test_drawn_blocks_read_alike(self, tmp_path, monkeypatch, body, block):
        monkeypatch.setattr(trace_format, "_BLOCK_BYTES", block)
        path = tmp_path / "t.jsonl"
        path.write_bytes(body.encode("ascii"))
        with_numpy = _read_views(path)
        with monkeypatch.context() as patch:  # numpy is back on for the next example
            patch.setattr(_optional, "_FORCE_FALLBACK", True)
            assert _read_views(path) == with_numpy

    def test_a_canonical_block_is_decoded_as_arrays(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, _small())
        trace = read_trace(path)
        assert type(trace.readonly_columns().at) is not list
        assert trace.columns() == _small().columns()
        assert type(trace.readonly_columns().at) is list  # handed out as lists

    @pytest.mark.parametrize("at", [10**18, 2**63 - 1])
    def test_a_19_digit_number_is_read_as_lists(self, tmp_path, at):
        path = tmp_path / "t.jsonl"
        write_trace(path, Trace(TraceHeader("wide", 0, 3), [TraceEvent(0, 0), TraceEvent(at, 1)]))
        trace = read_trace(path)
        assert type(trace.readonly_columns().at) is list
        assert trace._digest is not None  # still canonical
        assert trace.events[-1].at_micros == at

    def test_a_read_write_round_trip_keeps_the_bytes(self, tmp_path):
        first, second = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        write_trace(first, _small(events=5000))
        write_trace(second, read_trace(first))
        assert second.read_bytes() == first.read_bytes()
        events = read_trace(first).events
        streamed = list(trace_format.iter_trace(first))[1:]
        for read in (events, streamed):
            assert all(type(e.at_micros) is int and type(e.tenant) is int
                       and type(e.payload_bytes) is int for e in read)
            assert read == _small(events=5000).events


# -- the positional proof against the pattern it replaced ------------------

# The block the numpy decoder takes, as a pattern without groups:
# canonical lines, each ending in a newline, whose numbers have at most
# 18 digits. ``_prove_block`` must accept exactly the blocks it matches.
_SAFE_BYTE = rb'[ !#-\[\]-~]'  # printable ASCII but '"' and '\'
_SHORT_NUMBER = rb'(?:0|[1-9][0-9]{0,17})'
_CANONICAL_BLOCK = re.compile(
    rb'(?:\{(?:"actor":"' + _SAFE_BYTE + rb'++",)?"app":"' + _SAFE_BYTE + rb'*+","at":'
    + _SHORT_NUMBER + rb',"bytes":' + _SHORT_NUMBER + rb',"route":"' + _SAFE_BYTE
    + rb'*+","tenant":' + _SHORT_NUMBER + rb'\}\n)*+'
)


def _numpy():
    np = _optional.numpy_or_none()
    if np is None:
        pytest.skip("the positional proof runs under numpy")
    return np


def _assert_proof_agrees(block: bytes) -> None:
    """The proof accepts ``block`` exactly when the pattern does, and decodes it as ``findall`` does."""
    proven = trace_format._prove_block(_numpy(), block)
    assert (proven is not None) == (_CANONICAL_BLOCK.fullmatch(block) is not None), block
    if proven is None:
        return
    at, tenant, size, kind, names = proven
    matches = trace_format._CANONICAL_LINE.findall(block)
    assert [at.tolist(), size.tolist(), tenant.tolist()] == [
        [int(match[field]) for match in matches] for field in (1, 2, 4)]
    pairs = [(match[0], match[3]) for match in matches]
    assert names == list(dict.fromkeys(pairs))  # each pair once, in order of first appearance
    assert [names[k] for k in kind.tolist()] == pairs


def _raw_line(at=1, size=2, tenant=0, app="a", route="/r", actor="") -> bytes:
    """An event line in the formatter's layout, with its names written raw, unescaped."""
    head = f'"actor":"{actor}",' if actor else ""
    return (f'{{{head}"app":"{app}","at":{at},"bytes":{size},"route":"{route}",'
            f'"tenant":{tenant}}}\n').encode("latin-1")


_proof_names = st.text(alphabet=st.sampled_from(list("ab/~ 0:,{}")), max_size=9)
_proof_numbers = st.one_of(
    st.integers(0, 9), st.integers(0, 10**6),
    st.integers(10**17, 10**18 - 1), st.integers(10**18, 10**19 - 1),
)
# What a mutation writes: bytes a name or a number may not hold, and
# bytes of the line's own fixed text.
_MUTATION_BYTES = list(b'\x00\\"\r\x7f\x800123456789{}:,\n')


@st.composite
def _mutated_blocks(draw) -> bytes:
    """One to four canonical lines, then up to three byte inserts, deletes or replacements."""
    block = bytearray()
    for _ in range(draw(st.integers(1, 4))):
        event = TraceEvent(draw(_proof_numbers), draw(_proof_numbers), draw(_proof_names),
                           draw(_proof_names), draw(_proof_numbers),
                           draw(st.one_of(st.just(""), _proof_names)))
        block += event_line(event).encode("ascii") + b"\n"
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(block) - 1))
        byte = draw(st.sampled_from(_MUTATION_BYTES))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            block.insert(at, byte)
        elif edit == "replace":
            block[at] = byte
        elif len(block) > 1:
            del block[at]
    return bytes(block)


PROOF_CASES = {
    "18-digit-numbers": _raw_line(at=10**18 - 1, size=10**17, tenant=10**18 - 1),
    "19-digit-at": _raw_line(at=10**18),
    "19-digit-tenant": _raw_line(tenant=10**18),
    "zeros": _raw_line(at=0, size=0, tenant=0),
    "leading-zero-at": b'{"app":"a","at":01,"bytes":2,"route":"/r","tenant":0}\n',
    "leading-zero-bytes": b'{"app":"a","at":1,"bytes":00,"route":"/r","tenant":0}\n',
    "leading-zero-tenant": b'{"app":"a","at":1,"bytes":2,"route":"/r","tenant":07}\n',
    "empty-number": b'{"app":"a","at":,"bytes":2,"route":"/r","tenant":0}\n',
    "letter-in-a-number": b'{"app":"a","at":1x,"bytes":2,"route":"/r","tenant":0}\n',
    "space-in-a-number": b'{"app":"a","at":1,"bytes":2 ,"route":"/r","tenant":0}\n',
    "brace-in-a-number": b'{"app":"a","at":1,"bytes":2,"route":"/r","tenant":0}}\n',
    "text-between-route-key-and-route": b'{"app":"a","at":1,"bytes":2,"route": "/r","tenant":0}\n',
    "short-tenant-key-at-the-end": b'{"app":"a","at":1,"bytes":2,"route":"/r","t"}\n',
    "empty-app-and-route": _raw_line(app="", route="", actor="d"),
    "empty-actor": b'{"actor":"","app":"a","at":1,"bytes":2,"route":"/r","tenant":0}\n',
    "colons-and-commas": _raw_line(app=":", route=",", actor="a,b:c") + _raw_line(app='a:b,c'),
    "fixed-text-in-names": _raw_line(app=',at:', route='{route:,tenant:}', actor='app:'),
    "escaped-name": b'{"app":"a\\"b","at":1,"bytes":2,"route":"/r","tenant":0}\n',
    "name-ending-in-nul": _raw_line(app="ab") + _raw_line(app="ab\x00"),
    "route-ending-in-nul": _raw_line(route="") + _raw_line(route="\x00"),
    "names-one-prefix-of-another": b"".join(
        _raw_line(route=route, actor=actor)
        for route in ("", "a", "abcdefg", "abcdefgh", "abcdefghi", "abcdefgh")
        for actor in ("", "x", "abcdefgh")),
    "crlf": _raw_line().replace(b"\n", b"\r\n"),
    "control-byte": _raw_line(app="a\x1fb"),
    "del-byte": _raw_line(route="/\x7f"),
    "high-byte": _raw_line(actor="\x80"),
    "blank-line": _raw_line() + b"\n" + _raw_line(),
    "no-final-newline": _raw_line()[:-1],
    "reordered-keys": b'{"app":"a","bytes":2,"at":1,"route":"/r","tenant":0}\n',
    "quote-in-a-number": b'{"app":"a","at":"1","bytes":2,"route":"/r","tenant":0}\n',
    **{f"{size}-bytes": b"{}\n1234"[:size - 1] + b"\n" for size in range(1, 8)},
}


class TestPositionalProof:
    @pytest.mark.parametrize("case", sorted(PROOF_CASES))
    def test_cases(self, case):
        _assert_proof_agrees(PROOF_CASES[case])

    def test_a_last_line_that_ends_anywhere(self):
        """Every cut of a block, with and without a newline after it: no read leaves the block."""
        block = _raw_line(at=123, actor="dev-1") + _raw_line(at=1234, app="", route="")
        for cut in range(1, len(block) + 1):
            _assert_proof_agrees(block[:cut])
            _assert_proof_agrees(block[:cut] + b"\n")
            _assert_proof_agrees(block[:cut] + b"}\n")

    @settings(max_examples=400, deadline=None)
    @given(_mutated_blocks())
    def test_mutated_blocks(self, block):
        _assert_proof_agrees(block)

    def test_a_key_collision_goes_to_findall(self, tmp_path, monkeypatch):
        """With every key equal, only the word comparison tells kinds apart."""
        np = _numpy()
        one_kind = _raw_line(at=1) + _raw_line(at=2)
        two_kinds = one_kind + _raw_line(at=3, route="/s")
        monkeypatch.setattr(trace_format, "_MIX", 0)
        assert trace_format._prove_block(np, one_kind) is not None
        assert trace_format._prove_block(np, two_kinds) is None
        # Spans of eight and nine "a"s read as equal words; only their lengths differ.
        assert trace_format._prove_block(np, _raw_line(route="a" * 8) + _raw_line(route="a" * 9)) is None
        path = tmp_path / "t.jsonl"
        write_trace(path, _small())
        _assert_reads_like_reference(path)
        assert type(read_trace(path).readonly_columns().at) is list


@functools.lru_cache(maxsize=None)
def _library_trace(name: str) -> Trace:
    if name == "iot-fleet*3":
        return tenant_multiply(iot_fleet(2017), 3)
    return SCENARIOS[name](2017)


class TestArrayPath:
    """A block the proof should take but refuses is decoded right, only slower; no digest shows it."""

    @pytest.mark.parametrize("block", [1 << 12, 1 << 20])
    @pytest.mark.parametrize("name", ["iot-fleet*3", *sorted(SCENARIOS)])
    def test_every_canonical_block_is_decoded_as_arrays(self, tmp_path, monkeypatch, name, block):
        _numpy()
        trace = _library_trace(name)
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, trace)
        monkeypatch.setattr(trace_format, "_BLOCK_BYTES", block)
        pattern, to_findall = trace_format._CANONICAL_LINE, []

        class Spy:
            def findall(self, data):
                to_findall.append(data)
                return pattern.findall(data)

        monkeypatch.setattr(trace_format, "_CANONICAL_LINE", Spy())
        read = read_trace(path)
        assert [data for data in to_findall if _CANONICAL_BLOCK.fullmatch(data)] == []
        if not any(meta for *_, meta in trace.columns().kinds):
            assert to_findall == []
            assert type(read.readonly_columns().at) is not list
        assert read.digest() == trace.digest()


class TestEventMeta:
    def test_a_mapping_is_normalized_to_pairs(self, tmp_path):
        trace = Trace(TraceHeader("x", 0, 1, events=1), [TraceEvent(0, 0, meta={"k": 1})])
        assert trace.events[0].meta == (("k", 1),)
        hash(trace.events[0])  # raised TypeError while the dict was kept
        path = tmp_path / "t.jsonl"
        write_trace(path, trace)
        assert read_trace(path) == trace
        assert TraceEvent(0, 0, meta=None) == TraceEvent(0, 0)


# -- across 1 MiB blocks -------------------------------------------------


def _line(at: int, tenant: int = 0, actor: str = "dev") -> str:
    return event_line(TraceEvent(at, tenant, "iot", "/iot/report", 100, actor))


def _block_lines(count: int):
    """``count`` canonical lines, ``at`` 0 to ``count - 1``."""
    return [_line(at, at % 3, f"dev-{at % 7}") for at in range(count)]


def _second_block(path: Path):
    """Where the reader's second block starts.

    Returns the index among the event lines of the block's first line,
    and whether the ``_BLOCK_BYTES`` boundary fell inside that line
    rather than right after a newline.
    """
    data = path.read_bytes()
    cut = data.rfind(b"\n", 0, trace_format._BLOCK_BYTES) + 1
    return data.count(b"\n", 0, cut) - 1, cut != trace_format._BLOCK_BYTES


class TestAcrossBlocks:
    COUNT = 16_000  # ~1.3 MiB of lines: two blocks

    def _write(self, path: Path, lines) -> int:
        _write_lines(path, self.COUNT, lines)
        first, _ = _second_block(path)
        return first

    def test_mixed_blocks_read_like_the_reference(self, tmp_path):
        lines = _block_lines(self.COUNT)
        lines[12_000] = lines[12_000].replace('{"actor"', '{ "actor"')
        path = tmp_path / "t.jsonl"
        _write_lines(path, self.COUNT, lines)
        _assert_reads_like_reference(path)
        assert read_trace(path)._digest is None  # the formatter digests this one

    def test_a_bad_line_in_the_second_block(self, tmp_path):
        lines = _block_lines(self.COUNT)
        path = tmp_path / "t.jsonl"
        bad = self._write(path, lines) + 500
        lines[bad] = lines[bad].rsplit(":", 1)[0] + ":9}"
        _write_lines(path, self.COUNT, lines)
        with pytest.raises(TraceFormatError) as info:
            read_trace(path)
        assert str(info.value) == f"trace line {bad + 2}: tenant 9 outside [0, 3)"
        _assert_reads_like_reference(path)

    def test_a_line_split_across_blocks(self, tmp_path):
        lines = _block_lines(self.COUNT)
        path = tmp_path / "t.jsonl"
        split = self._write(path, lines)
        assert _second_block(path)[1]  # the boundary falls inside this line
        _assert_reads_like_reference(path)
        assert read_trace(path)._digest == hashlib.sha256(path.read_bytes()[:-1]).hexdigest()
        lines[split] = lines[split][:-1]  # and now that line is broken
        _write_lines(path, self.COUNT, lines)
        with pytest.raises(TraceFormatError, match=f"^trace line {split + 2}: event is not JSON"):
            read_trace(path)
        _assert_reads_like_reference(path)

    def test_a_timestamp_that_decreases_at_the_block_boundary(self, tmp_path):
        lines = _block_lines(self.COUNT)
        path = tmp_path / "t.jsonl"
        first = self._write(path, lines)
        lines[first] = _line(first - 2, 0, "dev-0")
        _write_lines(path, self.COUNT, lines)
        with pytest.raises(TraceFormatError) as info:
            read_trace(path)
        assert str(info.value) == (
            f"trace line {first + 2}: timestamps must be non-decreasing "
            f"({first - 2} after {first - 1})"
        )
        _assert_reads_like_reference(path)


# -- the canonical pattern -----------------------------------------------

_raw_text = st.text(alphabet=st.sampled_from(list('ab/ -~"\\\x7f\x1fé')), max_size=4)


@st.composite
def _candidate_lines(draw) -> str:
    """JSON-ish event lines: some canonical, most a small step from it."""
    fields = {
        "app": draw(_raw_text), "route": draw(_raw_text),
        "at": draw(_ints), "bytes": draw(_ints), "tenant": draw(_ints),
    }
    if draw(st.booleans()):
        fields["actor"] = draw(_raw_text)
    keys = sorted(fields)
    if draw(st.integers(0, 9)) == 0:
        keys = draw(st.permutations(keys))
    parts = []
    for key in keys:
        value = fields[key]
        if isinstance(value, str):
            text = json.dumps(value) if draw(st.booleans()) else f'"{value}"'
        else:
            text = draw(st.sampled_from([str(value), str(value), f"0{value}", f"-{value}"]))
        parts.append(f'"{key}":{text}')
    separator = draw(st.sampled_from([",", ",", ", "]))
    return "{" + separator.join(parts) + "}"


class TestCanonicalPattern:
    @settings(max_examples=400, deadline=None)
    @given(_candidate_lines())
    def test_a_match_is_the_formatter_line(self, line):
        raw = line.encode("utf-8")
        match = trace_format._CANONICAL_LINE.match(raw)
        if match is None or match.end() != len(raw):
            return
        obj = json.loads(line)
        names = json.loads(b"{" + match[1] + b"}")
        assert (names.get("actor", ""), names["app"]) == (obj.get("actor", ""), obj["app"])
        assert obj.get("actor", None) != ""
        assert [int(match[2]), int(match[3]), match[4].decode(), int(match[5])] == \
            [obj["at"], obj["bytes"], obj["route"], obj["tenant"]]
        event = TraceEvent(obj["at"], obj["tenant"], obj["app"], obj["route"], obj["bytes"],
                           obj.get("actor", ""))
        assert event_line(event) == line

    def test_canonical_lines_match(self):
        for event in [TraceEvent(0, 0, "", ""), TraceEvent(10**18, 7, "a b", "/~!#", 0, "x")]:
            line = event_line(event).encode("ascii")
            assert trace_format._CANONICAL_LINE.match(line).end() == len(line)
