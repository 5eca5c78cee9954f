"""The trace format's byte contract and its reader's error contract.

* The canonical line formatter is checked against the reference
  definition ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
  over generated events, and ``sha256`` of a written file is its digest.
* Every malformed event line fails with a pinned message and line number.
* Corrupt files (truncated or non-gzip ``.gz``, non-ASCII bytes) fail
  with :class:`TraceFormatError` naming the path.
* A ``.gz`` write closes every handle it opens and compresses to the
  same bytes as a text-mode writer over :class:`gzip.GzipFile`.
* The block reader agrees with a line-by-line reference reader on every
  file, canonical or not: length, columns, events, digest and errors.
* A line the canonical pattern matches is exactly the formatter's line
  for the fields ``json.loads`` decodes from it.
"""

from __future__ import annotations

import dataclasses
import gc
import gzip
import hashlib
import io
import json
import sys
import warnings
import zlib
from pathlib import Path

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
from repro.sim.replay import format as trace_format
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
# Each example of the reader oracle writes a file and reads it three ways.
_READ_SETTINGS = settings(_SETTINGS, max_examples=60)


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
        raw = gzip.GzipFile(fileobj=reference, mode="wb", filename="", mtime=0)
        out = io.TextIOWrapper(raw, encoding="ascii", newline="\n")
        out.write(header_line(trace.header, len(trace.events)))
        for event in trace.events:
            out.write("\n" + _reference_line(event))
        out.write("\n")
        out.close()  # flushes, then closes the GzipFile but not the BytesIO
        assert path.read_bytes() == reference.getvalue()


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
