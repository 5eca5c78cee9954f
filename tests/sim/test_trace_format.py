"""The trace format's byte contract and its reader's error contract.

* The canonical line formatter, which the digest hashes, is checked
  against the reference definition
  ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` over
  generated events.
* A version-2 file round-trips: over drawn traces (actors, events with
  ``meta``, the empty trace, traces across several blocks) a write and
  a read give equal columns, kinds and header, two writes give
  identical bytes, the read trace digests as its source, and the reader
  with numpy off reads the same columns and digest.
* Every fault in a file fails with :class:`TraceFormatError` naming the
  path: another version, a bad header, truncation at and between block
  boundaries, a corrupt ``.gz``, trailing bytes, block counts that
  disagree with the header, and values out of range, in the same words
  with numpy and without.
* A ``.gz`` write closes every handle it opens and deflates at the
  module's level, zlib's default: the same bytes on every write, a
  deflate stream of exactly that level, and a level-9 file still reads
  to the same columns and digest.
* A read trace keeps its digest until it hands out its columns, its
  events or takes a new header.
"""

from __future__ import annotations

import dataclasses
import gc
import gzip
import hashlib
import json
import sys
import warnings
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import _optional
from repro.sim.replay import (
    Trace,
    TraceColumns,
    TraceEvent,
    TraceFormatError,
    read_trace,
    trace_digest,
    write_trace,
)
from repro.sim.replay import format as trace_format
from repro.sim.scenarios import iot_fleet, tenant_multiply
from repro.sim.replay.format import TraceHeader, event_line, header_line


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
def _traces(draw, tenants: int = 4, numbers=_ints, count=st.integers(0, 8)) -> Trace:
    at = 0
    events = []
    for _ in range(draw(count)):
        at += draw(numbers)
        events.append(TraceEvent(
            at, draw(st.integers(0, tenants - 1)), draw(_text), draw(_text),
            draw(numbers), draw(_text), draw(_meta),
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


# -- version-2 round trips -----------------------------------------------

# Numbers a trace file holds: int64, with arrival times summing below 2**63.
_file_numbers = st.one_of(st.integers(0, 10), st.integers(0, 2**59))
# Up to 40 events, so the small block sizes below cut a trace into many blocks.
_file_traces = _traces(numbers=_file_numbers, count=st.integers(0, 40))
_blocks = st.sampled_from([1, 3, 7, 1 << 16])
_suffixes = st.sampled_from(["trace.jsonl", "trace.jsonl.gz", "trace.bin"])
_FILE_SETTINGS = settings(_SETTINGS, max_examples=80)


def _read_both(path: Path):
    """The trace read with numpy, then with numpy off."""
    with_numpy = read_trace(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_optional, "_FORCE_FALLBACK", True)
        without = read_trace(path)
    return with_numpy, without


class TestRoundTrip:
    @_FILE_SETTINGS
    @given(_file_traces, _blocks, _suffixes)
    def test_a_read_gives_the_written_columns_kinds_and_header(self, tmp_path, monkeypatch,
                                                              trace, block, name):
        monkeypatch.setattr(trace_format, "_BLOCK_EVENTS", block)
        path = tmp_path / name
        assert write_trace(path, trace) == len(trace)
        back = read_trace(path)
        assert back.header == dataclasses.replace(trace.header, events=len(trace))
        assert back.columns() == trace.columns()
        assert back.columns().kinds == trace.columns().kinds
        assert back.events == trace.events

    @_FILE_SETTINGS
    @given(_file_traces, _blocks, _suffixes)
    def test_two_writes_give_identical_bytes(self, tmp_path, monkeypatch, trace, block, name):
        monkeypatch.setattr(trace_format, "_BLOCK_EVENTS", block)
        first, second = tmp_path / f"a-{name}", tmp_path / f"b-{name}"
        write_trace(first, trace)
        write_trace(second, read_trace(first))
        assert first.read_bytes() == second.read_bytes()

    @_FILE_SETTINGS
    @given(_file_traces, _blocks)
    def test_a_read_trace_digests_as_its_source(self, tmp_path, monkeypatch, trace, block):
        monkeypatch.setattr(trace_format, "_BLOCK_EVENTS", block)
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, trace)
        assert trace_digest(read_trace(path)) == trace_digest(trace) == _reference_digest(trace)

    @_FILE_SETTINGS
    @given(_file_traces, _blocks)
    def test_numpy_on_and_off_read_alike(self, tmp_path, monkeypatch, trace, block):
        monkeypatch.setattr(trace_format, "_BLOCK_EVENTS", block)
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, trace)
        with_numpy, without = _read_both(path)
        assert type(without.readonly_columns().at) is list
        assert with_numpy.header == without.header
        assert with_numpy.readonly_columns().kinds == without.readonly_columns().kinds
        assert trace_digest(with_numpy) == trace_digest(without)
        assert with_numpy.columns() == without.columns()

    def test_a_read_trace_holds_int64_columns_under_numpy(self, tmp_path):
        pytest.importorskip("numpy")
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, tenant_multiply(iot_fleet(2017), 2))
        columns = read_trace(path).readonly_columns()
        assert [c.dtype.name for c in (columns.at, columns.tenant, columns.size, columns.kind)] \
            == ["int64"] * 4

    def test_the_file_is_a_json_header_then_int64_column_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trace_format, "_BLOCK_EVENTS", 2)
        trace = Trace(TraceHeader("x", 5, 3), [
            TraceEvent(10, 2, "a", "/r", 7), TraceEvent(10, 0, "a", "/r", 8, actor="d"),
            TraceEvent(25, 1, "a", "/r", 9, meta=(("k", [1]),)),
        ])
        path = tmp_path / "t.jsonl"
        write_trace(path, trace)
        head, body = path.read_bytes().split(b"\n", 1)
        assert json.loads(head) == {
            "events": 3, "format": "repro-trace", "name": "x", "seed": 5, "tenants": 3,
            "version": 2,
            "kinds": [["a", "/r", "", {}], ["a", "/r", "d", {}], ["a", "/r", "", {"k": [1]}]],
        }
        assert body == _pack(2, 10, 0, 2, 0, 7, 8, 0, 1) + _pack(1, 15, 1, 9, 2)

    def test_the_kind_table_holds_only_used_kinds_in_order(self, tmp_path):
        columns = TraceColumns([1, 2, 3], [0, 0, 0], [1, 1, 1], [2, 0, 2],
                               [("a", "/r", "", ()), ("a", 1, "", ()), ("b", "/r", "", ())])
        path = tmp_path / "t.jsonl"
        assert write_trace(path, Trace.from_columns(TraceHeader("c", 0, 1), columns)) == 3
        back = read_trace(path).columns()
        assert back.kind == [0, 1, 0]
        assert back.kinds == [("b", "/r", "", ()), ("a", "/r", "", ())]


# -- reader errors -------------------------------------------------------


def _pack(*values: int) -> bytes:
    return b"".join(value.to_bytes(8, "little", signed=True) for value in values)


def _header(**fields) -> bytes:
    obj = {"format": "repro-trace", "version": 2, "name": "x", "seed": 0, "tenants": 3,
           "events": 2, "kinds": [["a", "/r", "", {}]], **fields}
    return json.dumps(obj).encode("ascii") + b"\n"


def _block(steps, tenant, size, kind) -> bytes:
    return _pack(len(steps), *steps, *tenant, *size, *kind)


GOOD_BLOCK = _block([10, 5], [0, 2], [1, 2], [0, 0])

READER_ERRORS = {
    "version-1": (
        b'{"events":0,"format":"repro-trace","name":"x","seed":0,"tenants":1,"version":1}\n',
        "trace version 1 is not supported; this reader reads version 2",
    ),
    "unknown-version": (_header(version=9), "trace version 9 is not supported"),
    "not-json": (b"\x1f\x8b\x08 not json\n", "header is not JSON"),
    "not-a-trace": (b'{"format":"other"}\n', "not a repro-trace header"),
    "empty-file": (b"", "empty trace file"),
    "header-without-newline": (_header()[:-1], "truncated header"),
    "negative-event-count": (_header(events=-1), "header declares -1 events"),
    "no-kind-table": (_header(kinds=None), "header kinds must be a list"),
    "a-kind-with-an-int-route": (_header(kinds=[["a", 1, "", {}]]),
                                 "header kind must be [app, route, actor, meta]"),
    "a-kind-with-list-meta": (_header(kinds=[["a", "/r", "", []]]),
                              "header kind must be [app, route, actor, meta]"),
    "trailing-bytes": (_header() + GOOD_BLOCK + b"\x00", "trailing bytes after the header's 2"),
    "too-few-blocks": (_header(events=3) + GOOD_BLOCK,
                       "truncated: block at event 2 ends after 0 of 8 bytes"),
    "a-block-past-the-count": (_header(events=1) + GOOD_BLOCK,
                               "block at event 0 holds 2 events; a block holds 1 to 65536 "
                               "and the header declares 1 in all"),
    # Refused before a read is sized by it.
    "a-block-past-the-limit": (_header(events=2**62) + _pack(2**62),
                               "block at event 0 holds 4611686018427387904 events; "
                               "a block holds 1 to 65536"),
    "a-block-one-past-the-limit": (_header(events=65537) + _pack(65537),
                                   "block at event 0 holds 65537 events"),
    "an-empty-block": (_header() + _pack(0) + GOOD_BLOCK, "block at event 0 holds 0 events"),
    "a-negative-block": (_header() + _pack(-2) + GOOD_BLOCK, "block at event 0 holds -2 events"),
    "a-step-back": (_header() + _block([10, -1], [0, 0], [1, 1], [0, 0]),
                    "event 1 at 9 precedes its predecessor at 10"),
    "a-negative-first-time": (_header() + _block([-1, 1], [0, 0], [1, 1], [0, 0]),
                              "event 0 carries a negative quantity"),
    "a-time-past-int64": (_header() + _block([2**62, 2**62], [0, 0], [1, 1], [0, 0]),
                          "event 1: arrival time 9223372036854775808 is not below 2**63"),
    "a-tenant-out-of-range": (_header() + _block([1, 1], [0, 3], [1, 1], [0, 0]),
                              "event 1 names tenant 3 outside [0, 3)"),
    "a-negative-tenant": (_header() + _block([1, 1], [-1, 0], [1, 1], [0, 0]),
                          "event 0 names tenant -1 outside [0, 3)"),
    "a-negative-size": (_header() + _block([1, 1], [0, 0], [1, -4], [0, 0]),
                        "event 1 carries a negative quantity"),
    "a-kind-out-of-range": (_header() + _block([1, 1], [0, 0], [1, 1], [0, 1]),
                            "trace kind ids must index its 1 kinds"),
    "a-bad-meta-key": (_header(meta={"storage": "floppy"}), "trace meta"),
}


class TestReaderErrors:
    @pytest.mark.parametrize("force_fallback", [False, True])
    @pytest.mark.parametrize("kind", sorted(READER_ERRORS))
    def test_each_names_the_path(self, tmp_path, monkeypatch, kind, force_fallback):
        data, message = READER_ERRORS[kind]
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", force_fallback)
        for path in (tmp_path / "bad.jsonl", tmp_path / "bad.jsonl.gz"):
            path.write_bytes(gzip.compress(data, mtime=0) if path.suffix == ".gz" else data)
            with pytest.raises(TraceFormatError) as info:
                read_trace(path)
            assert str(info.value).startswith(f"{path}: {message}")

    def test_the_good_block_reads(self, tmp_path):
        path = tmp_path / "good.jsonl"
        path.write_bytes(_header() + GOOD_BLOCK)
        assert read_trace(path).columns() == TraceColumns(
            [10, 15], [0, 2], [1, 2], [0, 0], [("a", "/r", "", ())])


# -- corrupt files -------------------------------------------------------


def _small(events: int = 300) -> Trace:
    return Trace(
        TraceHeader("small", 1, 3),
        [TraceEvent(i * 1000, i % 3, actor=f"dev-{i % 5}") for i in range(events)],
    )


def _block_ends(body: bytes) -> list:
    """The byte offsets in a file's body (after the header) where each block ends."""
    ends, offset = [], 0
    while offset < len(body):
        offset += 8 + 32 * int.from_bytes(body[offset:offset + 8], "little")
        ends.append(offset)
    return ends


class TestCorruptFiles:
    @pytest.mark.parametrize("gz", [False, True])
    def test_truncation_at_and_inside_every_block(self, tmp_path, monkeypatch, gz):
        monkeypatch.setattr(trace_format, "_BLOCK_EVENTS", 64)
        path = tmp_path / "whole.jsonl"
        write_trace(path, _small())
        head, body = path.read_bytes().split(b"\n", 1)
        ends = _block_ends(body)
        assert len(ends) == 5
        cuts = [0, *ends[:-1], 4, 8, 9, 8 + 32 * 64 - 1, ends[2] + 100, ends[-1] - 1]
        for cut in cuts:
            data = head + b"\n" + body[:cut]
            cut_path = tmp_path / ("cut.jsonl.gz" if gz else "cut.jsonl")
            cut_path.write_bytes(gzip.compress(data, mtime=0) if gz else data)
            with pytest.raises(TraceFormatError, match=r"^.*cut\.jsonl(\.gz)?: truncated: "
                                                       r"block at event \d+ ends after"):
                read_trace(cut_path)

    def test_truncated_gzip(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, _small())
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(TraceFormatError, match=r"t\.jsonl\.gz: corrupt gzip"):
            read_trace(path)

    def test_a_flipped_crc_is_a_corrupt_gzip(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, _small())
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match=r"t\.jsonl\.gz: corrupt gzip"):
            read_trace(path)

    def test_non_gzip_file_named_gz(self, tmp_path):
        path = tmp_path / "plain.jsonl.gz"
        write_trace(tmp_path / "plain.jsonl", _small())
        path.write_bytes((tmp_path / "plain.jsonl").read_bytes())
        with pytest.raises(TraceFormatError, match=r"plain\.jsonl\.gz: corrupt gzip"):
            read_trace(path)

    def test_missing_file_is_not_a_format_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_trace(tmp_path / "absent.jsonl.gz")

    def test_the_version_is_the_headers_not_the_suffix(self, tmp_path):
        gz, plain = tmp_path / "t.bin", tmp_path / "t.jsonl.gz.txt"
        write_trace(tmp_path / "t.jsonl.gz", _small())
        gz.write_bytes(gzip.decompress((tmp_path / "t.jsonl.gz").read_bytes()))
        write_trace(plain, _small())
        assert read_trace(gz) == read_trace(plain) == read_trace(tmp_path / "t.jsonl.gz")

    @pytest.mark.parametrize("field,value", [("at_micros", 2**63), ("tenant", 2**63),
                                             ("payload_bytes", 2**63)])
    def test_the_writer_refuses_a_number_past_int64(self, tmp_path, field, value):
        path = tmp_path / "late.jsonl.gz"
        late = dataclasses.replace(TraceEvent(2, 0), **{field: value})
        trace = Trace(TraceHeader("late", 1, 2**64), [TraceEvent(0, 0), late])
        key = {"at_micros": "at", "payload_bytes": "bytes"}.get(field, field)
        with pytest.raises(TraceFormatError, match=(
            rf"^event 1: field '{key}' is 9223372036854775808, not below 2\*\*63"
        )):
            write_trace(path, trace)
        assert not path.exists()


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
            read_trace(tmp_path / "t.jsonl.gz")
            gc.collect()
        assert [str(hook.exc_value) for hook in unraisable] == []

    @_SETTINGS
    @given(_traces(numbers=_file_numbers))
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
        """A trace deflated at gzip's level 9 reads to the same columns and digest."""
        trace = tenant_multiply(iot_fleet(2017), 2)
        new, old = tmp_path / "new.jsonl.gz", tmp_path / "old.jsonl.gz"
        write_trace(new, trace)
        old.write_bytes(gzip.compress(gzip.decompress(new.read_bytes()), 9, mtime=0))
        assert old.read_bytes() != new.read_bytes()
        for numpy in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_optional, "_FORCE_FALLBACK", not numpy)
                read_old, read_new = read_trace(old), read_trace(new)
            assert read_old.header == read_new.header
            assert read_old.columns() == read_new.columns() == trace.columns()
            assert read_old.columns().kinds == read_new.columns().kinds
            assert read_old.digest() == read_new.digest() == trace_digest(trace)


# -- the read trace and its digest ---------------------------------------


class TestReadTrace:
    def test_the_digest_is_kept_until_the_events_are_built(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, _small())
        trace = read_trace(path)
        assert trace._digest is None  # formatted on first use ...
        assert trace_digest(trace) == trace_digest(_small())
        assert trace._digest == trace_digest(_small())  # ... then kept
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
        assert trace._events is None
        same.events[-1] = dataclasses.replace(same.events[-1], actor="someone-else")
        assert trace != same
        assert trace != _small()  # the header declares an event count

    def test_a_new_header_drops_the_read_digest(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, _small())
        trace = read_trace(path)
        trace_digest(trace)
        renamed = dataclasses.replace(trace.header, name="renamed")
        trace.header = renamed
        assert trace_digest(trace) == trace_digest(Trace(renamed, _small().events))
        assert trace_digest(trace) != trace_digest(_small())

    @pytest.mark.parametrize("force_fallback", [False, True])
    def test_editing_the_columns_drops_the_digest(self, tmp_path, monkeypatch, force_fallback):
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", force_fallback)
        path = tmp_path / "iot.jsonl.gz"
        write_trace(path, iot_fleet(2017))
        trace = read_trace(path)
        trace.digest()
        columns = trace.columns()
        columns.size[0] += 1
        fresh = Trace.from_columns(trace.header, TraceColumns(
            list(columns.at), list(columns.tenant), list(columns.size), list(columns.kind),
            columns.kinds))
        assert trace.digest() == fresh.digest() != iot_fleet(2017).digest()
        edited = tmp_path / "edited.jsonl.gz"
        write_trace(edited, trace)
        assert read_trace(edited).digest() == trace.digest()


class TestEventMeta:
    def test_a_mapping_is_normalized_to_pairs(self, tmp_path):
        trace = Trace(TraceHeader("x", 0, 1, events=1), [TraceEvent(0, 0, meta={"k": 1})])
        assert trace.events[0].meta == (("k", 1),)
        hash(trace.events[0])  # raised TypeError while the dict was kept
        path = tmp_path / "t.jsonl"
        write_trace(path, trace)
        assert read_trace(path) == trace
        assert TraceEvent(0, 0, meta=None) == TraceEvent(0, 0)
