"""The versioned JSONL trace format: recorded request streams on disk.

A **trace** is the unit of workload portability: a header line plus one
JSON object per request, ordered by virtual arrival time. Everything
the replay engines need to re-drive a workload — tenant, application,
route, payload size, the issuing device — travels in the event; free
anything else rides in ``meta``. The format is:

* **versioned** — the header carries ``{"format": "repro-trace",
  "version": 1}``; readers reject unknown versions instead of
  misinterpreting them;
* **canonical** — events serialize with sorted keys, compact
  separators, and defaults omitted, so the same trace always produces
  the same bytes (and therefore the same :func:`trace_digest`). One
  formatter makes every event line for :func:`write_trace`,
  :func:`trace_digest` and :func:`event_line`;
* **gzip-friendly** — :func:`write_trace` writes ``*.gz`` paths
  through :class:`gzip.GzipFile` with ``mtime=0`` and an empty
  filename, keeping even the *compressed* bytes deterministic.

This module is the **only** place that parses trace JSONL (the
``make lint`` grep enforces it); every consumer goes through
:func:`read_trace` / :func:`iter_trace` and gets schema validation for
free. A corrupt file fails loudly: a truncated or non-gzip ``.gz`` and
a non-ASCII byte raise :class:`TraceFormatError` naming the path.

Cost model: one reader serves :func:`read_trace` and :func:`iter_trace`.
It takes the decompressed body in blocks of about 1 MiB of whole lines
and decodes a block of canonical lines with one regular expression,
straight into integer columns; any other block is decoded line by line
around :mod:`json`, which also names a refused line's error. A trace
read from disk is columnar (:class:`TraceColumns`): its
:class:`TraceEvent` objects are built only when ``trace.events`` is
asked for, and when every line was canonical its digest is the sha256
of the raw lines, taken during the read.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import itertools
import json
import re
import zlib
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, Iterator, List, NoReturn, Optional, Tuple, Union

from repro.errors import ConfigurationError

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "DEFAULT_STORAGE",
    "DEFAULT_MEMORY_MB",
    "TraceFormatError",
    "TraceEvent",
    "TraceHeader",
    "TraceColumns",
    "Trace",
    "sort_events",
    "event_line",
    "header_line",
    "trace_digest",
    "trace_storage",
    "trace_memory_mb",
    "write_trace",
    "read_trace",
    "iter_trace",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1
# The storage backend and Lambda memory size a header with no
# ``storage`` / ``memory_mb`` meta was recorded at. Only other values
# are written, so default traces keep their seed-era bytes.
DEFAULT_STORAGE = "s3"
DEFAULT_MEMORY_MB = 448


class TraceFormatError(ConfigurationError):
    """A trace file or event violated the schema."""


@dataclass(frozen=True)
class TraceEvent:
    """One recorded operation: who asked what, when, and how big.

    ``at_micros`` is virtual time; ``tenant`` indexes the dense tenant
    space declared by the header; ``actor`` names the device or user
    that issued the op (empty when the recorder couldn't tell).
    ``meta`` is a sorted tuple of ``(key, value)`` pairs so events stay
    hashable and serialize canonically.
    """

    at_micros: int
    tenant: int
    app: str = "fleet"
    route: str = "/fleet/request"
    payload_bytes: int = 2048
    actor: str = ""
    meta: Tuple[Tuple[str, object], ...] = ()

    def meta_dict(self) -> Dict[str, object]:
        return dict(self.meta)


@dataclass(frozen=True)
class TraceHeader:
    """The trace's identity line: where it came from and what it holds."""

    name: str
    seed: int
    tenants: int
    events: int = 0
    meta: Tuple[Tuple[str, object], ...] = ()

    def meta_dict(self) -> Dict[str, object]:
        return dict(self.meta)


# One distinct ``(app, route, actor, meta)`` of a trace: an event's non-number fields.
Kind = Tuple[str, str, str, Tuple[Tuple[str, object], ...]]


class _Kinds:
    """A trace's distinct kinds, numbered in order of first appearance.

    Events without ``meta`` share the kind of their ``(app, route,
    actor)``; an event with ``meta`` gets a kind of its own, since meta
    values need not be hashable.
    """

    def __init__(self):
        self.kinds: List[Kind] = []
        self._ids: Dict[Tuple[str, str, str], int] = {}

    def add(self, app: str, route: str, actor: str, meta: Tuple[Tuple[str, object], ...]) -> int:
        if meta:
            self.kinds.append((app, route, actor, meta))
            return len(self.kinds) - 1
        kind = self._ids.get((app, route, actor))
        if kind is None:
            kind = self._ids[(app, route, actor)] = len(self.kinds)
            self.kinds.append((app, route, actor, ()))
        return kind


@dataclass
class TraceColumns:
    """A trace's events as parallel columns, in trace order.

    ``at``, ``tenant`` and ``size`` hold each event's arrival micros,
    tenant id and payload bytes; ``kind`` indexes ``kinds``, the
    trace's distinct ``(app, route, actor, meta)`` tuples (see
    :class:`_Kinds` for which events share one).
    """

    at: List[int]
    tenant: List[int]
    size: List[int]
    kind: List[int]
    kinds: List[Kind]

    @classmethod
    def from_events(cls, events: List[TraceEvent]) -> "TraceColumns":
        kinds = _Kinds()
        add = kinds.add
        return cls(
            [e.at_micros for e in events], [e.tenant for e in events],
            [e.payload_bytes for e in events],
            [add(e.app, e.route, e.actor, e.meta) for e in events], kinds.kinds,
        )

    def __len__(self) -> int:
        return len(self.at)

    def events(self) -> List[TraceEvent]:
        return list(_column_events(self.kinds, self.at, self.tenant, self.size, self.kind))


def _column_events(
    kinds: List[Kind], at: List[int], tenant: List[int], size: List[int], kind: List[int],
) -> Iterator[TraceEvent]:
    """The events a run of columns holds, in order."""
    for at_micros, tenant_id, payload, kind_id in zip(at, tenant, size, kind):
        app, route, actor, meta = kinds[kind_id]
        yield TraceEvent(at_micros, tenant_id, app, route, payload, actor, meta)


class Trace:
    """A header plus its time-ordered events — the in-memory trace.

    A trace holds its events one of two ways, and exactly one is the
    source of truth:

    * built from an events list (the recorder, the scenario library,
      the transforms), the list is the truth; :meth:`columns` derives
      columns from it afresh on every call, since whoever holds the
      list may change it;
    * read from disk (:func:`read_trace`), the columns are the truth,
      plus the digest when the reader proved every line canonical. The
      first access to :attr:`events` builds the list from the columns;
      from then on that list is the truth and the column and digest
      caches are dropped, so editing it (``trace.events.reverse()``)
      is always seen. Assigning a new :attr:`header` drops the digest too.
    """

    def __init__(self, header: TraceHeader, events: Optional[List[TraceEvent]] = None):
        self._header = header
        self._events: Optional[List[TraceEvent]] = [] if events is None else events
        self._columns: Optional[TraceColumns] = None
        self._digest: Optional[str] = None

    @classmethod
    def from_columns(
        cls, header: TraceHeader, columns: TraceColumns, digest: Optional[str] = None,
    ) -> "Trace":
        """A trace whose truth is ``columns``; ``digest`` must be its :func:`trace_digest`."""
        trace = cls(header)
        trace._events, trace._columns, trace._digest = None, columns, digest
        return trace

    @property
    def header(self) -> TraceHeader:
        return self._header

    @header.setter
    def header(self, header: TraceHeader) -> None:
        self._header, self._digest = header, None

    @property
    def events(self) -> List[TraceEvent]:
        if self._events is None:
            self._events = self._columns.events()
            self._columns = self._digest = None
        return self._events

    @events.setter
    def events(self, events: List[TraceEvent]) -> None:
        self._events, self._columns, self._digest = events, None, None

    def columns(self) -> TraceColumns:
        if self._events is not None:
            return TraceColumns.from_events(self._events)
        return self._columns

    def __len__(self) -> int:
        return len(self._events) if self._events is not None else len(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        # Columns number kinds by first appearance, so two traces' columns
        # are equal exactly when their events are; neither builds events.
        return (self.header == other.header and len(self) == len(other)
                and self.columns() == other.columns())

    __hash__ = None  # equality follows mutable events

    def __repr__(self) -> str:
        return f"Trace(header={self.header!r}, events={len(self)})"

    def digest(self) -> str:
        return trace_digest(self)

    def duration_micros(self) -> int:
        if not len(self):
            return 0
        if self._events is None:
            return self._columns.at[-1] - self._columns.at[0]
        return self._events[-1].at_micros - self._events[0].at_micros

    def validate(self) -> "Trace":
        if self._events is not None:  # a read trace was validated as it was read
            _validate(self.header, self._events)
        return self


def _recorded(header: TraceHeader, key: str, default: object, valid, expected: str) -> object:
    """The header's ``meta[key]`` (``default`` when absent), checked by ``valid``."""
    value = header.meta_dict().get(key, default)
    if not valid(value):
        raise TraceFormatError(f"trace meta {key} must be {expected}, got {value!r}")
    return value


def trace_storage(header: TraceHeader) -> str:
    """The storage backend the trace's run billed: ``meta["storage"]`` or S3."""
    from repro.runtime.store import STORAGE_BACKENDS

    return _recorded(header, "storage", DEFAULT_STORAGE, STORAGE_BACKENDS.__contains__,
                     f"one of {STORAGE_BACKENDS}")


def trace_memory_mb(header: TraceHeader) -> int:
    """The Lambda memory size the trace's run billed: ``meta["memory_mb"]`` or 448."""
    return _recorded(header, "memory_mb", DEFAULT_MEMORY_MB,
                     lambda value: type(value) is int and value > 0, "a positive int")


def sort_events(events: Iterable[TraceEvent]) -> List[TraceEvent]:
    """Canonical event order: stable sort by arrival time.

    Ties keep their construction order, which is itself deterministic
    for every generator in this repo — so sorted traces, and therefore
    digests, are reproducible.
    """
    return sorted(events, key=lambda e: e.at_micros)


def meta_pairs(meta: Optional[Dict[str, object]]) -> Tuple[Tuple[str, object], ...]:
    """Normalize a metadata mapping to the canonical sorted-tuple form."""
    if not meta:
        return ()
    return tuple(sorted(meta.items()))


# -- canonical serialization ---------------------------------------------

# Lines per hashed or written chunk: bounds the memory of a digest or a
# write to a few hundred KiB whatever the trace's length.
_CHUNK_LINES = 4096

_dumps_sorted = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _event_object(event: TraceEvent) -> Dict[str, object]:
    """The event as the JSON object its line encodes (defaults omitted)."""
    obj: Dict[str, object] = {
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
    return obj


class _JsonStrings(dict):
    """Each distinct string's JSON encoding, computed on first use."""

    def __missing__(self, text: str) -> str:
        self[text] = encoded = json.dumps(text)
        return encoded


def _event_lines(events: Iterable[TraceEvent]) -> Iterator[str]:
    """The one canonical formatter: each event's line, in order.

    A line is ``_dumps_sorted(_event_object(event))`` byte for byte. The
    common event (``int`` numbers, ``str`` names) is assembled in key
    order with an f-string, encoding each distinct string once per call;
    ``meta`` and any field of another type (a ``bool``, a float) go
    through ``json.dumps`` itself.
    """
    strings = _JsonStrings()
    for event in events:
        at, tenant, size = event.at_micros, event.tenant, event.payload_bytes
        app, route, actor, meta = event.app, event.route, event.actor, event.meta
        if not (type(at) is int and type(tenant) is int and type(size) is int
                and type(app) is str and type(route) is str and type(actor) is str):
            yield _dumps_sorted(_event_object(event))
            continue
        head = f'{{"actor":{strings[actor]},"app":' if actor else '{"app":'
        tail = f',"meta":{_dumps_sorted(dict(meta))},"route":' if meta else ',"route":'
        yield (f'{head}{strings[app]},"at":{at},"bytes":{size}'
               f'{tail}{strings[route]},"tenant":{tenant}}}')


def _event_chunks(events: Iterable[TraceEvent]) -> Iterator[bytes]:
    """The event lines as ASCII chunks, each line preceded by a newline."""
    lines = _event_lines(events)
    while True:
        batch = list(itertools.islice(lines, _CHUNK_LINES))
        if not batch:
            return
        yield ("\n" + "\n".join(batch)).encode("ascii")


def event_line(event: TraceEvent) -> str:
    """The event's one canonical JSON line (defaults omitted)."""
    return next(_event_lines((event,)))


def header_line(header: TraceHeader, events: int) -> str:
    obj: Dict[str, object] = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "name": header.name,
        "seed": header.seed,
        "tenants": header.tenants,
        "events": events,
    }
    if header.meta:
        obj["meta"] = dict(header.meta)
    return _dumps_sorted(obj)


def trace_digest(trace: Trace) -> str:
    """sha256 over the canonical lines — the byte-identity probe.

    Two traces digest equal iff their headers (name, seed, tenants)
    and every event field agree; this is the value the scenario
    library pins per seed and the replay engines carry into their
    determinism digests. It is the sha256 of the written file minus its
    final newline, hashed in bounded chunks. A trace read from a
    canonical file returns the digest its reader took of the raw lines.
    """
    if trace._digest is not None:
        return trace._digest
    events = trace.events
    sha = hashlib.sha256(header_line(trace.header, len(events)).encode("ascii"))
    for chunk in _event_chunks(events):
        sha.update(chunk)
    return sha.hexdigest()


# -- schema validation ---------------------------------------------------

_EVENT_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("at", int), ("tenant", int), ("app", str), ("route", str), ("bytes", int),
)


def _fail(line_no: int, message: str) -> NoReturn:
    raise TraceFormatError(f"trace line {line_no}: {message}")


def _parse_header(line: str) -> TraceHeader:
    try:
        obj = json.loads(line)
    except ValueError as exc:
        _fail(1, f"header is not JSON ({exc})")
    if not isinstance(obj, dict) or obj.get("format") != TRACE_FORMAT:
        _fail(1, f"not a {TRACE_FORMAT} header: {line[:80]!r}")
    if obj.get("version") != TRACE_VERSION:
        _fail(1, f"unsupported version {obj.get('version')!r} (expected {TRACE_VERSION})")
    for key, kind in (("name", str), ("seed", int), ("tenants", int), ("events", int)):
        if not isinstance(obj.get(key), kind) or isinstance(obj.get(key), bool):
            _fail(1, f"header field {key!r} must be {kind.__name__}, got {obj.get(key)!r}")
    if obj["tenants"] <= 0:
        _fail(1, f"header declares {obj['tenants']} tenants; need at least one")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        _fail(1, "header meta must be an object")
    header = TraceHeader(
        name=obj["name"], seed=obj["seed"], tenants=obj["tenants"],
        events=obj["events"], meta=meta_pairs(meta),
    )
    try:
        trace_storage(header)
        trace_memory_mb(header)
    except TraceFormatError as exc:
        _fail(1, str(exc))
    return header


def _event_error(line: str, tenants: int, prev_at: int) -> str:
    """Why an event line fails the schema: the first failed check.

    The reader's per-line path accepts exactly the lines that pass
    every check here; a line it refuses is explained by this slow path.
    """
    try:
        obj = json.loads(line)
    except ValueError as exc:
        return f"event is not JSON ({exc})"
    if not isinstance(obj, dict):
        return "event must be a JSON object"
    for key, kind in _EVENT_REQUIRED:
        value = obj.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            return f"field {key!r} must be {kind.__name__}, got {value!r}"
    if obj["at"] < 0:
        return f"negative timestamp {obj['at']}"
    if obj["at"] < prev_at:
        return f"timestamps must be non-decreasing ({obj['at']} after {prev_at})"
    if not 0 <= obj["tenant"] < tenants:
        return f"tenant {obj['tenant']} outside [0, {tenants})"
    if obj["bytes"] < 0:
        return f"negative payload size {obj['bytes']}"
    actor = obj.get("actor", "")
    if not isinstance(actor, str):
        return f"actor must be a string, got {actor!r}"
    if not isinstance(obj.get("meta", {}), dict):
        return "event meta must be an object"
    raise AssertionError(f"the reader refused a valid event line: {line[:80]!r}")


def _validate(header: TraceHeader, events: List[TraceEvent]) -> None:
    if header.tenants <= 0:
        raise TraceFormatError("trace header declares no tenants")
    if header.events and header.events != len(events):
        raise TraceFormatError(
            f"header declares {header.events} events, trace holds {len(events)}"
        )
    prev = 0
    for index, event in enumerate(events):
        if event.at_micros < prev:
            raise TraceFormatError(
                f"event {index} at {event.at_micros} precedes its predecessor at {prev}"
            )
        prev = event.at_micros
        if not 0 <= event.tenant < header.tenants:
            raise TraceFormatError(
                f"event {index} names tenant {event.tenant} outside [0, {header.tenants})"
            )
        if event.payload_bytes < 0 or event.at_micros < 0:
            raise TraceFormatError(f"event {index} carries a negative quantity")


# -- disk I/O ------------------------------------------------------------

PathLike = Union[str, Path]

# What a damaged gzip stream raises mid-read: truncation, a file that is
# not gzip at all or fails its CRC, and corrupt deflate data.
_CORRUPT_GZIP = (EOFError, gzip.BadGzipFile, zlib.error)

# Decompressed bytes per read: a block is this much, cut after its last newline.
_BLOCK_BYTES = 1 << 20

# A canonical event line: exactly what the formatter writes for an event
# with no ``meta``, ``str`` names free of characters ``json.dumps``
# escapes, and ``int`` numbers of at most 19 digits. Keys come in sorted
# order and ``actor`` only when non-empty, so a line that matches is
# byte for byte the formatter's line for the event it decodes to. The
# groups are the ``actor``/``app`` prefix, at, bytes, route and tenant.
# A string's class excludes its closing quote, so its quantifiers are
# possessive: no backtracking can change a match, and none is tried.
_SAFE = rb'[ !#-\[\]-~]'  # printable ASCII but '"' and '\'
_NUMBER = rb'(0|[1-9][0-9]{0,18})'
_CANONICAL_LINE = re.compile(
    rb'^\{((?:"actor":"' + _SAFE + rb'++",)?"app":"' + _SAFE + rb'*+"),"at":' + _NUMBER
    + rb',"bytes":' + _NUMBER + rb',"route":"(' + _SAFE + rb'*+)","tenant":' + _NUMBER
    + rb'\}$',
    re.MULTILINE,
)
_PREFIX, _AT, _SIZE, _ROUTE, _TENANT = map(itemgetter, range(5))
# The header's terminator as a text-mode reader sees it: universal newlines.
_LINE_END = re.compile(rb'\r\n?|\n')

# ``json.loads`` minus its whitespace passes: the reader strips each line
# and checks that the object spans all of it.
_decode_json = json.JSONDecoder().raw_decode
# An absent event ``meta``: read only, never mutated.
_NO_META: Dict[str, object] = {}

# One block's events as columns: at, tenant, size, kind.
_BlockColumns = Tuple[List[int], List[int], List[int], List[int]]


@contextlib.contextmanager
def _open_write(path: Path) -> Iterator[BinaryIO]:
    with open(path, "wb") as raw:
        if path.suffix != ".gz":
            yield raw
            return
        # mtime=0 + empty filename: the gzip container itself is
        # byte-deterministic, not just the payload.
        with gzip.GzipFile(fileobj=raw, mode="wb", filename="", mtime=0) as out:
            yield out
            # A sync flush before the final block, as a text-mode writer's
            # close makes: traces keep the compressed bytes of such a writer.
            out.flush()


def _open_read(path: Path) -> BinaryIO:
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _blocks(handle: BinaryIO) -> Iterator[bytes]:
    """The file's bytes in blocks of whole lines, each ending in a newline.

    A final line with no newline gets one, so every block splits into
    lines the same way. ``read1`` hands over each piece as soon as it is
    decompressed, so a damaged stream still yields every whole line
    before the damage, then raises: its error names the first line not
    read whole, as a line-at-a-time reader's would.
    """
    rest = b""
    while True:
        pieces, fresh = [rest], 0
        try:
            while fresh < _BLOCK_BYTES:
                piece = handle.read1(_BLOCK_BYTES)
                if not piece:
                    break
                pieces.append(piece)
                fresh += len(piece)
        except _CORRUPT_GZIP:
            data = b"".join(pieces)
            cut = data.rfind(b"\n") + 1
            if cut:
                yield data[:cut]
            raise
        if not fresh:
            break
        data = b"".join(pieces)
        cut = data.rfind(b"\n") + 1
        rest = data[cut:]
        if cut:
            yield data[:cut]
    if rest:
        yield rest + b"\n"


def write_trace(path: PathLike, trace: Trace) -> int:
    """Write the trace canonically; returns the event count.

    The events must already be in canonical (time-sorted) order — use
    :func:`sort_events` after composing transforms. A ``.gz`` suffix
    compresses deterministically.
    """
    events = trace.events
    _validate(trace.header, events)
    path = Path(path)
    with _open_write(path) as out:
        out.write(header_line(trace.header, len(events)).encode("ascii"))
        for chunk in _event_chunks(events):
            out.write(chunk)
        out.write(b"\n")
    return len(events)


class _Tenants(dict):
    """Tenant ids keyed by their raw digits: one ``int`` per tenant, parsed once."""

    def __missing__(self, raw: bytes) -> int:
        self[raw] = tenant = int(raw)
        return tenant


class _RawKinds(dict):
    """Kind ids keyed by a canonical line's raw ``actor``/``app`` prefix and route."""

    def __init__(self, kinds: _Kinds):
        super().__init__()
        self._kinds = kinds

    def __missing__(self, raw: Tuple[bytes, bytes]) -> int:
        prefix, route = raw
        names = json.loads(b"{" + prefix + b"}")
        self[raw] = kind = self._kinds.add(
            names["app"], route.decode("ascii"), names.get("actor", ""), (),
        )
        return kind


class _TraceScan:
    """One validating pass over a trace file, a block of lines at a time.

    Iterating yields the header, then each block's events as columns
    ``(at, tenant, size, kind)`` whose kinds index :attr:`kinds`. Every
    check runs as the file is read (schema, monotone timestamps, tenant
    range, the declared event count), so a malformed file fails at the
    offending line with its number. Once the pass is over, :attr:`digest`
    is the trace digest when every event line was canonical, else
    ``None``.

    A block whose lines all match :data:`_CANONICAL_LINE` is decoded by
    one ``findall`` and checked over its columns. Any other block, and a
    canonical block that fails a check, goes line by line through
    ``raw_decode`` and exact-type checks, and :func:`_event_error` names
    a refused line — the same messages and line numbers either way.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self.kinds = _Kinds()
        self.digest: Optional[str] = None
        self._raw_kinds = _RawKinds(self.kinds)
        self._tenants = _Tenants()

    def __iter__(self) -> Iterator[Union[TraceHeader, _BlockColumns]]:
        path = self.path
        handle = _open_read(path)
        line_no = 0  # the last line read whole
        try:
            with handle:
                blocks = _blocks(handle)
                first = next(blocks, b"")
                end = _LINE_END.search(first)
                line = first[:end.start()].decode("latin-1") if end else ""
                rest = first[end.end():] if end else b""
                line_no = 1
                if not line.isascii():
                    raise TraceFormatError(f"{path}: line 1: non-ASCII byte in trace")
                if not line.strip():
                    raise TraceFormatError(f"{path}: empty trace file")
                header = _parse_header(line.strip())
                yield header
                sha = hashlib.sha256(header_line(header, header.events).encode("ascii"))
                prev_at = count = 0
                for block in itertools.chain((rest,), blocks):
                    if not block:
                        continue
                    columns = self._canonical(block, prev_at, header.tenants)
                    if columns is not None:
                        lines = len(columns[0])
                        if sha is not None:
                            sha.update(b"\n")
                            sha.update(memoryview(block)[:-1])
                    else:
                        sha = None
                        columns, lines = self._line_by_line(
                            block, line_no, prev_at, header.tenants,
                        )
                    line_no += lines
                    if columns[0]:
                        prev_at = columns[0][-1]
                        count += len(columns[0])
                        yield columns
                if header.events != count:
                    raise TraceFormatError(
                        f"{path}: header declares {header.events} events, file holds {count}"
                    )
                self.digest = sha.hexdigest() if sha is not None else None
        except _CORRUPT_GZIP as exc:
            raise TraceFormatError(
                f"{path}: line {line_no + 1}: corrupt gzip stream ({exc})"
            ) from exc

    def _canonical(self, block: bytes, prev_at: int, tenants: int) -> Optional[_BlockColumns]:
        """The block's columns if every line is canonical and passes; else ``None``."""
        matches = _CANONICAL_LINE.findall(block)
        if len(matches) != block.count(b"\n"):
            return None
        at = list(map(int, map(_AT, matches)))
        tenant = list(map(self._tenants.__getitem__, map(_TENANT, matches)))
        # The pattern admits no negative number, so these are the only
        # checks left: timestamps non-decreasing, also across blocks, and
        # the tenant range.
        if at[0] < prev_at or at != sorted(at) or max(tenant) >= tenants:
            return None
        kind = list(map(self._raw_kinds.__getitem__,
                        zip(map(_PREFIX, matches), map(_ROUTE, matches))))
        return at, tenant, list(map(int, map(_SIZE, matches))), kind

    def _line_by_line(
        self, block: bytes, line_no: int, prev_at: int, tenants: int,
    ) -> Tuple[_BlockColumns, int]:
        """The block decoded one line at a time; returns its columns and line count.

        Lines split as a text-mode reader splits them (``\\n``, ``\\r\\n``
        or ``\\r``), and each is decoded once and checked by exact type.
        """
        # Latin-1 maps every byte to one character, so a non-ASCII byte
        # reaches the line check as a character it can place on its line.
        lines = block.decode("latin-1").replace("\r\n", "\n").replace("\r", "\n").split("\n")
        lines.pop()  # the empty text after the block's final newline
        at_col: List[int] = []
        tenant_col: List[int] = []
        size_col: List[int] = []
        kind_col: List[int] = []
        add_kind = self.kinds.add
        for line_no, line in enumerate(lines, start=line_no + 1):
            if not line.isascii():
                raise TraceFormatError(f"{self.path}: line {line_no}: non-ASCII byte in trace")
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _decode_json(line)
                at, tenant, size = obj["at"], obj["tenant"], obj["bytes"]
                app, route = obj["app"], obj["route"]
                actor, meta = obj.get("actor", ""), obj.get("meta", _NO_META)
            except (ValueError, KeyError, TypeError):
                end = -1
            if not (end == len(line) and type(at) is int and type(tenant) is int
                    and type(size) is int and type(app) is str and type(route) is str
                    and type(actor) is str and type(meta) is dict
                    and prev_at <= at and 0 <= tenant < tenants and size >= 0):
                _fail(line_no, _event_error(line, tenants, prev_at))
            at_col.append(at)
            tenant_col.append(tenant)
            size_col.append(size)
            kind_col.append(add_kind(app, route, actor, meta_pairs(meta)))
            prev_at = at
        return (at_col, tenant_col, size_col, kind_col), len(lines)


def iter_trace(path: PathLike) -> Iterator[Union[TraceHeader, TraceEvent]]:
    """Stream a trace file: yields the header first, then each event.

    Validation happens as the file is read (schema, monotone
    timestamps, tenant range), so a malformed file fails at the
    offending line with its number instead of producing a half-parsed
    workload. A corrupt file (truncated or non-gzip ``.gz``, a
    non-ASCII byte) fails with :class:`TraceFormatError` naming the path
    and the line. Events come from the same blocks :func:`read_trace`
    reads, so a bad line fails before any event of its block.
    """
    scan = _TraceScan(path)
    blocks = iter(scan)
    yield next(blocks)
    for columns in blocks:
        yield from _column_events(scan.kinds.kinds, *columns)


def read_trace(path: PathLike) -> Trace:
    """Read and validate a whole trace file into a columnar :class:`Trace`."""
    scan = _TraceScan(path)
    blocks = iter(scan)
    header = next(blocks)
    columns = TraceColumns([], [], [], [], scan.kinds.kinds)
    for at, tenant, size, kind in blocks:
        columns.at += at
        columns.tenant += tenant
        columns.size += size
        columns.kind += kind
    return Trace.from_columns(header, columns, scan.digest)
