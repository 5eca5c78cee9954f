"""The versioned trace format: recorded request streams on disk.

A **trace** is the unit of workload portability: a header plus the
requests, ordered by virtual arrival time. Everything the replay engines
need to re-drive a workload — tenant, application, route, payload size,
the issuing device — travels in the trace; anything else rides in
``meta``. A trace file (version 2) is:

* one ASCII JSON **header line**: ``format``, ``version``, ``name``,
  ``seed``, ``tenants``, ``events``, ``meta`` (omitted when empty) and
  ``kinds``, the trace's distinct ``[app, route, actor, meta]`` in
  :class:`KindTable` order;
* then **blocks** of at most ``_BLOCK_EVENTS`` events. A block is its
  event count, then four columns of that many values: each event's step
  in ``at`` from the event before it (the first event's from 0), its
  tenant, its payload size and its index into ``kinds``. Every number is
  a little-endian int64.

A file's version is read from its header, whatever its suffix; a file of
another version (the JSON-lines text of version 1, say) raises
:class:`TraceFormatError` naming the path and the version. A ``*.gz``
path is deflated through :class:`gzip.GzipFile` at ``_GZIP_LEVEL``
(zlib's default) with ``mtime=0`` and an empty filename, so equal
traces write equal bytes, compressed or not. This module is the only
one in ``src/repro`` that parses trace files or uses :mod:`gzip` or
:mod:`zlib` (``make lint``).

:func:`read_trace` decodes each column with one C-level call — under
numpy ``np.frombuffer`` over the joined bytes, else ``array("q")`` — and
checks it with C-level passes: steps and sizes not negative, no arrival
time at or past ``2**63``, tenants in ``[0, tenants)``, kind ids in
``[0, len(kinds))``, and block counts of at most ``_BLOCK_EVENTS`` that
sum to the header's. A truncated or corrupt file, trailing bytes and a
count that disagrees with the header raise :class:`TraceFormatError`
naming the path; a value out of range also names its event, in
:func:`_validate`'s words. A trace read under numpy keeps
int64 columns for the sharded replay (:meth:`Trace.readonly_columns`);
without numpy its columns are lists of ``int``.

The **digest** is not taken over the file. :func:`trace_digest` is the
sha256 of the trace's canonical JSON-lines text: :func:`header_line`
(which names version 1, the text's version) and one :func:`event_line`
per event, with sorted keys, compact separators and defaults omitted.
The scenario goldens and the benchmark pin that text digest, so it is
the same for a trace however it is stored. It is formatted in chunks of
``_CHUNK_LINES`` lines, one ``%`` template per kind, and a column-backed
trace keeps it until its columns, events or header change hands.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import itertools
import json
import operator
import sys
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro._optional import numpy_or_none
from repro.errors import ConfigurationError
from repro.plan import DEFAULT_PLAN, DeploymentPlan
from repro.sim.fold import HANDLER_MEMORY_MB, plan_memory_mb
from repro.sim.shard import DEFAULT_CHUNK_EVENTS, DEFAULT_LATENCY_SAMPLES, DEFAULT_LOGICAL_SHARDS

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "DEFAULT_MEMORY_MB",
    "PLAN_META_DEFAULTS",
    "TraceFormatError",
    "TraceEvent",
    "TraceHeader",
    "KindTable",
    "TraceColumns",
    "Trace",
    "sort_events",
    "event_line",
    "header_line",
    "trace_digest",
    "plan_meta",
    "trace_plan",
    "LATENCY_STREAMS",
    "TraceEngine",
    "engine_meta",
    "trace_engine",
    "write_trace",
    "read_trace",
]

TRACE_FORMAT = "repro-trace"
# The version a trace file's header names; :func:`read_trace` reads no other.
TRACE_VERSION = 2
# The version the canonical text's header line names. The digest hashes
# that text, and every pinned digest was taken with this version in it.
_TEXT_VERSION = 1
# The Lambda memory size a header with no ``memory_mb`` meta was
# recorded at.
DEFAULT_MEMORY_MB = HANDLER_MEMORY_MB
# Each plan field a header records, as a flat meta key, and the value a
# header without the key was recorded at. Only other values are written,
# so default traces keep their seed-era bytes.
PLAN_META_DEFAULTS = {
    "storage": DEFAULT_PLAN.storage,
    "memory_mb": DEFAULT_MEMORY_MB,
    "price_book": DEFAULT_PLAN.price_book,
}


# A sharded replay's latency namespaces, ``<stream>/shard-<id>/latency``:
# the replayer's own, and the one the sharded fleet records with.
LATENCY_STREAMS = ("replay", "fleet")


class TraceFormatError(ConfigurationError):
    """A trace file or event violated the schema."""


@dataclass(frozen=True)
class TraceEvent:
    """One recorded operation: who asked what, when, and how big.

    ``at_micros`` is virtual time; ``tenant`` indexes the dense tenant
    space declared by the header; ``actor`` names the device or user
    that issued the op (empty when the recorder couldn't tell).
    ``meta`` is a sorted tuple of ``(key, value)`` pairs so events stay
    hashable and serialize canonically; a mapping (or ``None``) given for
    it is normalized with :func:`meta_pairs`, as :class:`TraceHeader`
    does, so an event equals the one its line reads back as.
    """

    at_micros: int
    tenant: int
    app: str = "fleet"
    route: str = "/fleet/request"
    payload_bytes: int = 2048
    actor: str = ""
    meta: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if not isinstance(self.meta, tuple):
            object.__setattr__(self, "meta", meta_pairs(self.meta))

    def meta_dict(self) -> Dict[str, object]:
        return dict(self.meta)


@dataclass(frozen=True)
class TraceHeader:
    """The trace's identity line: where it came from and what it holds.

    ``meta`` is a sorted tuple of ``(key, value)`` pairs; a mapping (or
    ``None``) given for it is normalized with :func:`meta_pairs`, so a
    header equals, and hashes like, the one its line reads back as.
    """

    name: str
    seed: int
    tenants: int
    events: int = 0
    meta: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if not isinstance(self.meta, tuple):
            object.__setattr__(self, "meta", meta_pairs(self.meta))

    def meta_dict(self) -> Dict[str, object]:
        return dict(self.meta)


# One distinct ``(app, route, actor, meta)`` of a trace: an event's non-number fields.
Kind = Tuple[str, str, str, Tuple[Tuple[str, object], ...]]


def _own_kind(app: object, route: object, actor: object, meta: object) -> bool:
    """Whether each event with these fields gets a kind of its own.

    It does when it carries ``meta``, whose values need not be hashable,
    or a name that is not a ``str``: ``1`` and ``True`` hash and compare
    equal but encode differently, so such names are never merged.
    """
    return bool(meta) or not (type(app) is str and type(route) is str and type(actor) is str)


class KindTable:
    """A trace's distinct kinds, numbered in order of first appearance.

    Events with ``str`` names and no ``meta`` share the kind of their
    ``(app, route, actor)``; any other event gets a kind of its own
    (:func:`_own_kind`). Every producer numbers kinds this way, so two
    traces' columns are equal exactly when their events are.
    """

    def __init__(self):
        self.kinds: List[Kind] = []
        self._ids: Dict[Tuple[str, str, str], int] = {}

    def add(self, app: str, route: str, actor: str, meta: Tuple[Tuple[str, object], ...]) -> int:
        if _own_kind(app, route, actor, meta):
            self.kinds.append((app, route, actor, meta or ()))
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
    :class:`KindTable` for which events share one). The columns are
    lists of ``int``, except inside a :class:`Trace` that
    :func:`read_trace` decoded under numpy, which holds them as int64
    arrays until it hands them out (:meth:`Trace.columns`).
    """

    at: List[int]
    tenant: List[int]
    size: List[int]
    kind: List[int]
    kinds: List[Kind]

    @classmethod
    def from_events(cls, events: List[TraceEvent]) -> "TraceColumns":
        kinds = KindTable()
        add = kinds.add
        return cls(
            [e.at_micros for e in events], [e.tenant for e in events],
            [e.payload_bytes for e in events],
            [add(e.app, e.route, e.actor, e.meta) for e in events], kinds.kinds,
        )

    @classmethod
    def canonical(
        cls, at: List[int], tenant: List[int], size: List[int], kind: List[int], kinds: List[Kind],
    ) -> "TraceColumns":
        """Columns whose ``kind`` indexes ``kinds``, renumbered as :meth:`from_events` numbers them.

        Kinds are merged by value and numbered by first appearance in
        ``kind``, and a kind of its own (one with ``meta``, say) gets a
        fresh number at each appearance, so a transform may copy,
        concatenate or reorder kind ids freely and still build the
        columns of the events it means.
        """
        table = KindTable()
        distinct = dict.fromkeys(kind)
        if any(_own_kind(*kinds[k]) for k in distinct):
            kind = [table.add(*kinds[k]) for k in kind]
        else:
            ids = {k: table.add(*kinds[k]) for k in distinct}
            kind = list(map(ids.__getitem__, kind))
        return cls(at, tenant, size, kind, table.kinds)

    def own_kinds(self) -> bool:
        """Whether some kind is an event's own (:func:`_own_kind`), which no copy may share."""
        return any(_own_kind(*kind) for kind in self.kinds)

    def time_sorted(self) -> "TraceColumns":
        """The columns in canonical order: a stable sort by ``at``."""
        order = sorted(range(len(self.at)), key=self.at.__getitem__)

        def take(column: List[int]) -> List[int]:
            return list(map(column.__getitem__, order))

        return TraceColumns.canonical(
            take(self.at), take(self.tenant), take(self.size), take(self.kind), self.kinds,
        )

    def __len__(self) -> int:
        return len(self.at)

    def lists(self) -> "TraceColumns":
        """These columns with every column a list of ``int`` (itself when they are)."""
        if type(self.at) is list:
            return self
        return TraceColumns(
            *map(_as_list, (self.at, self.tenant, self.size, self.kind)), self.kinds,
        )

    def events(self) -> List[TraceEvent]:
        columns = self.lists()
        return list(_column_events(
            columns.kinds, columns.at, columns.tenant, columns.size, columns.kind,
        ))


def _as_list(column) -> List[int]:
    """A column as a list of ``int``: itself, or an int64 array's ``tolist()``."""
    return column if type(column) is list else column.tolist()


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

    * built from an events list (the scenario library's generators),
      the list is the truth; :meth:`columns` derives columns from it
      afresh on every call, since whoever holds the list may change it;
    * built from columns (the recorder, the transforms,
      :func:`read_trace`), the columns are the truth, and
      :func:`trace_digest` keeps the digest it takes. The first access to
      :attr:`events` builds the list from the columns; from then on that
      list is the truth and the column and digest caches are dropped,
      so editing it (``trace.events.reverse()``) is always seen.
      Handing out the columns (:meth:`columns`) or assigning a new
      :attr:`header` drops the digest too.

    A trace :func:`read_trace` decoded under numpy keeps its columns as
    int64 arrays: :meth:`readonly_columns` passes them to the sharded
    replay as they are, and :meth:`columns`, :attr:`events` and
    :func:`write_trace` see lists of exact ``int`` built from them once.

    :meth:`validate` checks a column-backed trace once, as
    :func:`read_trace` does what it reads, and keeps the proof until the
    trace hands out its columns or events or takes a new header; an
    events-backed trace is checked on every call.
    """

    def __init__(self, header: TraceHeader, events: Optional[List[TraceEvent]] = None):
        self._header = header
        self._events: Optional[List[TraceEvent]] = [] if events is None else events
        self._columns: Optional[TraceColumns] = None
        self._digest: Optional[str] = None
        self._proven = False

    @classmethod
    def from_columns(cls, header: TraceHeader, columns: TraceColumns) -> "Trace":
        """A trace whose truth is ``columns``."""
        trace = cls(header)
        trace._events, trace._columns = None, columns
        return trace

    @property
    def header(self) -> TraceHeader:
        return self._header

    @header.setter
    def header(self, header: TraceHeader) -> None:
        self._header, self._digest, self._proven = header, None, False

    @property
    def events(self) -> List[TraceEvent]:
        if self._events is None:
            self._events = self._columns.events()
            self._columns = self._digest = None
            self._proven = False
        return self._events

    @events.setter
    def events(self, events: List[TraceEvent]) -> None:
        self._events, self._columns, self._digest, self._proven = events, None, None, False

    def columns(self) -> TraceColumns:
        if self._events is not None:
            return TraceColumns.from_events(self._events)
        self._proven, self._digest = False, None  # the caller may edit the columns
        self._columns = self._columns.lists()
        return self._columns

    def readonly_columns(self) -> TraceColumns:
        """The columns for a caller that edits none: arrays stay arrays, and the proof stays."""
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
            return int(self._columns.at[-1] - self._columns.at[0])
        return self._events[-1].at_micros - self._events[0].at_micros

    def validate(self) -> "Trace":
        if not self._proven:
            _validate(self.header, self.columns())
            self._proven = self._events is None  # whoever holds a list may edit it
        return self


def plan_meta(plan: DeploymentPlan) -> Dict[str, object]:
    """The header meta keys that record ``plan``: each billing field off its default.

    The keys stay flat (``storage``, ``memory_mb``, ``price_book``) and
    a default value is left out, so a default plan adds nothing and
    every trace written before the price book was recorded reads back
    through :func:`trace_plan` unchanged.
    """
    billed = {"storage": plan.storage, "memory_mb": plan_memory_mb(plan),
              "price_book": plan.price_book}
    return {key: value for key, value in billed.items() if value != PLAN_META_DEFAULTS[key]}


def trace_plan(header: TraceHeader) -> DeploymentPlan:
    """The plan the trace's run billed, from the header's flat meta keys.

    A missing key is the default plan's value: S3, the handler's 448 MB
    (``memory_mb`` unset), the 2017 price book. A value no plan accepts
    raises :class:`TraceFormatError`.
    """
    meta = header.meta_dict()
    memory = meta.get("memory_mb", DEFAULT_MEMORY_MB)
    if type(memory) is not int or memory <= 0:
        raise TraceFormatError(f"trace meta memory_mb must be a positive int, got {memory!r}")
    try:
        return DeploymentPlan(**{key: meta[key] for key in PLAN_META_DEFAULTS if key in meta})
    except ConfigurationError as exc:
        raise TraceFormatError(f"trace meta {exc}") from None


@dataclass(frozen=True)
class TraceEngine:
    """How the sharded replay draws a trace: what reproduces the run that recorded it."""

    latency_stream: str = "replay"
    chunk_events: int = DEFAULT_CHUNK_EVENTS
    logical_shards: int = DEFAULT_LOGICAL_SHARDS
    sample_stride: int = 1

    @staticmethod
    def default(events: int) -> "TraceEngine":
        """What a header without engine keys replays ``events`` events with."""
        return TraceEngine(sample_stride=max(1, events // DEFAULT_LATENCY_SAMPLES))


def engine_meta(engine: TraceEngine, events: int) -> Dict[str, object]:
    """The flat header meta keys that record ``engine``: like :func:`plan_meta`, no defaults."""
    default = vars(TraceEngine.default(events))
    return {key: value for key, value in vars(engine).items() if value != default[key]}


def trace_engine(header: TraceHeader, events: Optional[int] = None) -> TraceEngine:
    """How to replay a trace of ``events`` events (default: the header's count).

    A missing key is the default; a count that is not a positive ``int``,
    or a stream not in :data:`LATENCY_STREAMS`, raises :class:`TraceFormatError`.
    """
    meta = header.meta_dict()
    default = TraceEngine.default(header.events if events is None else events)
    values = {key: meta.get(key, value) for key, value in vars(default).items()}
    for key, value in values.items():
        if key == "latency_stream":
            if not (type(value) is str and value in LATENCY_STREAMS):
                raise TraceFormatError(
                    f"trace meta latency_stream must be one of {LATENCY_STREAMS}, got {value!r}"
                )
        elif type(value) is not int or value <= 0:
            raise TraceFormatError(f"trace meta {key} must be a positive int, got {value!r}")
    return TraceEngine(**values)


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

# Lines per hashed chunk: bounds the memory of a digest to a few
# hundred KiB whatever the trace's length.
_CHUNK_LINES = 4096

# ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, with its encoder built once.
_dumps_sorted = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _line_object(kind: Kind, at: int, tenant: int, size: int) -> Dict[str, object]:
    """An event as the JSON object its line encodes (defaults omitted)."""
    app, route, actor, meta = kind
    obj: Dict[str, object] = {"at": at, "tenant": tenant, "app": app, "route": route, "bytes": size}
    if actor:
        obj["actor"] = actor
    if meta:
        obj["meta"] = dict(meta)
    return obj


class _TemplateStrings(dict):
    """Each distinct string's JSON encoding with ``%`` escaped, computed on first use."""

    def __missing__(self, text: str) -> str:
        self[text] = encoded = json.dumps(text).replace("%", "%%")
        return encoded


def _line_template(kind: Kind, strings: _TemplateStrings) -> str:
    """The kind's line as a ``%`` template: ``%d`` for at, bytes and tenant, in key order."""
    app, route, actor, meta = kind

    def encoded(value: object) -> str:
        if type(value) is str:
            return strings[value]
        return _dumps_sorted(value).replace("%", "%%")

    head = f'{{"actor":{encoded(actor)},"app":' if actor else '{"app":'
    tail = f',"meta":{encoded(dict(meta))},"route":' if meta else ',"route":'
    return f'\n{head}{encoded(app)},"at":%d,"bytes":%d{tail}{encoded(route)},"tenant":%d}}'


def _column_chunks(columns: TraceColumns) -> Iterator[str]:
    """The one canonical formatter: the event lines in chunks, each line preceded by a newline.

    A line is ``_dumps_sorted(_line_object(...))`` byte for byte. Each
    kind becomes one ``%`` template, and a chunk of ``int`` numbers is
    filled by one ``%`` over its interleaved at, bytes and tenant
    values. In a chunk holding any number of another type (a ``bool``,
    a float), the lines with one go through ``json.dumps`` itself.
    Int64 array columns are turned into ``int`` a chunk at a time, so no
    whole-trace list is built.
    """
    strings = _TemplateStrings()
    templates = [_line_template(kind, strings) for kind in columns.kinds]
    for lo in range(0, len(columns), _CHUNK_LINES):
        hi = lo + _CHUNK_LINES
        at, size, tenant, kind = (
            _as_list(column[lo:hi])
            for column in (columns.at, columns.size, columns.tenant, columns.kind)
        )
        if set(map(type, at)) | set(map(type, size)) | set(map(type, tenant)) == {int}:
            values = [0] * (3 * len(at))
            values[0::3], values[1::3], values[2::3] = at, size, tenant
            yield "".join(map(templates.__getitem__, kind)) % tuple(values)
            continue
        yield "".join(
            templates[k] % (a, s, t)
            if type(a) is int and type(s) is int and type(t) is int
            else "\n" + _dumps_sorted(_line_object(columns.kinds[k], a, t, s))
            for a, s, t, k in zip(at, size, tenant, kind)
        )


def event_line(event: TraceEvent) -> str:
    """The event's one canonical JSON line (defaults omitted)."""
    return next(_column_chunks(TraceColumns.from_events([event])))[1:]


def header_line(header: TraceHeader, events: int) -> str:
    """The canonical text's header line, the first line :func:`trace_digest` hashes."""
    obj: Dict[str, object] = {
        "format": TRACE_FORMAT,
        "version": _TEXT_VERSION,
        "name": header.name,
        "seed": header.seed,
        "tenants": header.tenants,
        "events": events,
    }
    if header.meta:
        obj["meta"] = dict(header.meta)
    return _dumps_sorted(obj)


def trace_digest(trace: Trace) -> str:
    """sha256 over the canonical text lines — the byte-identity probe.

    Two traces digest equal iff their headers (name, seed, tenants)
    and every event field agree; this is the value the scenario
    library pins per seed and the replay engines carry into their
    determinism digests. It hashes :func:`header_line` and each
    :func:`event_line`, joined by newlines, in bounded chunks, whatever
    the trace's storage; a column-backed trace keeps it (see :class:`Trace`).
    """
    if trace._digest is not None:
        return trace._digest
    columns = trace.readonly_columns()
    sha = hashlib.sha256(header_line(trace.header, len(columns)).encode("ascii"))
    for chunk in _column_chunks(columns):
        sha.update(chunk.encode("ascii"))
    digest = sha.hexdigest()
    if trace._events is None:
        trace._digest = digest
    return digest


# -- schema validation ---------------------------------------------------

def _validate(header: TraceHeader, columns: TraceColumns) -> None:
    """Check a trace's columns: C-level passes, then one slow pass to word a failure."""
    if header.tenants <= 0:
        raise TraceFormatError("trace header declares no tenants")
    if header.events and header.events != len(columns):
        raise TraceFormatError(
            f"header declares {header.events} events, trace holds {len(columns)}"
        )
    trace_plan(header)
    trace_engine(header, len(columns))
    at, tenant, size, kind = columns.at, columns.tenant, columns.size, columns.kind
    if not len(at) == len(tenant) == len(size) == len(kind):
        raise TraceFormatError("trace columns differ in length")
    if not at:
        return
    # Numbers must be exactly ``int``: a float or a bool would change the
    # digest's text, and the writer packs them as int64.
    if not ({*map(type, at), *map(type, tenant), *map(type, size)} == {int}
            and at[0] >= 0 and at == sorted(at) and 0 <= min(tenant)
            and max(tenant) < header.tenants and min(size) >= 0):
        prev = 0
        for index, numbers in enumerate(zip(at, tenant, size)):
            for key, value in zip(("at", "tenant", "bytes"), numbers):
                if type(value) is not int:
                    raise TraceFormatError(
                        f"event {index}: field {key!r} must be int, got {value!r}"
                    )
            at_micros, tenant_id, payload = numbers
            if payload < 0 or at_micros < 0:
                raise TraceFormatError(f"event {index} carries a negative quantity")
            if at_micros < prev:
                raise TraceFormatError(
                    f"event {index} at {at_micros} precedes its predecessor at {prev}"
                )
            prev = at_micros
            if not 0 <= tenant_id < header.tenants:
                raise TraceFormatError(
                    f"event {index} names tenant {tenant_id} outside [0, {header.tenants})"
                )
    if not (0 <= min(kind) and max(kind) < len(columns.kinds)):
        raise TraceFormatError(f"trace kind ids must index its {len(columns.kinds)} kinds")
    # Names are checked once per kind; a kind no event uses is never written.
    for kind_id, (app, route, actor, _meta) in enumerate(columns.kinds):
        if (isinstance(app, str) and isinstance(route, str) and isinstance(actor, str)
                or kind_id not in kind):
            continue
        index = kind.index(kind_id)
        for key, value in (("app", app), ("route", route)):
            if not isinstance(value, str):
                raise TraceFormatError(
                    f"event {index}: field {key!r} must be str, got {value!r}"
                )
        raise TraceFormatError(f"event {index}: actor must be a string, got {actor!r}")



# -- disk I/O ------------------------------------------------------------

PathLike = Union[str, Path]

# What a damaged gzip stream raises mid-read: truncation, a file that is
# not gzip at all or fails its CRC, and corrupt deflate data.
_CORRUPT_GZIP = (EOFError, gzip.BadGzipFile, zlib.error)

# The deflate level of every written ``.gz`` trace: zlib's own default
# (``Z_DEFAULT_COMPRESSION``), not gzip's 9, which deflates several times
# slower for a file barely smaller.
_GZIP_LEVEL = 6

# Events per written block: 2 MiB of columns, the unit a reader takes at once.
_BLOCK_EVENTS = 1 << 16

# Every column value is an int64: arrival times, tenants and sizes at or
# past this do not fit a trace file.
_INT64_LIMIT = 1 << 63
_INT64 = 8  # bytes per value
_COLUMNS = 4  # at steps, tenant, size, kind


@contextlib.contextmanager
def _open_write(path: Path) -> Iterator[BinaryIO]:
    with open(path, "wb") as raw:
        if path.suffix != ".gz":
            yield raw
            return
        # mtime=0 + empty filename: the gzip container itself is
        # byte-deterministic, not just the payload.
        with gzip.GzipFile(fileobj=raw, mode="wb", compresslevel=_GZIP_LEVEL,
                           filename="", mtime=0) as out:
            yield out
            # A sync flush before the final block, so the compressed
            # bytes do not depend on how the writes were split.
            out.flush()


def _open_read(path: Path) -> BinaryIO:
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _int64_bytes(column) -> bytes:
    """A column of int64-range ``int`` (a list) or an int64 array, as little-endian bytes."""
    if type(column) is not list:
        return column.astype("<i8").tobytes()
    packed = array("q", column)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


def _file_header(header: TraceHeader, events: int, kinds: List[Kind]) -> bytes:
    """The header line of a version-2 file."""
    obj: Dict[str, object] = {
        "format": TRACE_FORMAT, "version": TRACE_VERSION, "name": header.name,
        "seed": header.seed, "tenants": header.tenants, "events": events,
        "kinds": [[app, route, actor, dict(meta)] for app, route, actor, meta in kinds],
    }
    if header.meta:
        obj["meta"] = dict(header.meta)
    return _dumps_sorted(obj).encode("ascii") + b"\n"


def write_trace(path: PathLike, trace: Trace) -> int:
    """Write the trace as a version-2 file; returns the event count.

    The events must already be in canonical (time-sorted) order — use
    :func:`sort_events` after composing transforms. The kind table is
    written in :class:`KindTable` order with only the kinds some event
    uses, so equal traces write equal bytes. A number that does not fit
    an int64 raises :class:`TraceFormatError` before the file is opened.
    """
    columns = trace.validate().readonly_columns()
    at = columns.at
    if type(at) is list:
        for key, column in (("at", at), ("tenant", columns.tenant), ("bytes", columns.size)):
            if column and max(column) >= _INT64_LIMIT:
                index = next(i for i, value in enumerate(column) if value >= _INT64_LIMIT)
                raise TraceFormatError(
                    f"event {index}: field {key!r} is {column[index]}, "
                    f"not below 2**63 as a trace file's int64 columns need"
                )
        steps = at[:1] + list(map(operator.sub, itertools.islice(at, 1, None), at))
    else:
        steps = numpy_or_none().diff(at, prepend=0)
    table = TraceColumns.canonical(at, columns.tenant, columns.size, _as_list(columns.kind),
                                   columns.kinds)
    path = Path(path)
    with _open_write(path) as out:
        out.write(_file_header(trace.header, len(table), table.kinds))
        for lo in range(0, len(table), _BLOCK_EVENTS):
            hi = min(lo + _BLOCK_EVENTS, len(table))
            out.write((hi - lo).to_bytes(_INT64, "little"))
            for column in (steps, table.tenant, table.size, table.kind):
                out.write(_int64_bytes(column[lo:hi]))
    return len(table)


def _parse_header(line: bytes) -> Tuple[TraceHeader, List[Kind]]:
    """The header and kind table of a version-2 header line; raises ``TraceFormatError`` without the path."""
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise TraceFormatError(f"header is not JSON ({exc})") from None
    if not isinstance(obj, dict) or obj.get("format") != TRACE_FORMAT:
        raise TraceFormatError(f"not a {TRACE_FORMAT} header: {line[:80]!r}")
    if obj.get("version") != TRACE_VERSION:
        raise TraceFormatError(
            f"trace version {obj.get('version')!r} is not supported; this reader reads "
            f"version {TRACE_VERSION}"
        )
    for key, kind in (("name", str), ("seed", int), ("tenants", int), ("events", int)):
        if not isinstance(obj.get(key), kind) or isinstance(obj.get(key), bool):
            raise TraceFormatError(
                f"header field {key!r} must be {kind.__name__}, got {obj.get(key)!r}"
            )
    if obj["tenants"] <= 0:
        raise TraceFormatError(f"header declares {obj['tenants']} tenants; need at least one")
    if obj["events"] < 0:
        raise TraceFormatError(f"header declares {obj['events']} events")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise TraceFormatError("header meta must be an object")
    kinds = obj.get("kinds")
    if not isinstance(kinds, list):
        raise TraceFormatError(f"header kinds must be a list, got {kinds!r}")
    for kind in kinds:
        if not (isinstance(kind, list) and len(kind) == 4
                and all(type(name) is str for name in kind[:3]) and type(kind[3]) is dict):
            raise TraceFormatError(
                f"header kind must be [app, route, actor, meta] with str names, got {kind!r}"
            )
    header = TraceHeader(
        name=obj["name"], seed=obj["seed"], tenants=obj["tenants"],
        events=obj["events"], meta=meta,
    )
    trace_plan(header)
    trace_engine(header)
    return header, [(app, route, actor, meta_pairs(meta)) for app, route, actor, meta in kinds]


def _read_exact(handle: BinaryIO, size: int, what: str) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise TraceFormatError(f"truncated: {what} ends after {len(data)} of {size} bytes")
    return data


def _read_column_bytes(handle: BinaryIO, events: int) -> List[bytes]:
    """The file's blocks after the header, joined into one little-endian run per column."""
    pieces: List[List[memoryview]] = [[] for _ in range(_COLUMNS)]
    done = 0
    while done < events:
        count = int.from_bytes(_read_exact(handle, _INT64, f"block at event {done}"),
                               "little", signed=True)
        # Checked before the block is read, so a count from a damaged
        # file never sizes a read.
        if not 0 < count <= min(_BLOCK_EVENTS, events - done):
            raise TraceFormatError(
                f"block at event {done} holds {count} events; a block holds 1 to "
                f"{_BLOCK_EVENTS} and the header declares {events} in all"
            )
        width = count * _INT64
        data = memoryview(_read_exact(handle, _COLUMNS * width, f"block at event {done}"))
        for column in range(_COLUMNS):
            pieces[column].append(data[column * width:(column + 1) * width])
        done += count
    if handle.read(1):
        raise TraceFormatError(f"trailing bytes after the header's {events} events")
    return [b"".join(column) for column in pieces]


def _decode(np, raw: bytes):
    """One column's little-endian int64 bytes: an int64 array under numpy, else ``array("q")``."""
    if np is not None:
        return np.frombuffer(raw, dtype="<i8")
    column = array("q")
    column.frombytes(raw)
    if sys.byteorder == "big":
        column.byteswap()
    return column


def _column_error(header: TraceHeader, kinds: List[Kind], steps, tenant, size, kind) -> str:
    """Why decoded columns fail :func:`_check_columns`, in :func:`_validate`'s words.

    Only the int64 bound on arrival times is the file's own: a built
    trace may hold later ones, so :func:`_validate` does not refuse them.
    """
    at = list(itertools.accumulate(_as_list(steps)))
    try:
        _validate(header, TraceColumns(at, *map(_as_list, (tenant, size, kind)), kinds))
    except TraceFormatError as exc:
        return str(exc)
    index = next(i for i, value in enumerate(at) if value >= _INT64_LIMIT)
    return f"event {index}: arrival time {at[index]} is not below 2**63"


def _check_columns(np, header: TraceHeader, kinds: int, steps, at, tenant, size, kind) -> bool:
    """Whether decoded columns hold a valid trace: a few C-level passes each.

    Under numpy ``at`` is the int64 running sum of ``steps``, which wraps
    past ``2**63``: with every step at least 0, the first sum past it
    wraps negative, so ``min(at) >= 0`` holds exactly when none wraps.
    """
    low, high = (np.min, np.max) if np is not None else (min, max)
    return (not len(steps)
            or (low(steps) >= 0 and low(at) >= 0 and high(at) < _INT64_LIMIT
                and low(tenant) >= 0 and high(tenant) < header.tenants and low(size) >= 0
                and low(kind) >= 0 and high(kind) < kinds))


def read_trace(path: PathLike) -> Trace:
    """Read and validate a version-2 trace file into a columnar :class:`Trace`.

    Under numpy the columns are int64 arrays (see :class:`Trace`);
    otherwise lists of ``int``. Any fault in the file raises
    :class:`TraceFormatError` naming the path.
    """
    path = Path(path)
    np = numpy_or_none()
    try:
        with _open_read(path) as handle:
            line = handle.readline()
            if not line.endswith(b"\n"):
                raise TraceFormatError("empty trace file" if not line else "truncated header")
            header, kinds = _parse_header(line)
            raw = _read_column_bytes(handle, header.events)
    except _CORRUPT_GZIP as exc:
        raise TraceFormatError(f"{path}: corrupt gzip stream ({exc})") from exc
    except TraceFormatError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None
    steps, tenant, size, kind = (_decode(np, column) for column in raw)
    if np is not None:
        at = np.cumsum(steps)
    else:
        at = list(itertools.accumulate(steps))
        tenant, size, kind = tenant.tolist(), size.tolist(), kind.tolist()
    if not _check_columns(np, header, len(kinds), steps, at, tenant, size, kind):
        raise TraceFormatError(f"{path}: {_column_error(header, kinds, steps, tenant, size, kind)}")
    trace = Trace.from_columns(header, TraceColumns(at, tenant, size, kind, kinds))
    trace._proven = True  # the checks above cover what _validate checks
    return trace
