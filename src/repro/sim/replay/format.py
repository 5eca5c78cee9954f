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
  through :class:`gzip.GzipFile` with ``mtime=0``, an empty filename
  and one fixed deflate level (``_GZIP_LEVEL``), keeping even the
  *compressed* bytes deterministic. This module is the only one in
  ``src/repro`` that uses :mod:`gzip` or :mod:`zlib` (``make lint``).

This module is the **only** place that parses trace JSONL (the
``make lint`` grep enforces it); every consumer goes through
:func:`read_trace` / :func:`iter_trace` and gets schema validation for
free. A corrupt file fails loudly: a truncated or non-gzip ``.gz`` and
a non-ASCII byte raise :class:`TraceFormatError` naming the path.

Cost model: traces move as columns (:class:`TraceColumns`), not as a
:class:`TraceEvent` per line. The writer and the digest format columns:
each distinct kind becomes one ``%`` template, and a chunk of 4,096
lines is filled by one ``%`` over its integers, so formatting costs a
few C-level passes per chunk; deflate is then most of a write. It runs
at level 6, zlib's default, not at :class:`gzip.GzipFile`'s 9. On the
``replay-iot`` trace's 49.3 MB of text (505,551 events; 2-vCPU x86-64
Xeon, CPython 3.11.7, zlib 1.2.13, best of 3), deflate alone takes:

=====  =======  ===================
level  seconds  bytes / level 9's
=====  =======  ===================
1      0.18     1.41
4      0.34     1.24
5      0.33     1.19
6      0.43     1.17
7      0.44     1.16
8      0.88     1.00
9      1.03     1.00
=====  =======  ===================

and inflating the level-6 stream is no slower (best of 11: 83 ms,
against 89 ms at level 9).

Validation takes C-level passes over the columns (types, sorted, min,
max; the writer's formatter trusts the types it proved), checks each
kind's names once (so the writer refuses what the reader would) and
walks events one by one only to word a failure. One reader serves
:func:`read_trace` and :func:`iter_trace`. It takes the decompressed
body in blocks of about 1 MiB of whole lines. Under numpy a block is
proven canonical and decoded by position (:func:`_prove_block`): from
its newline and quote offsets, each line's quote count and fixed text
(masked little-endian words) prove its layout, its three digit runs are
checked and read eight digits to a word, and its names are keyed by a
``uint64`` hash, grouped by one ``np.unique`` and proven equal word for
word, so the name check and :class:`KindTable` run once per distinct
kind. Without numpy, or for a block the proof refuses (one with a
19-digit number, say), one ``findall`` decodes canonical lines into
lists of ``int``; any other block is decoded line by line around :mod:`json`,
which also names a refused line's error. On the ``replay-iot`` trace
(505,551 events, 43 blocks; 2-vCPU x86-64 host, CPython 3.11, numpy
2.4, best of several) the proof and decode take 6.5 ms a block, where
a regex proof and the decode took 9.2 ms, and ``read_trace`` 0.41 s
against 0.57 s; inflating and hashing the body (about 0.12 s)
is the floor. A trace read from disk, built by the recorder or made by
a transform is columnar: its :class:`TraceEvent` objects are built only
when ``trace.events`` is asked for, and when every line read was
canonical its digest is the sha256 of the raw lines, taken during the
read. A trace read under numpy keeps int64 columns for the sharded
replay (:meth:`Trace.readonly_columns`); its events, its
:meth:`Trace.columns` and its written lines see exact ``int``.
"""

from __future__ import annotations

import contextlib
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
    "iter_trace",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1
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
      :func:`read_trace`), the columns are the truth, plus the digest
      when the reader proved every line canonical. The first access to
      :attr:`events` builds the list from the columns; from then on that
      list is the truth and the column and digest caches are dropped,
      so editing it (``trace.events.reverse()``) is always seen.
      Assigning a new :attr:`header` drops the digest too.

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
        self._proven = False  # the caller may edit the columns
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

# Lines per hashed or written chunk: bounds the memory of a digest or a
# write to a few hundred KiB whatever the trace's length.
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


def _column_chunks(columns: TraceColumns, ints: bool = False) -> Iterator[str]:
    """The one canonical formatter: the event lines in chunks, each line preceded by a newline.

    A line is ``_dumps_sorted(_line_object(...))`` byte for byte. Each
    kind becomes one ``%`` template, and a chunk of ``int`` numbers is
    filled by one ``%`` over its interleaved at, bytes and tenant
    values. In a chunk holding any number of another type (a ``bool``,
    a float), the lines with one go through ``json.dumps`` itself.
    ``ints`` says the caller has proven every number an ``int``
    (:func:`_validate`), so no chunk checks again.
    """
    strings = _TemplateStrings()
    templates = [_line_template(kind, strings) for kind in columns.kinds]
    for lo in range(0, len(columns), _CHUNK_LINES):
        hi = lo + _CHUNK_LINES
        at, size, tenant = columns.at[lo:hi], columns.size[lo:hi], columns.tenant[lo:hi]
        kind = columns.kind[lo:hi]
        if ints or set(map(type, at)) | set(map(type, size)) | set(map(type, tenant)) == {int}:
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
    columns = trace.columns()
    sha = hashlib.sha256(header_line(trace.header, len(columns)).encode("ascii"))
    for chunk in _column_chunks(columns):
        sha.update(chunk.encode("ascii"))
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
        events=obj["events"], meta=meta,
    )
    try:
        trace_plan(header)
        trace_engine(header)
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
    # Numbers must be exactly ``int``, as the reader parses them: a float
    # or a bool would be written as JSON the reader refuses.
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
            if at_micros < prev:
                raise TraceFormatError(
                    f"event {index} at {at_micros} precedes its predecessor at {prev}"
                )
            prev = at_micros
            if not 0 <= tenant_id < header.tenants:
                raise TraceFormatError(
                    f"event {index} names tenant {tenant_id} outside [0, {header.tenants})"
                )
            if payload < 0 or at_micros < 0:
                raise TraceFormatError(f"event {index} carries a negative quantity")
    if not (0 <= min(kind) and max(kind) < len(columns.kinds)):
        raise TraceFormatError(f"trace kind ids must index its {len(columns.kinds)} kinds")
    # Names are checked once per kind, in the reader's words
    # (:func:`_event_error`); a kind no event uses is never written.
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

# Decompressed bytes per read: a block is this much, cut after its last newline.
_BLOCK_BYTES = 1 << 20

# The deflate level of every written ``.gz`` trace: zlib's own default
# (``Z_DEFAULT_COMPRESSION``), not gzip's 9, which deflates about 2.4
# times slower for files about 15% smaller (see the module docstring).
_GZIP_LEVEL = 6

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

# One block's events as columns: at, tenant, size, kind; lists of
# ``int``, or int64 arrays from the numpy decoder.
_BlockColumns = Tuple[List[int], List[int], List[int], List[int]]


def _as_list(column) -> List[int]:
    """A column as a list of ``int``: itself, or an int64 array's ``tolist()``."""
    return column if type(column) is list else column.tolist()


# ``(1 << 8 * k) - 1`` for ``k`` from 0 to 8: the low ``k`` bytes of a
# little-endian word.
_LOW_BYTES = tuple((1 << 8 * k) - 1 for k in range(9))
_ZEROS = 0x3030303030303030  # eight ASCII "0"s
# The odd multiplier of the kind-key hash: ``key = (key ^ word) * _MIX``.
_MIX = 0x9E3779B97F4A7C15
# What a canonical line's names and the quotes around them are made of:
# printable ASCII but '\'.
_NAME_BYTES = bytes(range(0x20, 0x7F)).replace(b"\\", b"")


def _text(literal: bytes) -> Tuple[int, int]:
    """``literal`` as a little-endian word, and the mask of its bytes in a word."""
    return int.from_bytes(literal, "little"), _LOW_BYTES[len(literal)]


# The fixed text of a canonical line, as :func:`_prove_block` reads it.
_NEWLINE, _QUOTE, _COMMA, _CLOSE_BRACE, _ZERO = b'\n",}0'
_APP_OPEN = _text(b'{"app":"')
_ACTOR_OPEN = _text(b'{"actor"')
_ACTOR_COLON = _text(b':"')
_ACTOR_APP = _text(b'","app":')
_AT_KEY = _text(b'","at":')
_BYTES_KEY = _text(b'"bytes":')
_ROUTE_KEY = _text(b'"route":')
_TENANT_HEAD = _text(b'","tenan')
_TENANT_KEY = _text(b'tenant":')


def _prove_block(np, block: bytes):
    """Prove by position that ``block`` holds only canonical lines; decode them.

    The proof accepts exactly a non-empty block of lines that
    ``_CANONICAL_LINE`` matches, each ending in ``\\n``, with numbers of
    at most 18 digits (below ``10**18``, so a run of them sums in int64).
    For any other block it returns ``None``; otherwise the at, tenant and
    size columns as int64 arrays, each line's index into ``names``, and
    ``names``: each distinct raw ``actor``/``app`` prefix and route, in
    order of first appearance.

    Names hold no quote, so a canonical line has 14 quotes, or 18 with
    an actor. Numbering a line's quotes from its last (0) back, each piece
    of fixed text is one word read at an offset from a quote and compared
    under the mask of its bytes:

    * at the line's start, ``{"app":"``; or ``{"actor"`` then ``:"``, and
      at quote 14 (past a non-empty actor) ``","app":``, with quote 11
      eight bytes on;
    * at quote 10 (the app's end), ``","at":``;
    * at quotes 7 and 5, ``"bytes":`` and ``"route":``, each after a
      ``,``, and quote 3 eight bytes past quote 5;
    * at quote 2 (the route's end), ``","tenan``, and ``tenant":`` three
      bytes on; then ``}`` before the newline.

    A literal holds no newline, so one that matches lies inside its
    line, and each places the quotes it holds: the quote count leaves
    room for no other. The digit runs between must be numbers
    (:func:`_digit_runs`), and the names are checked
    against the bytes a name may hold once per distinct prefix and route
    (:func:`_distinct_kinds`).
    """
    if len(block) < 8 or block[-1] != _NEWLINE:
        return None
    buf = np.frombuffer(block, dtype=np.uint8)
    # The eight bytes from every offset, as overlapping little-endian words.
    words = np.ndarray((len(block) - 7,), dtype="<u8", buffer=block, strides=(1,))
    ends = np.flatnonzero(buf == _NEWLINE)
    quotes = np.flatnonzero(buf == _QUOTE)
    last = np.searchsorted(quotes, ends) - 1
    count = np.diff(last, prepend=-1)
    actor = count == 18
    if not (actor | (count == 14)).all():
        return None
    route_close, route_open, route_key = quotes[last - 2], quotes[last - 3], quotes[last - 5]
    bytes_key, app_close = quotes[last - 7], quotes[last - 10]
    # A word read below either ends inside its line (digits, names) or
    # starts no later than ``route_close + 3``, and each line but the last
    # is followed by one of at least 15 bytes; so when the last line's
    # reads fit, every read is inside the block.
    if int(route_close[-1]) + 3 > len(words) - 1:
        return None

    def matches(at, text):
        value, mask = text
        return (words[at] & mask) == value

    starts = np.concatenate(([0], ends[:-1] + 1))
    head = words[starts]
    proven = (np.where(actor, head == _ACTOR_OPEN[0], head == _APP_OPEN[0])
              & matches(app_close, _AT_KEY)
              & (buf[bytes_key - 1] == _COMMA) & matches(bytes_key, _BYTES_KEY)
              & (buf[route_key - 1] == _COMMA) & matches(route_key, _ROUTE_KEY)
              & (route_open == route_key + 8)
              & matches(route_close, _TENANT_HEAD) & matches(route_close + 3, _TENANT_KEY)
              & (buf[ends - 1] == _CLOSE_BRACE))
    if actor.any():
        # Clipped: a first line without an actor has no quote 14.
        actor_close = quotes.take(last - 14, mode="clip")
        proven &= ~actor | (matches(starts + 8, _ACTOR_COLON) & (actor_close > starts + 10)
                            & matches(actor_close, _ACTOR_APP)
                            & (quotes[last - 11] == actor_close + 8))
    if not proven.all():
        return None
    numbers = [_digit_runs(np, buf, words, lo, hi) for lo, hi in (
        (app_close + 7, bytes_key - 1), (route_close + 11, ends - 1), (bytes_key + 8, route_key - 1),
    )]
    if any(number is None for number in numbers):
        return None
    kinds = _distinct_kinds(np, block, words, actor, starts + 1, app_close + 1,
                            route_open + 1, route_close)
    if kinds is None:
        return None
    return (*numbers, *kinds)


def _digit_runs(np, buf, words, lo, hi):
    """The number written in ``block[lo:hi]`` for each row, as int64.

    ``None`` unless every run is one to 18 digits with no leading zero.
    A run is taken eight bytes at a time from the right: the word ending
    at a chunk's last byte, less ``"0"`` from each byte and with the
    bytes before the chunk set to zero, holds eight digit values, and
    three multiply-add-mask steps turn them into a number.
    """
    length = hi - lo
    if not ((length >= 1) & (length <= 18)).all() or ((buf[lo] == _ZERO) & (length > 1)).any():
        return None
    low_bytes = np.array(_LOW_BYTES, dtype=np.uint64)
    value = flags = 0
    for chunk in range(int(length.max() + 7) // 8):
        pad = low_bytes[8 - np.clip(length - 8 * chunk, 0, 8)]
        x = (words[np.maximum(hi - 8 * chunk - 8, 0)] | pad) - (pad | _ZEROS)
        # Each byte is now 0 to 9 if every byte was a digit. The lowest
        # byte that was not sets its high bit here, or once 0x76 is added.
        flags |= x | (x + 0x7676767676767676)
        x = (x * 10 + (x >> 8)) & 0x00FF00FF00FF00FF
        x = (x * 100 + (x >> 16)) & 0x0000FFFF0000FFFF
        x = (x * 10000 + (x >> 32)) & 0xFFFFFFFF
        value = value + x * 10 ** (8 * chunk) if chunk else x
    if (flags & 0x8080808080808080).any():
        return None
    return value.astype(np.int64)


def _span_reads(np, lo, hi):
    """Word offsets that cover each row's span ``[lo, hi)`` of at least eight bytes.

    The ``k``-th read starts at ``lo + 8 * k``, or at ``hi - 8`` if that
    is earlier; so two rows whose spans have one length are read at the
    same offsets into their spans, and no read leaves its span.
    """
    last = hi - 8
    for word in range(int((hi - lo).max() + 7) // 8):
        yield np.minimum(lo + 8 * word, last)


def _distinct_kinds(np, block, words, actor, prefix_lo, prefix_hi, route_lo, route_hi):
    """Each line's index into its block's distinct prefix and route pairs, and those pairs.

    The pairs come in order of first appearance, as raw bytes; ``None``
    when a pair holds a byte no name may hold, or when two distinct pairs
    share a key. A line is keyed by two spans that fix its pair: the
    prefix past a proven ``"actor":``, and the route, widened where it is
    shorter than a word by the proven ``route":"`` before it. The key
    hashes both span lengths and the spans' words. After one
    ``np.unique`` over the keys, each line's lengths and words are
    compared with those of the first line with its key, so lines with
    one key are proven to hold one pair.
    """
    spans = ((prefix_lo + 8 * actor, prefix_hi), (np.minimum(route_lo, route_hi - 8), route_hi))
    lengths = ((spans[0][1] - spans[0][0]) << 32 | (spans[1][1] - spans[1][0])).view(np.uint64)
    key = lengths
    for lo, hi in spans:
        for at in _span_reads(np, lo, hi):
            key = (key ^ words[at]) * _MIX
    _, group = np.unique(key, return_inverse=True)
    first = np.full(int(group.max()) + 1, len(key))
    np.minimum.at(first, group, np.arange(len(key)))
    rep = first[group]
    if (lengths[rep] != lengths).any():
        return None
    for lo, hi in spans:
        for at in _span_reads(np, lo, hi):
            word = words[at]
            if (word[rep] != word).any():
                return None
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    lines = first[order]
    names = [(block[a:b], block[c:d]) for a, b, c, d in zip(
        prefix_lo[lines].tolist(), prefix_hi[lines].tolist(),
        route_lo[lines].tolist(), route_hi[lines].tolist())]
    if b"".join(itertools.chain.from_iterable(names)).translate(None, _NAME_BYTES):
        return None
    return rank[group], names


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
    columns = trace.validate().columns()
    path = Path(path)
    with _open_write(path) as out:
        out.write(header_line(trace.header, len(columns)).encode("ascii"))
        for chunk in _column_chunks(columns, ints=True):
            out.write(chunk.encode("ascii"))
        out.write(b"\n")
    return len(columns)


class _Tenants(dict):
    """Tenant ids keyed by their raw digits: one ``int`` per tenant, parsed once."""

    def __missing__(self, raw: bytes) -> int:
        self[raw] = tenant = int(raw)
        return tenant


class _RawKinds(dict):
    """Kind ids keyed by a canonical line's raw ``actor``/``app`` prefix and route."""

    def __init__(self, kinds: KindTable):
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

    A block whose lines all match :data:`_CANONICAL_LINE` is decoded
    and checked over its columns: under numpy by position once
    :func:`_prove_block` proves it, else by one ``findall``. Any other
    block, and a canonical block that fails a check, goes line by line
    through ``raw_decode`` and exact-type checks, and
    :func:`_event_error` names a refused line — the same messages and
    line numbers either way.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self.kinds = KindTable()
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
                    if len(columns[0]):
                        prev_at = int(columns[0][-1])
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
        """The block's columns if every line is canonical and passes; else ``None``.

        Under numpy a block :func:`_prove_block` proves is decoded into
        int64 arrays; any other block goes through the ``findall``
        decoder, the no-numpy twin, which also takes 19-digit numbers.
        """
        np = numpy_or_none()
        proven = None if np is None else _prove_block(np, block)
        if proven is not None:
            at, tenant, size, kind, names = proven
            # The proof admits no negative number: the same two checks left.
            if (int(at[0]) < prev_at or bool((at[1:] < at[:-1]).any())
                    or int(tenant.max()) >= tenants):
                return None
            ids = np.array([self._raw_kinds[raw] for raw in names], dtype=np.int64)
            return at, tenant, size, ids[kind]
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
        yield from _column_events(scan.kinds.kinds, *map(_as_list, columns))


def read_trace(path: PathLike) -> Trace:
    """Read and validate a whole trace file into a columnar :class:`Trace`.

    Under numpy, when the numpy decoder read every block, the columns
    are int64 arrays (see :class:`Trace`); otherwise lists of ``int``.
    """
    scan = _TraceScan(path)
    blocks = iter(scan)
    header = next(blocks)
    parts = list(blocks)
    np = numpy_or_none()
    if np is not None and parts and all(type(part[0]) is not list for part in parts):
        joined = [np.concatenate(column) for column in zip(*parts)]
    else:
        joined = [list(itertools.chain.from_iterable(map(_as_list, column)))
                  for column in zip(*parts)] or [[], [], [], []]
    trace = Trace.from_columns(header, TraceColumns(*joined, scan.kinds.kinds), scan.digest)
    trace._proven = True  # the scan checked every line against this header
    return trace
