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

Cost model: a trace is read and written once per event line, so both
directions are per-line Python around :mod:`json`. The formatter encodes
each distinct string once per call and assembles lines with an
f-string; :func:`trace_digest` hashes and :func:`write_trace` writes in
chunks of a few thousand lines, never one whole-trace string. The reader
decodes each line once, checks it by exact type, and builds the event
positionally; a refused line is re-checked slowly to name its error.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import io
import itertools
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, Iterator, List, NoReturn, Optional, Tuple, Union

from repro.errors import ConfigurationError

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "DEFAULT_STORAGE",
    "TraceFormatError",
    "TraceEvent",
    "TraceHeader",
    "Trace",
    "sort_events",
    "event_line",
    "header_line",
    "trace_digest",
    "trace_storage",
    "write_trace",
    "read_trace",
    "iter_trace",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1
# The storage backend a header with no ``storage`` meta was recorded on.
# Only other backends are written, so S3 traces keep their seed-era bytes.
DEFAULT_STORAGE = "s3"


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


@dataclass
class Trace:
    """A header plus its time-ordered events — the in-memory trace."""

    header: TraceHeader
    events: List[TraceEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def digest(self) -> str:
        return trace_digest(self)

    def duration_micros(self) -> int:
        if not self.events:
            return 0
        return self.events[-1].at_micros - self.events[0].at_micros

    def validate(self) -> "Trace":
        _validate(self.header, self.events)
        return self


def trace_storage(header: TraceHeader) -> str:
    """The storage backend the trace's run billed: ``meta["storage"]`` or S3."""
    from repro.runtime.store import STORAGE_BACKENDS

    storage = header.meta_dict().get("storage", DEFAULT_STORAGE)
    if storage not in STORAGE_BACKENDS:
        raise TraceFormatError(
            f"trace meta storage must be one of {STORAGE_BACKENDS}, got {storage!r}"
        )
    return storage


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
    final newline, hashed in bounded chunks.
    """
    sha = hashlib.sha256(header_line(trace.header, len(trace.events)).encode("ascii"))
    for chunk in _event_chunks(trace.events):
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
    except TraceFormatError as exc:
        _fail(1, str(exc))
    return header


def _event_error(line: str, tenants: int, prev_at: int) -> str:
    """Why an event line fails the schema: the first failed check.

    The reader's fast path accepts exactly the lines that pass every
    check here; a line it refuses is explained by this slow path.
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

# ``json.loads`` minus its whitespace passes: the reader strips each line
# and checks that the object spans all of it.
_decode_json = json.JSONDecoder().raw_decode
# An absent event ``meta``: read only, never mutated.
_NO_META: Dict[str, object] = {}


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


def _open_read(path: Path) -> io.TextIOBase:
    # Latin-1 maps every byte to one character, so a non-ASCII byte
    # reaches the reader as a character it can place on its line.
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="latin-1")
    return open(path, "r", encoding="latin-1")


def write_trace(path: PathLike, trace: Trace) -> int:
    """Write the trace canonically; returns the event count.

    The events must already be in canonical (time-sorted) order — use
    :func:`sort_events` after composing transforms. A ``.gz`` suffix
    compresses deterministically.
    """
    _validate(trace.header, trace.events)
    path = Path(path)
    with _open_write(path) as out:
        out.write(header_line(trace.header, len(trace.events)).encode("ascii"))
        for chunk in _event_chunks(trace.events):
            out.write(chunk)
        out.write(b"\n")
    return len(trace.events)


def iter_trace(path: PathLike) -> Iterator[Union[TraceHeader, TraceEvent]]:
    """Stream a trace file: yields the header first, then each event.

    Validation happens line by line (schema, monotone timestamps,
    tenant range), so a malformed file fails at the offending line with
    its number instead of producing a half-parsed workload. A corrupt
    file (truncated or non-gzip ``.gz``, a non-ASCII byte) fails with
    :class:`TraceFormatError` naming the path and the line.

    Each line is decoded once and checked by exact type; the ``app``,
    ``route`` and ``actor`` strings are shared across the events of one
    read. A line that fails is explained by :func:`_event_error`.
    """
    path = Path(path)
    handle = _open_read(path)
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
            yield header
            tenants = header.tenants
            names: Dict[str, str] = {}
            share = names.setdefault
            prev_at = count = 0
            for line_no, line in enumerate(handle, start=2):
                if not line.isascii():
                    raise TraceFormatError(f"{path}: line {line_no}: non-ASCII byte in trace")
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
                yield TraceEvent(
                    at, tenant, share(app, app), share(route, route), size,
                    share(actor, actor), meta_pairs(meta),
                )
                prev_at = at
                count += 1
            if header.events != count:
                raise TraceFormatError(
                    f"{path}: header declares {header.events} events, file holds {count}"
                )
    except _CORRUPT_GZIP as exc:
        raise TraceFormatError(
            f"{path}: line {line_no + 1}: corrupt gzip stream ({exc})"
        ) from exc


def read_trace(path: PathLike) -> Trace:
    """Read and validate a whole trace file into memory."""
    stream = iter_trace(path)
    header = next(stream)
    events = list(stream)
    return Trace(header=header, events=events)
