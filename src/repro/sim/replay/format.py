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
  the same bytes (and therefore the same :func:`trace_digest`);
* **gzip-friendly** — :func:`write_trace` writes ``*.gz`` paths
  through :class:`gzip.GzipFile` with ``mtime=0`` and an empty
  filename, keeping even the *compressed* bytes deterministic.

This module is the **only** place that parses trace JSONL (the
``make lint`` grep enforces it); every consumer goes through
:func:`read_trace` / :func:`iter_trace` and gets schema validation for
free.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

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


def event_line(event: TraceEvent) -> str:
    """The event's one canonical JSON line (defaults omitted)."""
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
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def trace_digest(trace: Trace) -> str:
    """sha256 over the canonical lines — the byte-identity probe.

    Two traces digest equal iff their headers (name, seed, tenants)
    and every event field agree; this is the value the scenario
    library pins per seed and the replay engines carry into their
    determinism digests.
    """
    sha = hashlib.sha256()
    sha.update(header_line(trace.header, len(trace.events)).encode("ascii"))
    for event in trace.events:
        sha.update(b"\n")
        sha.update(event_line(event).encode("ascii"))
    return sha.hexdigest()


# -- schema validation ---------------------------------------------------

_EVENT_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("at", int), ("tenant", int), ("app", str), ("route", str), ("bytes", int),
)


def _fail(line_no: int, message: str) -> None:
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


def _parse_event(line: str, line_no: int, header: TraceHeader, prev_at: int) -> TraceEvent:
    try:
        obj = json.loads(line)
    except ValueError as exc:
        _fail(line_no, f"event is not JSON ({exc})")
    if not isinstance(obj, dict):
        _fail(line_no, "event must be a JSON object")
    for key, kind in _EVENT_REQUIRED:
        value = obj.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            _fail(line_no, f"field {key!r} must be {kind.__name__}, got {value!r}")
    if obj["at"] < 0:
        _fail(line_no, f"negative timestamp {obj['at']}")
    if obj["at"] < prev_at:
        _fail(line_no, f"timestamps must be non-decreasing ({obj['at']} after {prev_at})")
    if not 0 <= obj["tenant"] < header.tenants:
        _fail(line_no, f"tenant {obj['tenant']} outside [0, {header.tenants})")
    if obj["bytes"] < 0:
        _fail(line_no, f"negative payload size {obj['bytes']}")
    actor = obj.get("actor", "")
    if not isinstance(actor, str):
        _fail(line_no, f"actor must be a string, got {actor!r}")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        _fail(line_no, "event meta must be an object")
    return TraceEvent(
        at_micros=obj["at"], tenant=obj["tenant"], app=obj["app"],
        route=obj["route"], payload_bytes=obj["bytes"], actor=actor,
        meta=meta_pairs(meta),
    )


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


def _open_write(path: Path) -> io.TextIOBase:
    if path.suffix == ".gz":
        # mtime=0 + empty filename: the gzip container itself is
        # byte-deterministic, not just the payload.
        raw = gzip.GzipFile(fileobj=open(path, "wb"), mode="wb", filename="", mtime=0)
        return io.TextIOWrapper(raw, encoding="ascii", newline="\n")
    return open(path, "w", encoding="ascii", newline="\n")


def _open_read(path: Path) -> io.TextIOBase:
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="ascii")
    return open(path, "r", encoding="ascii")


def write_trace(path: PathLike, trace: Trace) -> int:
    """Write the trace canonically; returns the event count.

    The events must already be in canonical (time-sorted) order — use
    :func:`sort_events` after composing transforms. A ``.gz`` suffix
    compresses deterministically.
    """
    _validate(trace.header, trace.events)
    path = Path(path)
    with _open_write(path) as out:
        out.write(header_line(trace.header, len(trace.events)))
        for event in trace.events:
            out.write("\n")
            out.write(event_line(event))
        out.write("\n")
    return len(trace.events)


def iter_trace(path: PathLike) -> Iterator[Union[TraceHeader, TraceEvent]]:
    """Stream a trace file: yields the header first, then each event.

    Validation happens line by line (schema, monotone timestamps,
    tenant range), so a malformed file fails at the offending line with
    its number instead of producing a half-parsed workload.
    """
    path = Path(path)
    with _open_read(path) as handle:
        first = handle.readline()
        if not first.strip():
            raise TraceFormatError(f"{path}: empty trace file")
        header = _parse_header(first.strip())
        yield header
        prev_at = 0
        count = 0
        for line_no, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            event = _parse_event(line, line_no, header, prev_at)
            prev_at = event.at_micros
            count += 1
            yield event
        if header.events != count:
            raise TraceFormatError(
                f"{path}: header declares {header.events} events, file holds {count}"
            )


def read_trace(path: PathLike) -> Trace:
    """Read and validate a whole trace file into memory."""
    stream = iter_trace(path)
    header = next(stream)
    events = list(stream)
    return Trace(header=header, events=events)
