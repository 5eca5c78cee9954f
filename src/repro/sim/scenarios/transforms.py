"""Composable trace transforms: stretch, multiply, and stack scenarios.

Every transform is a pure function ``Trace -> Trace`` producing a new
validated, canonically-ordered trace — so transformed traces digest
deterministically and replay under the same contract as recorded ones.
Compose freely::

    big = tenant_multiply(time_scale(flash_crowd(), 0.5), 100)
    day = splice([iot_fleet(), backup_day()], gap_micros=hours(1))
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.replay.format import Trace, TraceEvent, TraceHeader, sort_events
from repro.units import seconds

__all__ = ["time_scale", "tenant_multiply", "splice"]


def _renamed(header: TraceHeader, name: Optional[str], default: str) -> TraceHeader:
    return TraceHeader(
        name=name or default, seed=header.seed, tenants=header.tenants,
        meta=header.meta,
    )


def time_scale(trace: Trace, factor: float, name: Optional[str] = None) -> Trace:
    """Stretch (``factor > 1``) or compress (``< 1``) the trace's clock.

    Timestamps scale about the trace's first event, so the start time
    is preserved; ``round`` keeps them integers and (being monotone)
    keeps the canonical order.
    """
    if factor <= 0:
        raise ConfigurationError(f"time_scale factor must be positive, got {factor}")
    if not trace.events:
        return Trace(header=_renamed(trace.header, name, f"{trace.header.name}@x{factor:g}"))
    origin = trace.events[0].at_micros
    events = [
        TraceEvent(
            origin + round((e.at_micros - origin) * factor), e.tenant, e.app, e.route,
            e.payload_bytes, e.actor, e.meta,
        )
        for e in trace.events
    ]
    header = _renamed(trace.header, name, f"{trace.header.name}@x{factor:g}")
    return Trace(header=header, events=events).validate()


def tenant_multiply(trace: Trace, copies: int, name: Optional[str] = None) -> Trace:
    """Clone the tenant population ``copies`` times, schedules intact.

    Copy ``k`` maps tenant ``t`` to ``t + k * tenants`` — disjoint
    tenant ranges, identical timing — which is how a scenario measured
    at library scale becomes a million-event replay benchmark without
    touching its shape. Events stay time-ordered because each original
    event emits its copies consecutively.
    """
    if copies <= 0:
        raise ConfigurationError(f"tenant_multiply needs a positive copy count, got {copies}")
    base = trace.header.tenants
    events = [
        TraceEvent(
            e.at_micros, e.tenant + k * base, e.app, e.route, e.payload_bytes, e.actor, e.meta,
        )
        for e in trace.events
        for k in range(copies)
    ]
    header = TraceHeader(
        name=name or f"{trace.header.name}*{copies}",
        seed=trace.header.seed,
        tenants=base * copies,
        meta=trace.header.meta,
    )
    return Trace(header=header, events=events).validate()


def splice(
    traces: Sequence[Trace],
    gap_micros: int = seconds(60),
    name: Optional[str] = None,
) -> Trace:
    """Stack traces end to end on one timeline, one shared tenant space.

    Each subsequent trace is shifted to begin ``gap_micros`` after the
    previous one's last event; tenant ids are left as-is (the combined
    space is the widest input's), so splicing an IoT day with a backup
    burst models the *same* fleet living through both.
    """
    if not traces:
        raise ConfigurationError("splice needs at least one trace")
    if gap_micros < 0:
        raise ConfigurationError(f"splice gap cannot be negative, got {gap_micros}")
    tenants = max(t.header.tenants for t in traces)
    events: List[TraceEvent] = []
    cursor = None
    for trace in traces:
        if not trace.events:
            continue
        first = trace.events[0].at_micros
        offset = 0 if cursor is None else (cursor + gap_micros) - first
        events.extend(
            TraceEvent(
                e.at_micros + offset, e.tenant, e.app, e.route, e.payload_bytes, e.actor, e.meta,
            )
            for e in trace.events
        )
        cursor = events[-1].at_micros if events else cursor
    header = TraceHeader(
        name=name or "+".join(t.header.name for t in traces),
        seed=traces[0].header.seed,
        tenants=tenants,
    )
    return Trace(header=header, events=sort_events(events)).validate()
