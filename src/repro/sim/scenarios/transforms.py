"""Composable trace transforms: stretch, multiply, and stack scenarios.

Every transform is a pure function ``Trace -> Trace`` producing a new
validated, canonically-ordered trace — so transformed traces digest
deterministically and replay under the same contract as recorded ones.
A transform maps its input's columns to output columns and never builds
a :class:`~repro.sim.replay.format.TraceEvent`; the kinds of its output
are numbered as :meth:`TraceColumns.from_events
<repro.sim.replay.format.TraceColumns.from_events>` would number the
same events, so a transformed trace compares equal to its event-built
twin.
Compose freely::

    big = tenant_multiply(time_scale(flash_crowd(), 0.5), 100)
    day = splice([iot_fleet(), backup_day()], gap_micros=hours(1))
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.replay.format import Kind, Trace, TraceColumns, TraceHeader
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
    columns = trace.columns()
    origin = columns.at[0] if len(columns) else 0
    at = [origin + round((a - origin) * factor) for a in columns.at]
    header = _renamed(trace.header, name, f"{trace.header.name}@x{factor:g}")
    return Trace.from_columns(header, TraceColumns.canonical(
        at, columns.tenant[:], columns.size[:], columns.kind, columns.kinds,
    )).validate()


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
    source = trace.columns()
    # Copy k of event i lands at index i * copies + k, so the copies meet
    # the kinds in the original's order: numbered once here, the copied
    # kind column is canonical as it stands, unless some kind is an
    # event's own, which each copy must take afresh.
    columns = TraceColumns.canonical(
        source.at, source.tenant, source.size, source.kind, source.kinds,
    )
    total = len(columns) * copies
    at, tenant, size, kind = [0] * total, [0] * total, [0] * total, [0] * total
    for k in range(copies):
        at[k::copies] = columns.at
        size[k::copies] = columns.size
        kind[k::copies] = columns.kind
        # Copy 0 keeps the original's values, so validation sees a tenant
        # that is not an int (``True + 0`` would be one).
        offset = k * base
        tenant[k::copies] = [t + offset for t in columns.tenant] if k else columns.tenant
    header = TraceHeader(
        name=name or f"{trace.header.name}*{copies}",
        seed=trace.header.seed,
        tenants=base * copies,
        meta=trace.header.meta,
    )
    if columns.own_kinds():
        copied = TraceColumns.canonical(at, tenant, size, kind, columns.kinds)
    else:
        copied = TraceColumns(at, tenant, size, kind, columns.kinds)
    return Trace.from_columns(header, copied).validate()


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
    at: List[int] = []
    tenant: List[int] = []
    size: List[int] = []
    kind: List[int] = []
    kinds: List[Kind] = []
    for trace in traces:
        columns = trace.columns()
        if not len(columns):
            continue
        offset = (at[-1] + gap_micros) - columns.at[0] if at else 0
        at += [a + offset for a in columns.at]
        tenant += columns.tenant
        size += columns.size
        kind += [k + len(kinds) for k in columns.kind]
        kinds += columns.kinds
    header = TraceHeader(
        name=name or "+".join(t.header.name for t in traces),
        seed=traces[0].header.seed,
        tenants=tenants,
    )
    return Trace.from_columns(
        header, TraceColumns(at, tenant, size, kind, kinds).time_sorted(),
    ).validate()
