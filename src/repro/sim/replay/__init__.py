"""Trace-driven workload replay: record, validate, and re-drive traffic.

The synthetic engines (:mod:`repro.sim.scale`, :mod:`repro.sim.shard`)
only ever see diurnal Poisson curves; this package makes *recorded*
request streams a first-class workload. :mod:`~repro.sim.replay.format`
defines the versioned trace format (a JSON header, then int64 column
blocks) and is the single place trace files are parsed; :mod:`~repro.sim.replay.recorder` dumps traces from
live runs (gateway seam and sharded fleet); and
:mod:`~repro.sim.replay.replayer` feeds traces back through the fleet
fold per shard (worker-count- and numpy-independent digests, and the
byte-identical record→replay fixpoint for a trace the fleet recorded),
and through real app stacks under chaos. The scenario library in :mod:`repro.sim.scenarios`
builds on this format.
"""

from repro.sim.replay.format import (
    TRACE_FORMAT,
    TRACE_VERSION,
    Trace,
    TraceColumns,
    TraceEngine,
    TraceEvent,
    TraceFormatError,
    TraceHeader,
    plan_meta,
    read_trace,
    sort_events,
    trace_digest,
    trace_engine,
    trace_plan,
    write_trace,
)
from repro.sim.replay.recorder import FLEET_APP, FLEET_ROUTE, TraceRecorder
from repro.sim.replay.replayer import (
    ReplayConfig,
    fleet_sla_report,
    merge_replay,
    partition_trace,
    replay_shard,
    run_replay_chaos,
    run_replay_sharded,
)

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Trace",
    "TraceColumns",
    "TraceEngine",
    "TraceEvent",
    "TraceFormatError",
    "TraceHeader",
    "read_trace",
    "sort_events",
    "plan_meta",
    "trace_digest",
    "trace_engine",
    "trace_plan",
    "write_trace",
    "FLEET_APP",
    "FLEET_ROUTE",
    "TraceRecorder",
    "ReplayConfig",
    "fleet_sla_report",
    "merge_replay",
    "partition_trace",
    "replay_shard",
    "run_replay_chaos",
    "run_replay_sharded",
]
