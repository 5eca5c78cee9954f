"""Trace-driven workload replay: record, validate, and re-drive traffic.

The synthetic engines (:mod:`repro.sim.scale`, :mod:`repro.sim.shard`)
only ever see diurnal Poisson curves; this package makes *recorded*
request streams a first-class workload. :mod:`~repro.sim.replay.format`
defines the versioned JSONL trace format and is the single place trace
files are parsed; :mod:`~repro.sim.replay.recorder` dumps traces from
live runs (gateway seam and fleet engine); and
:mod:`~repro.sim.replay.replayer` feeds traces back through the fleet
fold per tenant (byte-identical record→replay fixpoint) and per shard
(worker-count- and numpy-independent digests), and through real app
stacks under chaos. The scenario library in :mod:`repro.sim.scenarios`
builds on this format.
"""

from repro.sim.replay.format import (
    TRACE_FORMAT,
    TRACE_VERSION,
    Trace,
    TraceColumns,
    TraceEvent,
    TraceFormatError,
    TraceHeader,
    iter_trace,
    read_trace,
    sort_events,
    trace_digest,
    trace_memory_mb,
    trace_storage,
    write_trace,
)
from repro.sim.replay.recorder import FLEET_APP, FLEET_ROUTE, TraceRecorder
from repro.sim.replay.replayer import (
    ReplayConfig,
    ReplayResult,
    fleet_sla_report,
    merge_replay,
    partition_trace,
    replay_shard,
    run_replay_batched,
    run_replay_chaos,
    run_replay_sharded,
)

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Trace",
    "TraceColumns",
    "TraceEvent",
    "TraceFormatError",
    "TraceHeader",
    "iter_trace",
    "read_trace",
    "sort_events",
    "trace_digest",
    "trace_memory_mb",
    "trace_storage",
    "write_trace",
    "FLEET_APP",
    "FLEET_ROUTE",
    "TraceRecorder",
    "ReplayConfig",
    "ReplayResult",
    "fleet_sla_report",
    "merge_replay",
    "partition_trace",
    "replay_shard",
    "run_replay_batched",
    "run_replay_chaos",
    "run_replay_sharded",
]
