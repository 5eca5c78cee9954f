"""Deterministic discrete-time simulation kernel.

The paper's evaluation ran on real AWS in ``us-west-2``; this package is
the substitute substrate. It provides a virtual clock, a discrete-event
scheduler, seeded randomness, latency distributions for each cloud
component, metric collection (medians/percentiles, as Table 3 reports),
and fault injection for availability experiments.
"""

from repro.sim.clock import SimClock
from repro.sim.event import EventLoop, Event
from repro.sim.rng import SeededRng
from repro.sim.latency import (
    LatencyModel,
    LatencySample,
    Distribution,
    Constant,
    Uniform,
    LogNormal,
    Shifted,
)
from repro.sim.metrics import (
    AvailabilityTracker,
    MetricSeries,
    MetricRegistry,
    percentile,
    sla_report,
)
from repro.sim.faults import FAULT_KINDS, FaultHook, FaultInjector, FaultSpec
from repro.sim.profile import PerfCounters, collect
from repro.sim.workload import DiurnalWorkload, Arrival, HOURLY_PROFILE_PERSONAL
from repro.sim.scale import (
    ChaosConfig,
    ScaleConfig,
    FleetResult,
    run_chaos_fleet,
    run_fleet,
)
from repro.sim.shard import (
    FleetConfig,
    ShardResult,
    ShardedFleetResult,
    merge_shards,
    run_fleet_benchmark,
    run_fleet_sharded,
    run_shard,
    shard_of,
    shard_tenants,
)

__all__ = [
    "PerfCounters",
    "collect",
    "DiurnalWorkload",
    "Arrival",
    "HOURLY_PROFILE_PERSONAL",
    "ScaleConfig",
    "FleetResult",
    "run_fleet",
    "SimClock",
    "EventLoop",
    "Event",
    "SeededRng",
    "LatencyModel",
    "LatencySample",
    "Distribution",
    "Constant",
    "Uniform",
    "LogNormal",
    "Shifted",
    "MetricSeries",
    "MetricRegistry",
    "percentile",
    "AvailabilityTracker",
    "sla_report",
    "FAULT_KINDS",
    "FaultHook",
    "FaultInjector",
    "FaultSpec",
    "ChaosConfig",
    "run_chaos_fleet",
    "FleetConfig",
    "ShardResult",
    "ShardedFleetResult",
    "shard_of",
    "shard_tenants",
    "run_shard",
    "merge_shards",
    "run_fleet_sharded",
    "run_fleet_benchmark",
]
