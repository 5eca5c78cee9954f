"""Sharded, vectorized fleet engine: one virtual year for a million tenants.

This module is the scale-out rung on the ROADMAP's "millions of users"
ladder. The fleet is partitioned into a fixed number of **logical
shards** — the unit of both vectorization and parallelism — and each
shard is one source for the fold in :mod:`repro.sim.fold`, running on
the bit-reproducible kernels in :mod:`repro.sim.vecmath`:

* arrivals come from :meth:`DiurnalWorkload.arrival_batches_vec
  <repro.sim.workload.DiurnalWorkload.arrival_batches_vec>` over a
  *pooled* workload (the superposition of ``n`` i.i.d. diurnal Poisson
  processes is one diurnal Poisson process at ``n``× the rate, with
  each arrival assigned to a uniformly random tenant — statistically
  exact, and 1-D vectorizable);
* per-request latencies come from :meth:`LatencyModel.sample_block_vec
  <repro.sim.latency.LatencyModel.sample_block_vec>` quantile tables;
* billing stays in exact integer accumulators until a single
  fleet-level float conversion after the merge.

Each shard draws from its own RNG namespaces: ``fleet/shard-<id>/workload``
for the pooled arrivals, ``fleet/shard-<id>/assign`` for the tenant
draws, and ``fleet/shard-<id>/latency`` for every latency block. That is
the sharded engine's *own* canonical stream — deterministic per seed,
but not the per-tenant stream of :func:`repro.sim.scale.run_fleet`,
whose seed-era goldens stay untouched.

It is also the engine that records: :func:`run_fleet_sharded` feeds a
:class:`~repro.sim.replay.TraceRecorder`, and replaying the trace
reproduces the run's determinism digest (``tests/sim/test_plan_field.py``).

Determinism contract (``tests/sim/test_shard_fleet.py``):

1. **Worker-count invariance.** ``shard_of`` maps a tenant to its
   logical shard as a pure function of the tenant id — never of list
   order or worker count — and workers process whole shards, so the
   same :class:`FleetConfig` produces byte-identical invoices, tenant
   counts, and SLA reports on 1, 2, or N workers.
2. **Merge order independence.** :func:`merge_shards` canonicalizes by
   shard id; integer totals add exactly, float conversions happen once
   from the merged integers, and :class:`~repro.sim.metrics.MetricSeries`
   statistics go through ``fsum`` — so no statistic depends on which
   worker finished first.
3. **Numpy independence.** Every kernel is bitwise identical with and
   without numpy (``tests/sim/test_vec_fallback.py``); the fallback is
   just slower.

The pool dispatch here (:func:`map_shards`, :func:`run_sharded`) also
runs the sharded replayer and the chaos fleet.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.cloud.billing import UsageKind
from repro.errors import ConfigurationError, SimulationError
from repro.plan import DEFAULT_PLAN, DeploymentPlan
from repro.sim import vecmath
from repro.sim.fold import (
    Fold,
    ShardedFleetResult,
    ShardResult,
    handler_components,
    health_plane,
    merge_results,
    plan_memory_mb,
)
from repro.sim.latency import LatencyModel
from repro.sim.profile import PerfCounters
from repro.sim.rng import SeededRng
from repro.sim.workload import HOURLY_PROFILE_PERSONAL, DiurnalWorkload
from repro.units import DAYS_PER_MONTH

__all__ = [
    "DEFAULT_LOGICAL_SHARDS",
    "DEFAULT_CHUNK_EVENTS",
    "DEFAULT_LATENCY_SAMPLES",
    "shard_of",
    "shard_ids",
    "shard_tenants",
    "FleetConfig",
    "ShardResult",
    "ShardedFleetResult",
    "run_shard",
    "merge_shards",
    "map_shards",
    "run_sharded",
    "run_fleet_sharded",
]

# The fixed partitioning of the tenant space. Logical shards — not
# workers — are the unit of determinism: a worker pool of any size
# processes whole shards, so results can never depend on worker count.
DEFAULT_LOGICAL_SHARDS = 64
# Arrivals per fold chunk, and the fleet-wide latency samples kept.
DEFAULT_CHUNK_EVENTS = 1 << 18
DEFAULT_LATENCY_SAMPLES = 1 << 16

_MASK64 = (1 << 64) - 1


def shard_of(tenant_id: int, shards: int = DEFAULT_LOGICAL_SHARDS) -> int:
    """The logical shard owning ``tenant_id`` — a pure function of the id.

    A splitmix64 finalizer scrambles the id before the modulo so that
    contiguous tenant ranges spread evenly across shards; nothing about
    the mapping depends on fleet size, tenant ordering, or worker
    count.
    """
    if shards <= 0:
        raise ConfigurationError(f"shard count must be positive, got {shards}")
    x = (tenant_id + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x = x ^ (x >> 31)
    return x % shards


# (tenants, shards) -> the shard id of every tenant in range(tenants),
# in the narrowest unsigned dtype that holds shards - 1 (one byte per
# tenant at the default 64 shards). Filled on first use in each process;
# it holds the last fleet's map only, so its memory stays one map's.
_shard_maps: Dict[Tuple[int, int], object] = {}


def _hash_shards(np, ids, shards: int):
    """``shard_of(t, shards)`` for each ``t`` of a uint64 array, in the narrowest unsigned dtype."""
    x = (ids + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(_MASK64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(shards)).astype(np.min_scalar_type(shards - 1))


def _shard_map(np, tenants: int, shards: int):
    """``shard_of(t, shards)`` for every ``t`` in ``range(tenants)`` (cached)."""
    key = (tenants, shards)
    owners = _shard_maps.get(key)
    if owners is None:
        owners = _hash_shards(np, np.arange(tenants, dtype=np.uint64), shards)
        _shard_maps.clear()
        _shard_maps[key] = owners
    return owners


def shard_ids(np, tenant_ids, tenants: int, shards: int):
    """``shard_of(t, shards)`` for each ``t`` of an int64 array, in the narrowest unsigned dtype.

    Ids of a fleet of ``tenants`` read the cached shard map when it is
    no larger than the array; any others are hashed as they are (a
    negative id wraps to uint64 as ``shard_of`` masks it).
    """
    if (len(tenant_ids) and tenants <= len(tenant_ids)
            and int(tenant_ids.min()) >= 0 and int(tenant_ids.max()) < tenants):
        return _shard_map(np, tenants, shards)[tenant_ids]
    return _hash_shards(np, tenant_ids.astype(np.uint64), shards)


def shard_tenants(
    tenants: int, shard_id: int, shards: int = DEFAULT_LOGICAL_SHARDS
):
    """Ascending tenant ids owned by ``shard_id`` (vectorized when possible).

    Returns an int64 ``ndarray`` under numpy, a list under the
    fallback; the ids are identical either way (splitmix64 is exact
    integer math in both).

    Under numpy the shard map — the owning shard of every id in
    ``range(tenants)`` — is hashed once per ``(tenants, shards)`` in each
    process and kept in a module-level cache, like
    :func:`repro.sim.vecmath.lognormal_table`'s tables (the cache keeps
    only the last fleet's map). A worker that runs many shards of one
    fleet then only selects its ids from it.
    """
    if shards <= 0:
        raise ConfigurationError(f"shard count must be positive, got {shards}")
    np = vecmath.numpy_or_none()
    if np is None:
        return [t for t in range(tenants) if shard_of(t, shards) == shard_id]
    return np.flatnonzero(_shard_map(np, tenants, shards) == shard_id)


@dataclass(frozen=True)
class FleetConfig:
    """One sharded-fleet scenario: ``tenants`` accounts over ``days`` days.

    Defaults model the paper's setting at headline scale: a million
    personal deployments making ~1 request/day each for one virtual
    year, each Lambda at the prototype's 448 MB.

    ``plan`` sets the storage backend, the Lambda size (the handler's
    448 MB when unset) and the price book. ``invoice_total`` is the
    billed, free-tier invoice whatever ``plan.accounting`` says; a caller
    that wants marginal prices applies the plan to ``result.meter``, as
    :func:`repro.core.advisor.run_advisor_benchmark` does.
    """

    tenants: int = 1_000_000
    daily_requests: float = 1.0
    days: float = 365.0
    seed: int = 2017
    payload_bytes: int = 2048
    logical_shards: int = DEFAULT_LOGICAL_SHARDS
    chunk_events: int = DEFAULT_CHUNK_EVENTS
    latency_samples: int = DEFAULT_LATENCY_SAMPLES
    plan: DeploymentPlan = DEFAULT_PLAN
    # GB of at-rest state per tenant: 0.0 (the default) meters no
    # storage-month usage at all, keeping pre-plan invoices byte-identical.
    storage_gb_per_tenant: float = 0.0

    def __post_init__(self):
        if self.storage_gb_per_tenant < 0:
            raise ConfigurationError("per-tenant storage cannot be negative")
        if self.tenants <= 0:
            raise ConfigurationError("fleet needs at least one tenant")
        if self.daily_requests < 0:
            raise ConfigurationError("daily request rate cannot be negative")
        if self.days <= 0:
            raise ConfigurationError("fleet needs a positive duration")
        if self.logical_shards <= 0:
            raise ConfigurationError("fleet needs at least one logical shard")
        if self.chunk_events <= 0:
            raise ConfigurationError("chunk_events must be positive")
        if self.latency_samples <= 0:
            raise ConfigurationError("latency_samples must be positive")

    def components(self) -> Tuple[str, ...]:
        return handler_components(self.plan.storage)

    def expected_requests(self) -> float:
        return self.tenants * self.daily_requests * self.days

    def sample_stride(self) -> int:
        """Keep roughly ``latency_samples`` e2e samples fleet-wide.

        A pure function of the config (not of shard or worker count),
        applied to each shard's local event index — so the sampled set
        is invariant to how shards are scheduled onto workers.
        """
        return max(1, int(self.expected_requests()) // self.latency_samples)

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenants": self.tenants,
            "daily_requests": self.daily_requests,
            "days": self.days,
            "seed": self.seed,
            "memory_mb": plan_memory_mb(self.plan),
            "payload_bytes": self.payload_bytes,
            "logical_shards": self.logical_shards,
            "chunk_events": self.chunk_events,
            "latency_samples": self.latency_samples,
            "storage": self.plan.storage,
            "storage_gb_per_tenant": self.storage_gb_per_tenant,
        }


def _shard_rng(config: FleetConfig, shard_id: int, stream: str) -> SeededRng:
    return SeededRng(config.seed, f"fleet/shard-{shard_id}/{stream}")


def run_shard(
    config: FleetConfig, shard_id: int, collect_health: bool = False, record: bool = False
) -> ShardResult:
    """Simulate one logical shard on the vectorized kernels.

    The shard's tenants share one *pooled* diurnal workload at the sum
    of their rates (superposition), and each accepted arrival is
    assigned to a tenant by one uniform draw — the construction that
    turns a million per-tenant event loops into a handful of 1-D array
    passes. All RNG streams are namespaced by logical shard id, so the
    result is a pure function of ``(config, shard_id)``.

    With ``collect_health``, a shard-local
    :class:`~repro.obs.metrics.MetricsPlane` accumulates the same
    series :func:`repro.sim.scale.run_fleet` records (``fleet.requests``,
    ``fleet.billed_ms``, the ``fleet.request_us`` log histogram) and
    rides back on the result. Collection reads the already-computed
    latency blocks — no extra RNG draw — so billing stays byte-identical.
    With ``record``, the result also carries the shard's arrivals as
    ``at`` and global ``tenant`` columns, in draw order.
    """
    if not 0 <= shard_id < config.logical_shards:
        raise ConfigurationError(
            f"shard id {shard_id} out of range [0, {config.logical_shards})"
        )
    start = time.perf_counter()
    tenant_ids = shard_tenants(config.tenants, shard_id, config.logical_shards)
    n_t = len(tenant_ids)
    model = LatencyModel(rng=_shard_rng(config, shard_id, "latency"))
    fold = Fold(
        config.components(), model.sample_block_vec, plan_memory_mb(config.plan),
        stride=config.sample_stride(), n_tenants=n_t, health=health_plane(collect_health),
    )
    # A shard with no tenants (or a zero rate) pools a zero-rate workload,
    # which yields no chunks.
    workload = DiurnalWorkload(
        config.daily_requests * n_t,
        _shard_rng(config, shard_id, "workload"),
        HOURLY_PROFILE_PERSONAL,
    )
    assign_rng = _shard_rng(config, shard_id, "assign")
    np = vecmath.numpy_or_none()
    at_col: list = []
    tenant_col: list = []
    for chunk in workload.arrival_batches_vec(config.days, chunk=config.chunk_events):
        assign = assign_rng.uniform_block(len(chunk))
        # u < 1.0 can still round up to n_t at large n_t; clamp.
        if isinstance(assign, list):
            tenants = [min(int(u * n_t), n_t - 1) for u in assign]
            if record:
                at_col += chunk
                tenant_col += [tenant_ids[t] for t in tenants]
        else:
            tenants = (assign * n_t).astype(np.int64)
            np.minimum(tenants, n_t - 1, out=tenants)
            if record:
                at_col += chunk.tolist()
                tenant_col += tenant_ids[tenants].tolist()
        fold.chunk(len(chunk), at=chunk, tenants=tenants)
    result = fold.result(shard_id, tenant_ids, fold.events * config.payload_bytes, start)
    if record:
        result.at, result.tenant = at_col, tenant_col
    return result


def merge_shards(config: FleetConfig, results: Sequence[ShardResult]) -> ShardedFleetResult:
    """Fold every shard's result into the fleet, order-independently.

    :func:`repro.sim.fold.merge_results` checks that every logical
    shard is present exactly once and converts the merged integers to
    billable floats once; this adds the fleet's at-rest storage months
    when the config meters any. The invoice is priced on first use.
    """
    merged = merge_results(results, config.tenants, config.logical_shards, config.plan)
    if config.storage_gb_per_tenant > 0:
        gb_months = (
            config.storage_gb_per_tenant * config.tenants
            * config.days / DAYS_PER_MONTH
        )
        storage_kind = (
            UsageKind.DYNAMO_STORAGE_GB_MONTH if config.plan.storage == "dynamo"
            else UsageKind.S3_STORAGE_GB_MONTH
        )
        merged.meter.record(storage_kind, gb_months)
    merged.config = config
    return merged


def _pool_context():
    """Prefer fork (cheap, shares the loaded tables); fall back to spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-forking platforms
        return multiprocessing.get_context()


def _run_jobs(fn: Callable, jobs: Sequence[tuple]) -> list:
    return [fn(*job) for job in jobs]


def map_shards(fn: Callable, jobs: Sequence[tuple], workers: int) -> list:
    """``[fn(*job) for job in jobs]``, inline or on a worker pool, in job order.

    ``fn`` must be a module-level function so the pool can pickle it.
    Results come back in job order whatever the worker count, which is
    what makes every merge downstream worker-count invariant. A job that
    raises re-raises here at once, without waiting for the other jobs; a
    worker that dies (``os._exit``, an OOM kill) breaks the pool, and the
    run fails with a :class:`SimulationError` naming the jobs that did
    not finish instead of waiting forever.
    """
    if workers <= 0:
        raise ConfigurationError(f"worker count must be positive, got {workers}")
    if workers == 1 or len(jobs) == 1:
        return _run_jobs(fn, jobs)
    # Imported here: the pool machinery costs a run that never forks.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool_size = min(workers, len(jobs))
    chunksize = max(1, len(jobs) // (pool_size * 4))
    starts = range(0, len(jobs), chunksize)
    pool = ProcessPoolExecutor(pool_size, mp_context=_pool_context())
    futures: list = []
    finished = False
    try:
        for lo in starts:
            futures.append(pool.submit(_run_jobs, fn, jobs[lo:lo + chunksize]))
        results = [result for future in futures for result in future.result()]
        finished = True
    except BrokenProcessPool as exc:
        lost = [
            index
            for lo, future in itertools.zip_longest(starts, futures)
            if future is None or isinstance(future.exception(), BrokenProcessPool)
            for index in range(lo, min(lo + chunksize, len(jobs)))
        ]
        raise SimulationError(
            f"a shard worker died: jobs {lost} of {len(jobs)} did not finish"
        ) from exc
    finally:
        # On an error or an interrupt, drop the queued chunks and return
        # at once instead of waiting for the running ones to finish.
        pool.shutdown(wait=finished, cancel_futures=not finished)
    return results


def run_sharded(
    shard_fn: Callable[..., ShardResult],
    jobs: Sequence[tuple],
    merge: Callable[[List[ShardResult]], ShardedFleetResult],
    workers: int,
) -> ShardedFleetResult:
    """Run one ``shard_fn(*job)`` per logical shard, merge, and price once.

    ``workers`` only controls scheduling, so the merged result is
    byte-identical for any worker count. The ``simulate``, ``merge``,
    and ``invoice`` phases are timed apart.
    """
    perf = PerfCounters()
    with perf.phase("simulate"):
        results = map_shards(shard_fn, jobs, workers)
    with perf.phase("merge"):
        merged = merge(results)
    with perf.phase("invoice"):
        merged.invoice_total  # the first use prices the merged meter
    merged.workers = workers
    perf.set("events", merged.events)
    perf.set("samples_drawn", merged.samples_drawn)
    perf.set("shard_seconds", sum(r.run_seconds for r in results))
    merged.perf = perf
    return merged


def _record_shards(recorder, config: FleetConfig, results: Sequence[ShardResult]) -> None:
    """Feed the shards' arrivals to ``recorder`` in shard-id order, then drop them.

    The recorder's stable time sort then makes the trace the same on any
    worker count.
    """
    recorder.set_plan(config.plan)
    recorder.set_engine(latency_stream="fleet", chunk_events=config.chunk_events,
                        logical_shards=config.logical_shards,
                        sample_stride=config.sample_stride())
    for result in sorted(results, key=lambda r: r.shard_id):
        recorder.record_fleet_chunk(result.at, result.tenant, config.payload_bytes)
        result.at = result.tenant = None


def run_fleet_sharded(
    config: FleetConfig,
    workers: int = 1,
    collect_health: bool = False,
    recorder=None,
) -> ShardedFleetResult:
    """Run every logical shard — inline or on a worker pool — and merge.

    ``workers`` only controls scheduling: each worker process runs
    whole logical shards through :func:`run_shard`, so the merged
    result is byte-identical for any worker count
    (``tests/sim/test_shard_fleet.py`` pins 1 vs 2 vs 8). With
    ``collect_health``, each shard carries a local metrics plane and
    the merge folds them — the merged exposition is byte-identical
    across worker counts too (the digest gains ``exposition_sha256``).

    ``recorder``, a :class:`~repro.sim.replay.TraceRecorder` over the
    config's tenants, receives every arrival; replaying its trace with
    the config's seed reproduces this run's determinism digest. A trace
    cannot carry at-rest storage, so recording refuses a config that
    meters ``storage_gb_per_tenant``.
    """
    record = recorder is not None
    if record and config.storage_gb_per_tenant > 0:
        raise ConfigurationError("a trace cannot carry per-tenant storage")
    if record and recorder.tenants != config.tenants:
        raise ConfigurationError(
            f"the recorder declares {recorder.tenants} tenants, the fleet runs {config.tenants}"
        )
    jobs = [
        (config, shard_id, collect_health, record)
        for shard_id in range(config.logical_shards)
    ]

    def merge(results: List[ShardResult]) -> ShardedFleetResult:
        if record:
            _record_shards(recorder, config, results)
        return merge_shards(config, results)

    return run_sharded(run_shard, jobs, merge, workers)

