"""The fleet configs' one ``plan`` field, and the DESIGN §5 properties over plans.

* A config is built from a :class:`DeploymentPlan`, so a Lambda size
  no plan accepts fails when the config is built, naming ``memory_mb``.
* The ``config`` blocks the benchmarks write keep their keys and values.
* Properties, each over a few small plans and configs:
  - record→replay through ``run_replay_batched`` is a fixpoint;
  - ``trace_plan`` of a recorded header bills like the recording plan,
    and a default plan records nothing;
  - ``run_fleet_sharded`` and ``run_replay_sharded`` are byte-identical
    on 1 and 2 workers, and with numpy on and off.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _optional
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsPlane
from repro.plan import DEFAULT_PLAN, DeploymentPlan
from repro.runtime.store import STORAGE_BACKENDS
from repro.sim.fold import plan_memory_mb
from repro.sim.replay import (
    ReplayConfig,
    TraceRecorder,
    read_trace,
    run_replay_batched,
    run_replay_sharded,
    trace_plan,
    write_trace,
)
from repro.sim.scale import ChaosConfig, ScaleConfig, run_fleet
from repro.sim.shard import FleetConfig, run_fleet_sharded

CONFIGS = (ScaleConfig, ChaosConfig, FleetConfig)

plans = st.builds(
    DeploymentPlan,
    memory_mb=st.none() | st.sampled_from((128, 448, 1024, 1536)),
    storage=st.sampled_from(STORAGE_BACKENDS),
    cached=st.booleans(),
    accounting=st.sampled_from(("billed", "marginal")),
)


def _bills(plan: DeploymentPlan):
    return plan.storage, plan_memory_mb(plan), plan.price_book


def _record(config: ScaleConfig, health=None):
    recorder = TraceRecorder(name="prop", seed=config.seed, tenants=config.tenants)
    result = run_fleet(config, recorder=recorder, health=health)
    return result, recorder.trace()


class TestPlanField:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("memory_mb", [0, 100_000, 1000, -512])
    def test_an_undeployable_size_fails_when_the_config_is_built(self, config, memory_mb):
        with pytest.raises(ConfigurationError, match="memory_mb"):
            config(tenants=1, plan=DeploymentPlan(memory_mb=memory_mb))

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.__name__)
    def test_config_blocks_keep_memory_and_storage(self, config):
        assert config().as_dict()["memory_mb"] == 448
        assert config().as_dict()["storage"] == "s3"
        tuned = config(plan=DeploymentPlan(memory_mb=1024, storage="dynamo")).as_dict()
        assert (tuned["memory_mb"], tuned["storage"]) == (1024, "dynamo")


class TestPlanProperties:
    @settings(max_examples=8, deadline=None)
    @given(
        memory_mb=st.sampled_from((128, 448, 1024)),
        storage=st.sampled_from(STORAGE_BACKENDS),
        chunk=st.sampled_from((16, 4096)),
        tenants=st.integers(1, 3),
    )
    def test_record_replay_is_a_fixpoint(self, memory_mb, storage, chunk, tenants):
        config = ScaleConfig(
            tenants=tenants, daily_requests=120.0, days=0.5, seed=31, chunk=chunk,
            plan=DeploymentPlan(memory_mb=memory_mb, storage=storage),
        )
        recorded_plane, replay_plane = MetricsPlane(), MetricsPlane()
        recorded, trace = _record(config, health=recorded_plane)
        replayed = run_replay_batched(trace, config, health=replay_plane)
        assert replayed.invoice_total == recorded.invoice_total
        assert replayed.per_tenant_arrivals == recorded.per_tenant_arrivals
        assert replayed.total_billed_ms == recorded.total_billed_ms
        assert replay_plane.to_jsonl() == recorded_plane.to_jsonl()

    @settings(max_examples=20, deadline=None)
    @given(plan=plans)
    def test_the_header_bills_like_the_recording_plan(self, tmp_path_factory, plan):
        recorder = TraceRecorder(name="plan", seed=1, tenants=1)
        recorder.record_fleet_chunk(0, [0, 5], 2048)
        recorder.set_plan(plan)
        path = tmp_path_factory.mktemp("plan") / "plan.jsonl"
        write_trace(path, recorder.trace())
        header = read_trace(path).header
        assert _bills(trace_plan(header)) == _bills(plan)
        assert (header.meta == ()) == (_bills(plan) == _bills(DEFAULT_PLAN))

    @settings(max_examples=3, deadline=None)
    @given(plan=plans, tenants=st.integers(20, 200))
    def test_sharded_runs_ignore_workers_and_numpy(self, plan, tenants):
        fleet = FleetConfig(tenants=tenants, daily_requests=4.0, days=1.0, seed=7,
                            logical_shards=4, latency_samples=64, plan=plan)
        _, trace = _record(ScaleConfig(tenants=3, daily_requests=80.0, days=0.5,
                                       seed=7, plan=plan))
        replay = ReplayConfig(seed=7, logical_shards=4, latency_samples=64)

        def digests(workers):
            return (run_fleet_sharded(fleet, workers=workers).determinism_digest(),
                    run_replay_sharded(trace, replay, workers=workers).determinism_digest())

        one = digests(1)
        assert digests(2) == one
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_optional, "_FORCE_FALLBACK", True)
            assert digests(1) == one
