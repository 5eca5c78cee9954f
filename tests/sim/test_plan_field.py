"""The fleet configs' one ``plan`` field, and the DESIGN §5 properties over plans.

* A config is built from a :class:`DeploymentPlan`, so a Lambda size
  no plan accepts fails when the config is built, naming ``memory_mb``.
* The ``config`` blocks the benchmarks write keep their keys and values.
* Properties, each over a few small plans and configs:
  - record→replay on the sharded engine is a fixpoint: the replay's
    determinism digest, health exposition included, is the recording's,
    on 1 and 2 workers and with numpy on and off;
  - ``trace_plan`` of a recorded header bills like the recording plan,
    and a default plan records nothing;
  - ``run_fleet_sharded`` and ``run_replay_sharded`` are byte-identical
    on 1 and 2 workers, and with numpy on and off.
* A chat exchange recorded at a provider's gateway carries the
  provider's plan in its header.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CloudProvider, _optional
from repro.apps.chat import ChatClient, ChatService, chat_manifest
from repro.core.deployment import Deployer
from repro.errors import ConfigurationError
from repro.plan import DEFAULT_PLAN, DeploymentPlan
from repro.runtime.store import STORAGE_BACKENDS
from repro.sim.fold import plan_memory_mb
from repro.sim.replay import (
    ReplayConfig,
    TraceRecorder,
    read_trace,
    run_replay_sharded,
    trace_plan,
    write_trace,
)
from repro.sim.replay.format import PLAN_META_DEFAULTS
from repro.sim.scale import ChaosConfig, ScaleConfig
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


def _record(config: FleetConfig, workers: int = 1, collect_health: bool = False):
    recorder = TraceRecorder(name="prop", seed=config.seed, tenants=config.tenants)
    result = run_fleet_sharded(config, workers=workers, collect_health=collect_health,
                               recorder=recorder)
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
    @settings(max_examples=10, deadline=None)
    @given(
        memory_mb=st.sampled_from((128, 448, 1024)),
        storage=st.sampled_from(STORAGE_BACKENDS),
        tenants=st.integers(1, 40),
        chunk_events=st.sampled_from((7, 64, 1 << 18)),
        logical_shards=st.sampled_from((1, 3, 64)),
        latency_samples=st.sampled_from((50, 1 << 16)),
        workers=st.sampled_from((1, 2)),
        numpy=st.booleans(),
    )
    def test_record_replay_is_a_fixpoint(self, tmp_path_factory, memory_mb, storage, tenants,
                                         chunk_events, logical_shards, latency_samples,
                                         workers, numpy):
        config = FleetConfig(
            tenants=tenants, daily_requests=60.0, days=0.5, seed=31,
            chunk_events=chunk_events, logical_shards=logical_shards,
            latency_samples=latency_samples,
            plan=DeploymentPlan(memory_mb=memory_mb, storage=storage),
        )
        path = tmp_path_factory.mktemp("fix") / "fix.jsonl.gz"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_optional, "_FORCE_FALLBACK", not numpy)
            recorded, trace = _record(config, workers=workers, collect_health=True)
            write_trace(path, trace)
            replayed = run_replay_sharded(read_trace(path), ReplayConfig(seed=config.seed),
                                          workers=workers, collect_health=True)
        digest = replayed.determinism_digest()
        assert digest.pop("trace_sha256") == trace.digest()
        assert digest.pop("payload_bytes") == recorded.payload_bytes
        assert "exposition_sha256" in digest
        assert digest == recorded.determinism_digest()

    @settings(max_examples=20, deadline=None)
    @given(plan=plans)
    def test_the_header_bills_like_the_recording_plan(self, tmp_path_factory, plan):
        recorder = TraceRecorder(name="plan", seed=1, tenants=1)
        recorder.record_fleet_chunk([0, 5], [0, 0], 2048)
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
        _, trace = _record(replace(fleet, tenants=3, daily_requests=80.0, days=0.5))
        replay = ReplayConfig(seed=7)

        def digests(workers):
            return (run_fleet_sharded(fleet, workers=workers).determinism_digest(),
                    run_replay_sharded(trace, replay, workers=workers).determinism_digest())

        one = digests(1)
        assert digests(2) == one
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_optional, "_FORCE_FALLBACK", True)
            assert digests(1) == one


def _record_chat(plan: DeploymentPlan, path):
    """A two-client chat exchange recorded at the gateway of a provider at ``plan``."""
    provider = CloudProvider(seed=1, plan=plan)
    recorder = provider.enable_recording()
    service = ChatService(Deployer(provider).deploy(chat_manifest(plan=plan), owner="alice"))
    service.create_room("room", ["alice@diy", "bob@diy"])
    alice, bob = ChatClient(service, "alice@diy"), ChatClient(service, "bob@diy")
    for client in (alice, bob):
        client.join("room")
        client.connect()
    alice.send("room", "hello")
    assert [message.body for message in bob.poll()] == ["hello"]
    recorder.write(path)
    return read_trace(path)


class TestGatewayRecording:
    def test_the_header_holds_the_provider_plan(self, tmp_path):
        plan = DeploymentPlan(memory_mb=1024, storage="dynamo")
        trace = _record_chat(plan, tmp_path / "chat.jsonl.gz")
        assert len(trace) > 0
        recorded = trace_plan(trace.header)
        assert (recorded.memory_mb, recorded.storage) == (1024, "dynamo")
        assert _bills(recorded) == _bills(plan)

    def test_a_default_plan_writes_no_plan_keys(self, tmp_path):
        trace = _record_chat(DEFAULT_PLAN, tmp_path / "chat.jsonl.gz")
        assert len(trace) > 0
        assert not set(trace.header.meta_dict()) & set(PLAN_META_DEFAULTS)
