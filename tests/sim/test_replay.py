"""The replay subsystem: trace format, recorder, and both replay engines.

The load-bearing claims, each pinned here:

* the trace format is canonical — same trace, same bytes, even through
  gzip — and the validator rejects malformed files at the right line;
* recording is pure observation — a recorded fleet run bills and counts
  exactly like an unrecorded one;
* record→replay is a fixpoint — replaying a recorded trace per tenant
  reproduces the invoice, per-tenant counts, and SLA report
  byte-for-byte, on every storage backend;
* sharded replay is byte-identical across worker counts and with or
  without numpy, and bills the storage backend the trace was recorded on;
* chaos replay keeps the paper's SLA: 100% eventual delivery.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro import _optional
from repro.cloud.billing import UsageKind
from repro.cloud.pricing import PRICE_BOOKS, PRICES_2017
from repro.errors import ConfigurationError
from repro.plan import DEFAULT_PLAN, DeploymentPlan
from repro.sim.replay import (
    ReplayConfig,
    Trace,
    TraceEvent,
    TraceFormatError,
    TraceRecorder,
    fleet_sla_report,
    iter_trace,
    partition_trace,
    read_trace,
    run_replay_batched,
    run_replay_chaos,
    run_replay_sharded,
    sort_events,
    trace_plan,
    write_trace,
)
from repro.sim.replay.format import TraceHeader, event_line
from repro.sim.scale import ScaleConfig, run_fleet
from repro.sim.scenarios import build_scenario
from repro.sim.shard import shard_of
from repro.units import seconds


def _small_trace(events=12, tenants=3, name="unit", seed=7) -> Trace:
    evs = [
        TraceEvent(
            at_micros=i * 250_000,
            tenant=i % tenants,
            payload_bytes=1000 + i,
            actor=f"dev-{i % 2}",
        )
        for i in range(events)
    ]
    return Trace(TraceHeader(name=name, seed=seed, tenants=tenants), evs)


class TestFormat:
    def test_round_trip_plain_and_gz(self, tmp_path):
        trace = _small_trace()
        for suffix in ("jsonl", "jsonl.gz"):
            path = tmp_path / f"t.{suffix}"
            assert write_trace(path, trace) == len(trace.events)
            back = read_trace(path)
            assert back.header.name == trace.header.name
            assert back.header.seed == trace.header.seed
            assert back.events == trace.events
            assert back.digest() == trace.digest()

    def test_gzip_bytes_are_deterministic(self, tmp_path):
        trace = _small_trace()
        a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        write_trace(a, trace)
        write_trace(b, trace)
        assert a.read_bytes() == b.read_bytes()

    def test_iter_trace_streams_header_then_events(self, tmp_path):
        trace = _small_trace()
        path = tmp_path / "t.jsonl"
        write_trace(path, trace)
        stream = iter_trace(path)
        header = next(stream)
        assert header.events == len(trace.events)
        assert list(stream) == trace.events

    def test_defaults_are_omitted_from_event_lines(self):
        line = event_line(TraceEvent(at_micros=5, tenant=0))
        assert "actor" not in line and "meta" not in line
        # ... but non-defaults serialize.
        rich = event_line(TraceEvent(at_micros=5, tenant=0, actor="a", meta=(("k", 1),)))
        assert '"actor":"a"' in rich and '"meta":{"k":1}' in rich

    def test_unsorted_timestamps_rejected(self, tmp_path):
        trace = _small_trace()
        trace.events.reverse()
        with pytest.raises(TraceFormatError, match="precedes"):
            write_trace(tmp_path / "bad.jsonl", trace)
        assert sort_events(trace.events) == sorted(trace.events, key=lambda e: e.at_micros)

    def test_tenant_out_of_range_rejected(self):
        trace = _small_trace()
        trace.events.append(TraceEvent(at_micros=10**9, tenant=99))
        with pytest.raises(TraceFormatError, match="tenant 99"):
            trace.validate()

    def test_reader_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "v9.jsonl"
        path.write_text(
            '{"format":"repro-trace","version":9,"name":"x","seed":0,'
            '"tenants":1,"events":0}\n'
        )
        with pytest.raises(TraceFormatError, match="version"):
            read_trace(path)

    def test_reader_rejects_event_count_mismatch(self, tmp_path):
        trace = _small_trace(events=4)
        path = tmp_path / "t.jsonl"
        write_trace(path, trace)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last event
        with pytest.raises(TraceFormatError, match="declares 4"):
            read_trace(path)

    def test_reader_reports_offending_line(self, tmp_path):
        trace = _small_trace(events=3)
        path = tmp_path / "t.jsonl"
        write_trace(path, trace)
        lines = path.read_text().splitlines()
        lines[2] = '{"at":-5,"tenant":0,"app":"a","route":"/r","bytes":1}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            read_trace(path)

    def test_reader_rejects_unknown_storage(self, tmp_path):
        path = tmp_path / "disk.jsonl"
        path.write_text(
            '{"format":"repro-trace","version":1,"name":"x","seed":0,'
            '"tenants":1,"events":0,"meta":{"storage":"floppy"}}\n'
        )
        with pytest.raises(TraceFormatError, match="line 1: .*'floppy'"):
            read_trace(path)

    def test_s3_traces_keep_a_bare_header(self):
        recorder = TraceRecorder(name="bare", seed=1, tenants=1)
        recorder.set_plan(DeploymentPlan(storage="dynamo", memory_mb=1024))
        recorder.set_plan(DeploymentPlan(storage="s3", memory_mb=448))
        assert recorder.trace().header.meta == ()

    def test_digest_covers_every_field(self):
        base = _small_trace()
        renamed = Trace(TraceHeader("other", base.header.seed, base.header.tenants),
                        list(base.events))
        assert renamed.digest() != base.digest()
        edited = Trace(base.header, list(base.events))
        edited.events[0] = TraceEvent(at_micros=0, tenant=0, payload_bytes=999_999)
        assert edited.digest() != base.digest()


FIXPOINT_CONFIG = ScaleConfig(tenants=4, daily_requests=300.0, days=1.0, seed=99)


class TestRecordReplayFixpoint:
    def test_recording_is_pure_observation(self):
        plain = run_fleet(FIXPOINT_CONFIG)
        recorder = TraceRecorder(
            name="fix", seed=FIXPOINT_CONFIG.seed, tenants=FIXPOINT_CONFIG.tenants
        )
        recorded = run_fleet(FIXPOINT_CONFIG, recorder=recorder)
        assert recorded.invoice_total == plain.invoice_total
        assert recorded.per_tenant_arrivals == plain.per_tenant_arrivals
        assert recorded.total_billed_ms == plain.total_billed_ms
        assert len(recorder.trace().events) == plain.arrivals

    @pytest.mark.parametrize("storage", ["s3", "dynamo"])
    def test_replay_reproduces_the_recorded_run(self, tmp_path, storage):
        config = replace(FIXPOINT_CONFIG, plan=DeploymentPlan(storage=storage))
        recorder = TraceRecorder(name="fix", seed=config.seed, tenants=config.tenants)
        recorded = run_fleet(config, recorder=recorder)
        path = tmp_path / "fix.jsonl.gz"
        recorder.write(path)

        replayed = run_replay_batched(read_trace(path), config)
        # The fixpoint: invoice, per-tenant counts, billed time, and the
        # SLA report all byte-identical to the recorded run.
        assert replayed.invoice_total == recorded.invoice_total
        assert replayed.arrivals == recorded.arrivals
        assert replayed.per_tenant_arrivals == recorded.per_tenant_arrivals
        assert replayed.total_billed_ms == recorded.total_billed_ms
        recorded_report = fleet_sla_report(recorded.arrivals)
        assert json.dumps(replayed.report, sort_keys=True) == \
            json.dumps(recorded_report, sort_keys=True)

    def test_replay_rejects_a_storage_the_trace_was_not_recorded_on(self):
        recorder = TraceRecorder(name="fix", seed=FIXPOINT_CONFIG.seed,
                                 tenants=FIXPOINT_CONFIG.tenants)
        run_fleet(replace(FIXPOINT_CONFIG, plan=DeploymentPlan(storage="dynamo")),
                  recorder=recorder)
        with pytest.raises(ConfigurationError, match="recorded on 'dynamo'"):
            run_replay_batched(recorder.trace(), FIXPOINT_CONFIG)

    def test_edited_trace_bills_the_edited_bytes(self, tmp_path):
        recorder = TraceRecorder(
            name="fix", seed=FIXPOINT_CONFIG.seed, tenants=FIXPOINT_CONFIG.tenants
        )
        run_fleet(FIXPOINT_CONFIG, recorder=recorder)
        trace = recorder.trace()
        bigger = Trace(trace.header, [
            TraceEvent(e.at_micros, e.tenant, e.app, e.route, e.payload_bytes * 1000)
            for e in trace.events
        ])
        baseline = run_replay_batched(trace, FIXPOINT_CONFIG)
        inflated = run_replay_batched(bigger, FIXPOINT_CONFIG)
        assert inflated.arrivals == baseline.arrivals
        assert float(inflated.invoice_total.lstrip("$")) > \
            float(baseline.invoice_total.lstrip("$"))


class TestRecordedMemory:
    """A trace records a non-default Lambda size, and replay bills only that size."""

    CONFIG = ScaleConfig(plan=DeploymentPlan(memory_mb=1024), tenants=4,
                         daily_requests=2000.0, days=1.0, seed=99)

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        recorder = TraceRecorder(name="mem", seed=self.CONFIG.seed, tenants=self.CONFIG.tenants)
        live = run_fleet(self.CONFIG, recorder=recorder)
        path = tmp_path_factory.mktemp("mem") / "mem.jsonl.gz"
        recorder.write(path)
        return live, read_trace(path)

    def test_header_records_the_size(self, recorded):
        _, trace = recorded
        assert trace.header.meta == (("memory_mb", 1024),)
        assert trace_plan(trace.header) == DeploymentPlan(memory_mb=1024)

    def test_batched_replay_refuses_another_size(self, recorded):
        _, trace = recorded
        default = replace(self.CONFIG, plan=DEFAULT_PLAN)
        with pytest.raises(ConfigurationError,
                           match="recorded at 1024 MB, but the replay config bills 448 MB"):
            run_replay_batched(trace, default)

    def test_batched_replay_at_the_recorded_size_is_the_fixpoint(self, recorded):
        live, trace = recorded
        replayed = run_replay_batched(trace, self.CONFIG)
        assert replayed.total_billed_ms == live.total_billed_ms
        assert replayed.invoice_total == live.invoice_total
        # What replay billed before the header carried the size.
        silent = Trace(replace(trace.header, meta=()), trace.events)
        assert run_replay_batched(silent, replace(self.CONFIG, plan=DEFAULT_PLAN)) \
            .total_billed_ms != live.total_billed_ms

    def test_sharded_replay_bills_the_recorded_size(self, recorded):
        _, trace = recorded
        result = run_replay_sharded(trace, ReplayConfig(seed=99, logical_shards=8))
        assert result.events == len(trace)
        # 1024 MB is one GB: each billed 100 ms unit is 0.1 GB-second.
        assert result.meter.total(UsageKind.LAMBDA_GB_SECONDS) == \
            result.billed_units * 100 * (1024 / 1024) / 1000.0
        silent = Trace(replace(trace.header, meta=()), trace.events)
        at_448 = run_replay_sharded(silent, ReplayConfig(seed=99, logical_shards=8))
        assert at_448.meter.total(UsageKind.LAMBDA_GB_SECONDS) == \
            at_448.billed_units * 100 * (448 / 1024) / 1000.0

    @pytest.mark.parametrize("value", ['"big"', "0", "true", "1.5"])
    def test_reader_rejects_a_bad_size(self, tmp_path, value):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format":"repro-trace","version":1,"name":"x","seed":0,'
            f'"tenants":1,"events":0,"meta":{{"memory_mb":{value}}}}}\n'
        )
        with pytest.raises(TraceFormatError,
                           match="trace line 1: trace meta memory_mb must be a positive int"):
            read_trace(path)

    def test_reader_rejects_a_size_lambda_does_not_offer(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text(
            '{"format":"repro-trace","version":1,"name":"x","seed":0,'
            '"tenants":1,"events":0,"meta":{"memory_mb":1000}}\n'
        )
        with pytest.raises(TraceFormatError,
                           match="trace line 1: trace meta memory_mb must be a deployable size"):
            read_trace(path)


class TestRecordedPlan:
    """The header's flat plan keys: older headers, the price book, and chaos replay."""

    def test_an_older_header_reads_and_replays_at_its_values(self, tmp_path):
        # Written by hand the way traces were before the price book was
        # recorded: flat ``storage`` and ``memory_mb`` keys only.
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"format":"repro-trace","version":1,"name":"old","seed":3,"tenants":2,'
            '"events":3,"meta":{"memory_mb":1024,"storage":"dynamo"}}\n'
            '{"app":"fleet","at":0,"bytes":2048,"route":"/fleet/request","tenant":0}\n'
            '{"app":"fleet","at":5,"bytes":2048,"route":"/fleet/request","tenant":1}\n'
            '{"app":"fleet","at":9,"bytes":2048,"route":"/fleet/request","tenant":0}\n'
        )
        trace = read_trace(path)
        assert trace_plan(trace.header) == DeploymentPlan(storage="dynamo", memory_mb=1024)
        result = run_replay_sharded(trace, ReplayConfig(seed=3, logical_shards=4))
        assert result.meter.total(UsageKind.DYNAMO_WRITES) == 3.0
        assert result.meter.total(UsageKind.S3_PUT) == 0.0
        assert result.meter.total(UsageKind.LAMBDA_GB_SECONDS) == \
            result.billed_units * 100 * (1024 / 1024) / 1000.0
        batched = run_replay_batched(trace, ScaleConfig(
            tenants=2, seed=3, plan=DeploymentPlan(storage="dynamo", memory_mb=1024)))
        assert batched.per_tenant_arrivals == (2, 1)

    def test_header_records_a_non_default_price_book(self, monkeypatch):
        monkeypatch.setitem(PRICE_BOOKS, "2018", PRICES_2017)
        plan = DeploymentPlan(price_book="2018")
        config = replace(FIXPOINT_CONFIG, plan=plan)
        recorder = TraceRecorder(name="book", seed=config.seed, tenants=config.tenants)
        recorded = run_fleet(config, recorder=recorder)
        trace = recorder.trace()
        assert trace.header.meta == (("price_book", "2018"),)
        assert trace_plan(trace.header) == plan
        assert run_replay_batched(trace, config).invoice_total == recorded.invoice_total
        with pytest.raises(ConfigurationError,
                           match="recorded with the '2018' price book, "
                                 "but the replay config bills '2017'"):
            run_replay_batched(trace, FIXPOINT_CONFIG)

    def test_chaos_replay_deploys_the_recorded_plan(self, monkeypatch):
        from repro.apps import chat

        config = ScaleConfig(tenants=1, daily_requests=20, days=0.5,
                             plan=DeploymentPlan(storage="dynamo", memory_mb=1024))
        recorder = TraceRecorder(name="chaos-plan", seed=config.seed, tenants=1)
        run_fleet(config, recorder=recorder)
        deployed = []

        def spy(*args, **kwargs):
            manifest = real(*args, **kwargs)
            deployed.append(manifest)
            return manifest

        real = chat.chat_manifest
        monkeypatch.setattr(chat, "chat_manifest", spy)
        record = run_replay_chaos(recorder.trace(), chaos=False)
        assert record["fleet"]["eventual_delivery_rate"] == 1.0
        assert len(deployed) == 1
        (handler,) = [fn for fn in deployed[0].functions if fn.name_suffix == "handler"]
        assert handler.memory_mb == 1024
        assert ("DIY_STORAGE", "dynamo") in handler.environment


class TestShardedReplay:
    def test_partition_preserves_events_and_uses_shard_of(self):
        trace = build_scenario("backup-day", seed=5)
        shards = partition_trace(trace, shards=16)
        assert sum(len(col[0]) for col in shards) == len(trace.events)
        for shard_id, (ats, tenants, payloads) in enumerate(shards):
            assert len(ats) == len(tenants) == len(payloads)
            assert all(shard_of(t, 16) == shard_id for t in tenants)
            assert ats == sorted(ats)  # trace order survives partitioning

    def test_byte_identical_across_worker_counts(self):
        trace = build_scenario("backup-day", seed=5)
        config = ReplayConfig(seed=5, logical_shards=16)
        digests = [
            run_replay_sharded(trace, config, workers=w).determinism_digest()
            for w in (1, 2, 4)
        ]
        assert digests[0] == digests[1] == digests[2]

    def test_byte_identical_without_numpy(self, monkeypatch):
        trace = build_scenario("mailing-list-storm", seed=3)
        config = ReplayConfig(seed=3, logical_shards=8)
        with_numpy = run_replay_sharded(trace, config).determinism_digest()
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", True)
        assert run_replay_sharded(trace, config).determinism_digest() == with_numpy

    def test_merged_totals_match_the_trace(self):
        trace = build_scenario("backup-day", seed=5)
        result = run_replay_sharded(trace, ReplayConfig(seed=5))
        assert result.events == len(trace.events)
        assert result.payload_bytes == sum(e.payload_bytes for e in trace.events)
        counts = [0] * trace.header.tenants
        for event in trace.events:
            counts[event.tenant] += 1
        assert result.tenant_counts == counts

    @pytest.mark.parametrize("storage,write,absent", [
        ("s3", UsageKind.S3_PUT, UsageKind.DYNAMO_WRITES),
        ("dynamo", UsageKind.DYNAMO_WRITES, UsageKind.S3_PUT),
    ])
    def test_bills_the_recorded_storage_backend(self, tmp_path, storage, write, absent):
        config = ScaleConfig(tenants=3, daily_requests=300.0, days=1.0, seed=5,
                             plan=DeploymentPlan(storage=storage))
        recorder = TraceRecorder(name="store", seed=config.seed, tenants=config.tenants)
        recorded = run_fleet(config, recorder=recorder)
        path = tmp_path / "store.jsonl.gz"
        recorder.write(path)
        result = run_replay_sharded(read_trace(path), ReplayConfig(seed=5, logical_shards=8))
        assert result.events == recorded.arrivals
        assert result.meter.total(write) == float(result.events)
        assert result.meter.total(absent) == 0.0


class TestChaosReplay:
    TRACE = Trace(
        TraceHeader(name="chaos-mini", seed=11, tenants=2),
        sort_events(
            TraceEvent(at_micros=i * int(seconds(2)), tenant=i % 2)
            for i in range(10)
        ),
    )

    def test_eventual_delivery_is_total(self):
        record = run_replay_chaos(self.TRACE, error_rate=0.02)
        assert record["fleet"]["eventual_delivery_rate"] == 1.0
        assert record["fleet"]["expected"] == len(self.TRACE.events)
        assert len(record["per_tenant"]) == 2

    def test_chaos_replay_counters_pinned(self):
        fleet = run_replay_chaos(self.TRACE, error_rate=0.02)["fleet"]
        assert fleet["retries"] == 10
        assert fleet["failures"] == 10
        assert fleet["failure_kinds"] == {"RegionUnavailable": 8, "ThrottledError": 2}
        assert fleet["injected_faults"] == {"gateway:throttle": 2, "s3:latency": 2}
        assert fleet["latency_ms"]["p99"] == 24232.131

    def test_chaos_replay_attributes_downtime(self):
        record = run_replay_chaos(self.TRACE, error_rate=0.02)
        # Each tenant's schedule holds one 500 ms regional outage.
        assert record["fleet"]["downtime_micros"] == {"us-west-2": 1_000_000}
        for report in record["per_tenant"]:
            assert report["downtime_micros"] == {"us-west-2": 500_000}
            assert report["undelivered"] == []

    def test_chaos_replay_is_deterministic(self):
        first = run_replay_chaos(self.TRACE, error_rate=0.02)
        again = run_replay_chaos(self.TRACE, error_rate=0.02)
        assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_control_run_sees_no_faults(self):
        control = run_replay_chaos(self.TRACE, chaos=False)
        assert control["fleet"]["eventual_delivery_rate"] == 1.0
        assert control["fleet"]["retries"] == 0
