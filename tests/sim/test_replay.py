"""The replay subsystem: trace format, recorder, and both replay engines.

The load-bearing claims, each pinned here:

* the trace format is canonical — same trace, same bytes, even through
  gzip — and the validator rejects malformed files at the offending
  event, engine keys in the header included;
* recording is pure observation — a recorded sharded fleet run bills
  and counts exactly like an unrecorded one;
* record→replay is a fixpoint — replaying a recorded trace reproduces
  the run's determinism digest (invoice, per-tenant counts, SLA report)
  byte-for-byte, on every storage backend (the property over plans and
  configs is in ``test_plan_field.py``);
* sharded replay is byte-identical across worker counts and with or
  without numpy, and bills the storage backend the trace was recorded on;
* chaos replay keeps the paper's SLA: 100% eventual delivery.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import _optional
from repro.cloud.billing import UsageKind
from repro.cloud.pricing import PRICE_BOOKS, PRICES_2017
from repro.errors import ConfigurationError
from repro.plan import DeploymentPlan
from repro.sim.replay import (
    ReplayConfig,
    Trace,
    TraceEvent,
    TraceFormatError,
    TraceRecorder,
    fleet_sla_report,
    partition_trace,
    read_trace,
    run_replay_chaos,
    run_replay_sharded,
    sort_events,
    trace_plan,
    write_trace,
)
from repro.sim.replay import FLEET_APP, FLEET_ROUTE, TraceColumns, trace_digest
from repro.sim.replay import replayer
from repro.sim.replay.format import (
    TraceEngine,
    TraceHeader,
    engine_meta,
    event_line,
    meta_pairs,
    trace_engine,
)
from repro.sim.scenarios import build_scenario, tenant_multiply
from repro.sim.shard import FleetConfig, run_fleet_sharded, shard_of
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
        header, body = path.read_bytes().split(b"\n", 1)
        header = header.replace(b'"events":4', b'"events":3')
        path.write_bytes(header + b"\n" + body)  # the block holds one event more
        with pytest.raises(TraceFormatError, match="declares 3"):
            read_trace(path)

    def test_reader_reports_offending_line(self, tmp_path):
        trace = _small_trace(events=3)
        path = tmp_path / "t.jsonl"
        write_trace(path, trace)
        header, body = path.read_bytes().split(b"\n", 1)
        # The block's count, then its steps in ``at``: event 2 steps back 5 micros.
        body = body[:24] + (-5).to_bytes(8, "little", signed=True) + body[32:]
        path.write_bytes(header + b"\n" + body)
        with pytest.raises(TraceFormatError,
                           match=r"t.jsonl: event 2 at \d+ precedes its predecessor at \d+$"):
            read_trace(path)

    def test_reader_rejects_unknown_storage(self, tmp_path):
        path = tmp_path / "disk.jsonl"
        path.write_text(_header_only(meta={"storage": "floppy"}))
        with pytest.raises(TraceFormatError, match="disk.jsonl: trace meta .*'floppy'"):
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


FIXPOINT_CONFIG = FleetConfig(tenants=4, daily_requests=300.0, days=1.0, seed=99,
                              logical_shards=8)


def _header_only(**fields) -> str:
    """A version-2 file that holds only a header: no events, no kinds."""
    obj = {"format": "repro-trace", "version": 2, "name": "x", "seed": 0, "tenants": 1,
           "events": 0, "kinds": [], **fields}
    return json.dumps(obj) + "\n"


def _record(config: FleetConfig, name: str = "fix"):
    """A recorded sharded run and its trace."""
    recorder = TraceRecorder(name=name, seed=config.seed, tenants=config.tenants)
    return run_fleet_sharded(config, recorder=recorder), recorder.trace()


def _with_meta(trace: Trace, **keys) -> Trace:
    """``trace`` with ``keys`` added to its header meta (an engine setting, say)."""
    trace.header = replace(trace.header, meta=meta_pairs({**trace.header.meta_dict(), **keys}))
    return trace


class TestColumnValidation:
    def test_a_column_trace_is_validated(self):
        columns = TraceColumns([5, 1], [0, 0], [1, 1], [0, 0], [("a", "/r", "", ())])
        with pytest.raises(TraceFormatError, match="^event 1 at 1 precedes its predecessor at 5$"):
            Trace.from_columns(TraceHeader("c", 0, 1), columns).validate()

    @pytest.mark.parametrize("columns,message", [
        (TraceColumns([1, 2], [0], [1, 1], [0, 0], [("a", "/r", "", ())]),
         "trace columns differ in length"),
        (TraceColumns([1, 2], [0, 0], [1, 1], [0, 1], [("a", "/r", "", ())]),
         "trace kind ids must index its 1 kinds"),
        (TraceColumns([1, 2], [0, 0], [1, 1], [0, -1], [("a", "/r", "", ())]),
         "trace kind ids must index its 1 kinds"),
    ])
    def test_malformed_columns_are_refused(self, columns, message):
        with pytest.raises(TraceFormatError, match=f"^{message}$"):
            Trace.from_columns(TraceHeader("c", 0, 1), columns).validate()

    @pytest.mark.parametrize("field,value,message", [
        ("app", 1, "field 'app' must be str, got 1"),
        ("route", None, "field 'route' must be str, got None"),
        ("actor", 7, "actor must be a string, got 7"),
    ])
    def test_the_writer_refuses_names_the_reader_refuses(self, tmp_path, field, value, message):
        path = tmp_path / "t.jsonl"
        odd = TraceEvent(5, 0, **{field: value})
        trace = Trace(TraceHeader("odd", 0, 1), [TraceEvent(0, 0), TraceEvent(1, 0), odd])
        with pytest.raises(TraceFormatError, match=f"^event 2: {message}$"):
            write_trace(path, trace)
        assert not path.exists()
        # A file whose kind table holds the same name is refused by the reader.
        path.write_text(_header_only(kinds=[[odd.app, odd.route, odd.actor, {}]]))
        with pytest.raises(TraceFormatError, match="t.jsonl: header kind must be "
                                                   r"\[app, route, actor, meta\] with str names"):
            read_trace(path)

    @pytest.mark.parametrize("field,value,key", [
        ("at_micros", 5.5, "at"), ("at_micros", True, "at"), ("tenant", 0.0, "tenant"),
        ("tenant", False, "tenant"), ("payload_bytes", 2.0, "bytes"),
        ("payload_bytes", True, "bytes"),
    ])
    def test_the_writer_refuses_numbers_the_reader_refuses(self, tmp_path, field, value, key):
        path = tmp_path / "t.jsonl"
        odd = replace(TraceEvent(5, 0), **{field: value})
        trace = Trace(TraceHeader("odd", 0, 1), [TraceEvent(0, 0), TraceEvent(1, 0), odd])
        message = f"field {key!r} must be int, got {value!r}"
        with pytest.raises(TraceFormatError, match=f"^event 2: {message}$"):
            write_trace(path, trace)
        assert not path.exists()  # a file holds int64 numbers only, so none is written

    def test_the_writer_refuses_a_falsy_actor_it_would_drop(self, tmp_path):
        # A line omits an empty actor, so actor 0 would read back as "".
        trace = Trace(TraceHeader("odd", 0, 1), [TraceEvent(0, 0, actor=0)])
        with pytest.raises(TraceFormatError, match="^event 0: actor must be a string, got 0$"):
            write_trace(tmp_path / "t.jsonl", trace)

    def test_a_kind_no_event_uses_is_not_checked(self, tmp_path):
        columns = TraceColumns([1, 2], [0, 0], [1, 1], [0, 0],
                               [("a", "/r", "", ()), ("a", 1, "", ())])
        trace = Trace.from_columns(TraceHeader("c", 0, 1), columns)
        assert write_trace(tmp_path / "t.jsonl", trace) == 2

    def test_a_transformed_trace_is_validated_once_on_its_way_to_disk(self, tmp_path,
                                                                        monkeypatch):
        from repro.sim.replay import format as trace_format
        from repro.sim.scenarios import tenant_multiply

        source = _small_trace(tenants=3)
        calls = []
        real = trace_format._validate
        monkeypatch.setattr(trace_format, "_validate",
                            lambda *args: calls.append(args) or real(*args))
        write_trace(tmp_path / "t.jsonl.gz", tenant_multiply(source, 4))
        assert len(calls) == 1

    def test_handing_out_the_columns_drops_the_proof(self):
        trace = Trace.from_columns(TraceHeader("c", 0, 1), TraceColumns(
            [1, 2], [0, 0], [1, 1], [0, 0], [("a", "/r", "", ())])).validate()
        trace.columns().tenant[1] = 5
        with pytest.raises(TraceFormatError, match="names tenant 5 outside"):
            trace.validate()

    def test_an_events_trace_is_checked_on_every_call(self):
        events = [TraceEvent(0, 0), TraceEvent(1, 0)]
        trace = Trace(TraceHeader("e", 0, 1), events).validate()
        events.append(TraceEvent(2, 3))
        with pytest.raises(TraceFormatError, match="names tenant 3 outside"):
            trace.validate()

    def test_a_new_header_drops_the_readers_proof(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, _small_trace(tenants=3))
        trace = read_trace(path)
        trace.validate()
        trace.header = replace(trace.header, tenants=2)
        with pytest.raises(TraceFormatError, match="names tenant 2 outside"):
            trace.validate()


@st.composite
def _recordings(draw):
    """Calls on both recorder seams, with tied timestamps and repeated kinds."""
    calls = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            meta = draw(st.one_of(st.none(), st.dictionaries(
                st.sampled_from("kz"), st.integers(0, 3), max_size=2)))
            calls.append(("record", draw(st.integers(0, 30)), draw(st.integers(0, 3)),
                          draw(st.sampled_from([FLEET_APP, "chat"])),
                          draw(st.sampled_from([FLEET_ROUTE, "/chat/send"])),
                          draw(st.integers(0, 5000)), draw(st.sampled_from(["", "dev"])), meta))
        else:
            arrivals = draw(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 3)),
                                     max_size=6))
            calls.append(("chunk", [at for at, _ in arrivals], [t for _, t in arrivals],
                          draw(st.sampled_from([2048, 77]))))
    return calls


class TestRecorderOracle:
    """The columnar recorder against events then :func:`sort_events`."""

    @settings(max_examples=80, deadline=None)
    @given(_recordings())
    def test_trace_matches_the_sorted_events(self, calls):
        recorder = TraceRecorder("rec", 3, tenants=4)
        events = []
        for call in calls:
            if call[0] == "record":
                _, at, tenant, app, route, size, actor, meta = call
                recorder.record(at, tenant, app, route, size, actor, meta)
                events.append(TraceEvent(at, tenant, app, route, size, actor, meta_pairs(meta)))
            else:
                _, timestamps, tenants, size = call
                recorder.record_fleet_chunk(timestamps, tenants, size)
                events += [TraceEvent(at, tenant, FLEET_APP, FLEET_ROUTE, size)
                           for at, tenant in zip(timestamps, tenants)]
        reference = Trace(TraceHeader("rec", 3, 4), sort_events(events)).validate()
        trace = recorder.trace()
        assert len(recorder) == len(events)
        assert trace == reference
        assert trace.columns() == reference.columns()
        assert trace.events == reference.events
        assert trace_digest(recorder.trace()) == trace_digest(reference)


class TestRecordReplayFixpoint:
    def test_recording_is_pure_observation(self):
        plain = run_fleet_sharded(FIXPOINT_CONFIG)
        recorded, trace = _record(FIXPOINT_CONFIG)
        assert recorded.determinism_digest() == plain.determinism_digest()
        assert len(trace.events) == plain.events

    @pytest.mark.parametrize("storage", ["s3", "dynamo"])
    def test_replay_reproduces_the_recorded_run(self, tmp_path, storage):
        config = replace(FIXPOINT_CONFIG, plan=DeploymentPlan(storage=storage))
        recorded, trace = _record(config)
        path = tmp_path / "fix.jsonl.gz"
        write_trace(path, trace)

        replayed = run_replay_sharded(read_trace(path), ReplayConfig(seed=config.seed))
        # The fixpoint: invoice, per-tenant counts, billed time, and the
        # SLA report all byte-identical to the recorded run.
        digest = replayed.determinism_digest()
        assert digest.pop("trace_sha256") == trace.digest()
        assert digest.pop("payload_bytes") == recorded.payload_bytes
        assert digest == recorded.determinism_digest()
        assert json.dumps(replayed.report, sort_keys=True) == \
            json.dumps(fleet_sla_report(recorded.events, recorded.latency), sort_keys=True)

    def test_replay_draws_with_the_recording_seed_by_default(self):
        config = replace(FIXPOINT_CONFIG, seed=11)
        recorded, trace = _record(config)
        digest = run_replay_sharded(trace).determinism_digest()
        assert digest["billed_units"] == recorded.billed_units
        assert digest["latency_p99_ms"] == recorded.determinism_digest()["latency_p99_ms"]

    def test_edited_trace_bills_the_edited_bytes(self):
        _, trace = _record(FIXPOINT_CONFIG)
        bigger = Trace(trace.header, [
            TraceEvent(e.at_micros, e.tenant, e.app, e.route, e.payload_bytes * 1000)
            for e in trace.events
        ])
        replay = ReplayConfig(seed=FIXPOINT_CONFIG.seed)
        baseline = run_replay_sharded(trace, replay)
        inflated = run_replay_sharded(bigger, replay)
        assert inflated.events == baseline.events
        assert float(inflated.invoice_total.lstrip("$")) > \
            float(baseline.invoice_total.lstrip("$"))

    def test_recording_refuses_storage_a_trace_cannot_carry(self):
        config = replace(FIXPOINT_CONFIG, storage_gb_per_tenant=0.5)
        recorder = TraceRecorder(name="fix", seed=config.seed, tenants=config.tenants)
        with pytest.raises(ConfigurationError, match="cannot carry per-tenant storage"):
            run_fleet_sharded(config, recorder=recorder)
        assert len(recorder) == 0

    def test_recording_refuses_a_recorder_of_another_fleet(self):
        recorder = TraceRecorder(name="fix", seed=FIXPOINT_CONFIG.seed, tenants=3)
        with pytest.raises(ConfigurationError, match="declares 3 tenants, the fleet runs 4"):
            run_fleet_sharded(FIXPOINT_CONFIG, recorder=recorder)

    def test_the_trace_is_the_same_on_any_worker_count(self, tmp_path):
        paths = []
        for workers in (1, 2):
            recorder = TraceRecorder(name="fix", seed=FIXPOINT_CONFIG.seed,
                                     tenants=FIXPOINT_CONFIG.tenants)
            run_fleet_sharded(FIXPOINT_CONFIG, workers=workers, recorder=recorder)
            paths.append(tmp_path / f"w{workers}.jsonl.gz")
            write_trace(paths[-1], recorder.trace())
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestRecordedMemory:
    """A trace records a non-default Lambda size, and replay bills only that size."""

    CONFIG = FleetConfig(plan=DeploymentPlan(memory_mb=1024), tenants=4,
                         daily_requests=2000.0, days=1.0, seed=99, logical_shards=8)

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        live, trace = _record(self.CONFIG, name="mem")
        path = tmp_path_factory.mktemp("mem") / "mem.jsonl.gz"
        write_trace(path, trace)
        return live, read_trace(path)

    @staticmethod
    def _silent(trace: Trace) -> Trace:
        """The trace as if its header did not record the size."""
        meta = tuple((key, value) for key, value in trace.header.meta if key != "memory_mb")
        return Trace.from_columns(replace(trace.header, meta=meta), trace.columns())

    def test_header_records_the_size(self, recorded):
        _, trace = recorded
        assert trace.header.meta_dict()["memory_mb"] == 1024
        assert trace_plan(trace.header) == DeploymentPlan(memory_mb=1024)

    def test_replay_at_the_recorded_size_is_the_fixpoint(self, recorded):
        live, trace = recorded
        replayed = run_replay_sharded(trace, ReplayConfig(seed=self.CONFIG.seed))
        assert replayed.billed_units == live.billed_units
        assert replayed.invoice_total == live.invoice_total
        # What replay billed before the header carried the size.
        silent = run_replay_sharded(self._silent(trace), ReplayConfig(seed=self.CONFIG.seed))
        assert silent.meter.total(UsageKind.LAMBDA_GB_SECONDS) != \
            live.meter.total(UsageKind.LAMBDA_GB_SECONDS)

    def test_sharded_replay_bills_the_recorded_size(self, recorded):
        _, trace = recorded
        result = run_replay_sharded(trace, ReplayConfig(seed=99))
        assert result.events == len(trace)
        # 1024 MB is one GB: each billed 100 ms unit is 0.1 GB-second.
        assert result.meter.total(UsageKind.LAMBDA_GB_SECONDS) == \
            result.billed_units * 100 * (1024 / 1024) / 1000.0
        at_448 = run_replay_sharded(self._silent(trace), ReplayConfig(seed=99))
        assert at_448.meter.total(UsageKind.LAMBDA_GB_SECONDS) == \
            at_448.billed_units * 100 * (448 / 1024) / 1000.0

    @pytest.mark.parametrize("value", ['"big"', "0", "true", "1.5"])
    def test_reader_rejects_a_bad_size(self, tmp_path, value):
        path = tmp_path / "bad.jsonl"
        path.write_text(_header_only(meta={"memory_mb": json.loads(value)}))
        with pytest.raises(TraceFormatError,
                           match="bad.jsonl: trace meta memory_mb must be a positive int"):
            read_trace(path)

    def test_reader_rejects_a_size_lambda_does_not_offer(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text(_header_only(meta={"memory_mb": 1000}))
        with pytest.raises(TraceFormatError,
                           match="odd.jsonl: trace meta memory_mb must be a deployable size"):
            read_trace(path)


class TestRecordedPlan:
    """The header's flat plan keys: older headers, the price book, and chaos replay."""

    def test_an_older_header_reads_and_replays_at_its_values(self, tmp_path):
        # A header the way traces were written before the price book was
        # recorded: flat ``storage`` and ``memory_mb`` keys only.
        path = tmp_path / "old.jsonl"
        meta = {"memory_mb": 1024, "storage": "dynamo"}
        write_trace(path, Trace(TraceHeader("old", 3, 2, meta=meta), [
            TraceEvent(0, 0), TraceEvent(5, 1), TraceEvent(9, 0)]))
        assert json.loads(path.read_bytes().split(b"\n", 1)[0])["meta"] == meta
        trace = read_trace(path)
        assert trace_plan(trace.header) == DeploymentPlan(storage="dynamo", memory_mb=1024)
        result = run_replay_sharded(trace, ReplayConfig(seed=3))
        assert result.meter.total(UsageKind.DYNAMO_WRITES) == 3.0
        assert result.meter.total(UsageKind.S3_PUT) == 0.0
        assert result.meter.total(UsageKind.LAMBDA_GB_SECONDS) == \
            result.billed_units * 100 * (1024 / 1024) / 1000.0
        assert result.tenant_counts == [2, 1]

    def test_header_records_a_non_default_price_book(self, monkeypatch):
        monkeypatch.setitem(PRICE_BOOKS, "2018", PRICES_2017)
        plan = DeploymentPlan(price_book="2018")
        config = replace(FIXPOINT_CONFIG, plan=plan)
        recorded, trace = _record(config, name="book")
        assert trace.header.meta_dict()["price_book"] == "2018"
        assert trace_plan(trace.header) == plan
        replayed = run_replay_sharded(trace, ReplayConfig(seed=config.seed))
        assert replayed.invoice_total == recorded.invoice_total

    def test_chaos_replay_deploys_the_recorded_plan(self, monkeypatch):
        from repro.apps import chat

        config = FleetConfig(tenants=1, daily_requests=20, days=0.5, logical_shards=1,
                             plan=DeploymentPlan(storage="dynamo", memory_mb=1024))
        _, trace = _record(config, name="chaos-plan")
        deployed = []

        def spy(*args, **kwargs):
            manifest = real(*args, **kwargs)
            deployed.append(manifest)
            return manifest

        real = chat.chat_manifest
        monkeypatch.setattr(chat, "chat_manifest", spy)
        record = run_replay_chaos(trace, chaos=False)
        assert record["fleet"]["eventual_delivery_rate"] == 1.0
        assert len(deployed) == 1
        (handler,) = [fn for fn in deployed[0].functions if fn.name_suffix == "handler"]
        assert handler.memory_mb == 1024
        assert ("DIY_STORAGE", "dynamo") in handler.environment


class TestEngineKeys:
    """The header keys that say how the sharded replay draws, and their one reader."""

    @pytest.mark.parametrize("key", ["chunk_events", "logical_shards", "sample_stride"])
    @pytest.mark.parametrize("value", ["0", "true", '"x"', "-3", "1.5"])
    def test_the_reader_refuses_a_bad_count(self, tmp_path, key, value):
        path = tmp_path / "bad.jsonl"
        path.write_text(_header_only(meta={key: json.loads(value)}))
        with pytest.raises(TraceFormatError,
                           match=f"^{path}: trace meta {key} must be a positive int"):
            read_trace(path)

    @pytest.mark.parametrize("value", ['"shard"', '"Fleet"', "0", "true"])
    def test_the_reader_refuses_an_unknown_stream(self, tmp_path, value):
        path = tmp_path / "bad.jsonl"
        path.write_text(_header_only(meta={"latency_stream": json.loads(value)}))
        with pytest.raises(TraceFormatError,
                           match=f"^{path}: trace meta latency_stream must be one of"):
            read_trace(path)

    @pytest.mark.parametrize("key,value", [("logical_shards", 0), ("chunk_events", True),
                                           ("latency_stream", "x")])
    def test_the_writer_and_the_replay_refuse_what_the_reader_refuses(self, tmp_path, key,
                                                                      value):
        trace = _with_meta(_small_trace(), **{key: value})
        with pytest.raises(TraceFormatError, match=f"trace meta {key} must be"):
            write_trace(tmp_path / "t.jsonl", trace)
        with pytest.raises(TraceFormatError, match=f"trace meta {key} must be"):
            run_replay_sharded(trace)

    def test_defaults_are_left_out_and_read_back(self):
        engine = TraceEngine("replay", 1 << 18, 64, 3)
        assert engine_meta(engine, 3 << 16) == {}
        assert engine_meta(engine, 1 << 16) == {"sample_stride": 3}
        header = TraceHeader("x", 0, 1, events=3 << 16)
        assert trace_engine(header) == engine
        fleet = TraceEngine("fleet", 16, 8, 1)
        meta = engine_meta(fleet, 10)
        assert meta == {"latency_stream": "fleet", "chunk_events": 16, "logical_shards": 8}
        assert trace_engine(replace(header, meta=meta_pairs(meta)), 10) == fleet


def _no_shard_may_run(*args, **kwargs):
    raise AssertionError("a shard ran")


class TestShardedReplay:
    def test_partition_preserves_events_and_uses_shard_of(self):
        trace = build_scenario("backup-day", seed=5)
        shards = partition_trace(trace, shards=16)
        assert sum(len(col[0]) for col in shards) == len(trace.events)
        for shard_id, columns in enumerate(shards):
            # int64 arrays under numpy: compare their values as ints.
            ats, tenants, payloads = (list(map(int, column)) for column in columns)
            assert len(ats) == len(tenants) == len(payloads)
            assert all(shard_of(t, 16) == shard_id for t in tenants)
            assert ats == sorted(ats)  # trace order survives partitioning

    def test_byte_identical_across_worker_counts(self):
        trace = _with_meta(build_scenario("backup-day", seed=5), logical_shards=16)
        config = ReplayConfig(seed=5)
        digests = [
            run_replay_sharded(trace, config, workers=w).determinism_digest()
            for w in (1, 2, 4)
        ]
        assert digests[0] == digests[1] == digests[2]

    def test_byte_identical_without_numpy(self, monkeypatch):
        trace = _with_meta(build_scenario("mailing-list-storm", seed=3), logical_shards=8)
        config = ReplayConfig(seed=3)
        with_numpy = run_replay_sharded(trace, config).determinism_digest()
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", True)
        assert run_replay_sharded(trace, config).determinism_digest() == with_numpy

    @pytest.mark.parametrize("force_fallback", [False, True])
    def test_a_timestamp_past_int64_fails_before_any_shard(self, tmp_path, monkeypatch,
                                                           force_fallback):
        # A trace file cannot hold it (its columns are int64), but a built trace can.
        trace = _with_meta(Trace(TraceHeader("late", 1, 2), [TraceEvent(0, 0), TraceEvent(2**63, 1)]),
                           logical_shards=4)
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", force_fallback)
        monkeypatch.setattr(replayer, "replay_shard", _no_shard_may_run)
        with pytest.raises(TraceFormatError, match=(
            r"^trace 'late': timestamp 9223372036854775808 is not below 2\*\*63 micros"
        )):
            run_replay_sharded(trace, ReplayConfig(seed=1))

    def test_the_last_int64_timestamp_replays_alike_without_numpy(self, monkeypatch):
        trace = Trace(TraceHeader("edge", 1, 2, meta=(("logical_shards", 4),)),
                      [TraceEvent(0, 0), TraceEvent(2**63 - 1, 1)])
        config = ReplayConfig(seed=1)
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
        config = FleetConfig(tenants=3, daily_requests=300.0, days=1.0, seed=5,
                             logical_shards=8, plan=DeploymentPlan(storage=storage))
        recorded, trace = _record(config, name="store")
        path = tmp_path / "store.jsonl.gz"
        write_trace(path, trace)
        result = run_replay_sharded(read_trace(path), ReplayConfig(seed=5))
        assert result.events == recorded.events
        assert result.meter.total(write) == float(result.events)
        assert result.meter.total(absent) == 0.0


def _shard_values(parts):
    """Per-shard columns as lists of ``int``, whatever holds them."""
    return [[list(map(int, column)) for column in part] for part in parts]


class TestArrayPartition:
    """The numpy partition against the no-numpy loop, on read (int64) and built (list) columns."""

    @pytest.mark.parametrize("shards", [1, 64, 300])
    @pytest.mark.parametrize("source", ["read", "built"])
    def test_same_shards_with_and_without_numpy(self, tmp_path, monkeypatch, shards, source):
        trace = tenant_multiply(build_scenario("iot-fleet", seed=3), 12)
        if source == "read":
            path = tmp_path / "t.jsonl.gz"
            write_trace(path, trace)
            trace = read_trace(path)
            assert type(trace.readonly_columns().at) is not list
        with_numpy = partition_trace(trace, shards)
        assert all(column.dtype.name == "int64" for part in with_numpy for column in part)
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", True)
        without = partition_trace(trace, shards)
        assert all(type(column) is list for part in without for column in part)
        assert _shard_values(with_numpy) == _shard_values(without)
        assert len(without) == shards
        tenants = trace.columns().tenant
        for shard_id, (_, shard_tenants, _) in enumerate(without):
            assert all(shard_of(t, shards) == shard_id for t in shard_tenants)
        assert sum(len(part[0]) for part in without) == len(tenants)

    def test_tenants_past_the_header_hash_alike(self, monkeypatch):
        # Many declared tenants and few events: the ids are hashed, not mapped.
        trace = Trace(TraceHeader("sparse", 1, 10**12),
                      [TraceEvent(i, tenant) for i, tenant in enumerate([5, 10**12 - 1, 7, 5])])
        with_numpy = _shard_values(partition_trace(trace, 8))
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", True)
        assert with_numpy == _shard_values(partition_trace(trace, 8))

    def test_a_payload_past_int64_is_summed_exactly(self, monkeypatch):
        trace = Trace(TraceHeader("fat", 1, 2, meta=(("logical_shards", 2),)),
                      [TraceEvent(0, 0, payload_bytes=2**70), TraceEvent(1, 1, payload_bytes=3),
                       TraceEvent(2, 0, payload_bytes=2**62)])
        result = run_replay_sharded(trace, ReplayConfig(seed=1))
        assert result.payload_bytes == 2**70 + 3 + 2**62
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", True)
        assert run_replay_sharded(trace, ReplayConfig(seed=1)).determinism_digest() == \
            result.determinism_digest()

    def test_a_read_trace_replays_alike_without_numpy(self, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, _with_meta(build_scenario("iot-fleet", seed=3), logical_shards=8))
        with_numpy = run_replay_sharded(read_trace(path)).determinism_digest()
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", True)
        assert run_replay_sharded(read_trace(path)).determinism_digest() == with_numpy

    @pytest.mark.parametrize("force_fallback", [False, True])
    def test_the_int64_limit_keeps_its_wording(self, tmp_path, monkeypatch, force_fallback):
        trace = Trace.from_columns(TraceHeader("late", 1, 2), TraceColumns(
            [0, 2**63 - 1, 2**63], [0, 1, 0], [1, 1, 1], [0, 0, 0], [("a", "/r", "", ())]))
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", force_fallback)
        with pytest.raises(TraceFormatError) as info:
            partition_trace(trace)
        assert str(info.value) == (
            "trace 'late': timestamp 9223372036854775808 is not below 2**63 micros, "
            "the sharded replay's int64 limit"
        )


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
