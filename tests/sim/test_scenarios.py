"""The scenario library: per-seed goldens and composable transforms.

The digests below are the library's contract: any change to a
generator, to the RNG namespaces, or to the canonical trace
serialization shows up here as a digest break and must be deliberate
(regenerate with ``python -m repro scenarios --json``).
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import Optional, Sequence

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.sim.replay import (
    ReplayConfig,
    Trace,
    TraceEvent,
    TraceFormatError,
    TraceHeader,
    read_trace,
    run_replay_sharded,
    sort_events,
    trace_digest,
    write_trace,
)
from repro.sim.scenarios import (
    SCENARIOS,
    build_scenario,
    scenario_catalog,
    splice,
    tenant_multiply,
    time_scale,
)
from repro.units import MICROS_PER_HOUR, seconds

# (tenants, events, trace_sha256) at the default seed 2017.
GOLDENS = {
    "backup-day": (
        24, 3669,
        "677c19c4ef2c1fb0b4ce1779a556679924cc4b40ade34f7b18f70df18bb8abfa",
    ),
    "flash-crowd": (
        48, 5445,
        "5a45ef44c685535589becf5a9b92ede96ad02895fdf06dbd6a4879759a381171",
    ),
    "iot-fleet": (
        32, 11757,
        "6d7c888a996845f91e4fe70b55c4a497a05a1fb288362f3fad2a81342ee0fc48",
    ),
    "mailing-list-storm": (
        16, 7826,
        "c33f770a3e3c604d33579a18b7048cfdadf66fb77b7639a6b74af4384c69878a",
    ),
    "viral-groupchat": (
        64, 2202,
        "11d02ef18ecc28d2b1e882ac374e00d6b1fb9c4ae627c1978a6994590b25466f",
    ),
}


class TestLibraryGoldens:
    def test_catalog_covers_every_scenario(self):
        assert set(SCENARIOS) == set(GOLDENS)

    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_golden_digest_per_seed(self, name):
        tenants, events, digest = GOLDENS[name]
        trace = build_scenario(name, seed=2017)
        trace.validate()
        assert trace.header.tenants == tenants
        assert len(trace.events) == events
        assert trace.digest() == digest

    def test_catalog_reports_the_goldens(self):
        catalog = {entry["name"]: entry for entry in scenario_catalog(seed=2017)}
        for name, (tenants, events, digest) in GOLDENS.items():
            assert catalog[name]["tenants"] == tenants
            assert catalog[name]["events"] == events
            assert catalog[name]["trace_sha256"] == digest

    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_a_built_trace_equals_its_written_copy(self, tmp_path, name):
        built = build_scenario(name, seed=2017)
        hash(built.header)
        path = tmp_path / f"{name}.jsonl.gz"
        write_trace(path, built)
        read = read_trace(path)
        # A built header declares no event count; the written one does.
        assert read == Trace(replace(built.header, events=len(built)), built.events)
        assert read.digest() == built.digest() == GOLDENS[name][2]
        assert hash(read.header) == hash(replace(built.header, events=len(built)))

    def test_a_header_given_a_mapping_holds_sorted_pairs(self):
        header = TraceHeader("h", 0, 1, meta={"b": 2, "a": 1})
        assert header.meta == (("a", 1), ("b", 2))
        assert header == TraceHeader("h", 0, 1, meta=(("a", 1), ("b", 2)))
        assert hash(header) == hash(TraceHeader("h", 0, 1, meta=(("a", 1), ("b", 2))))

    def test_different_seed_different_trace(self):
        assert build_scenario("backup-day", seed=1).digest() != \
            build_scenario("backup-day", seed=2).digest()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            build_scenario("quantum-flash-mob")

    def test_golden_invoice_via_sharded_replay(self):
        # The end-to-end golden: scenario → sharded replay → invoice.
        result = run_replay_sharded(build_scenario("backup-day", seed=2017))
        digest = result.determinism_digest()
        assert digest["invoice_total"] == "$0.02"
        assert digest["billed_units"] == 5210
        assert digest["tenant_counts_sha256"] == (
            "3f9fc1aae9d209aef6a1de4a92b743a771cc0604fe89c10735fc0aecd6c66e8e"
        )


class TestTransforms:
    def test_time_scale_compresses_about_the_first_event(self):
        base = build_scenario("backup-day", seed=4)
        halved = time_scale(base, 0.5)
        halved.validate()
        assert len(halved.events) == len(base.events)
        assert halved.events[0].at_micros == base.events[0].at_micros
        # round() keeps the compressed span within a microsecond of half.
        assert abs(halved.duration_micros() - base.duration_micros() / 2) <= 1
        assert "@x0.5" in halved.header.name

    def test_time_scale_rejects_nonpositive_factor(self):
        with pytest.raises(ConfigurationError):
            time_scale(build_scenario("backup-day", seed=4), 0.0)

    def test_tenant_multiply_clones_the_tenant_space(self):
        base = build_scenario("mailing-list-storm", seed=4)
        tripled = tenant_multiply(base, 3)
        tripled.validate()
        assert tripled.header.tenants == base.header.tenants * 3
        assert len(tripled.events) == len(base.events) * 3
        # Every copy carries the same arrival times, offset tenant ids.
        for i, event in enumerate(base.events):
            copies = tripled.events[3 * i:3 * i + 3]
            assert {c.at_micros for c in copies} == {event.at_micros}
            assert {c.tenant for c in copies} == {
                event.tenant + k * base.header.tenants for k in range(3)
            }

    @pytest.mark.parametrize("tenant", [True, 1.0])
    def test_tenant_multiply_refuses_a_tenant_that_is_not_an_int(self, tenant):
        trace = Trace(TraceHeader("odd", 1, 2), [TraceEvent(0, tenant)])
        with pytest.raises(TraceFormatError, match="field 'tenant' must be int"):
            tenant_multiply(trace, 2)

    def test_splice_concatenates_with_a_gap(self):
        first = build_scenario("viral-groupchat", seed=4)
        second = build_scenario("backup-day", seed=4)
        joined = splice([first, second], gap_micros=seconds(60))
        joined.validate()
        assert len(joined.events) == len(first.events) + len(second.events)
        assert joined.header.tenants == max(first.header.tenants,
                                            second.header.tenants)
        boundary = joined.events[len(first.events)].at_micros
        assert boundary - joined.events[len(first.events) - 1].at_micros >= \
            seconds(60)

    def test_transforms_compose_and_stay_replayable(self):
        base = build_scenario("viral-groupchat", seed=4)
        composed = tenant_multiply(time_scale(base, 2.0), 2)
        result = run_replay_sharded(composed, ReplayConfig(seed=4))
        assert result.events == len(composed.events)

    def test_transforms_are_deterministic(self):
        a = tenant_multiply(build_scenario("iot-fleet", seed=9), 2)
        b = tenant_multiply(build_scenario("iot-fleet", seed=9), 2)
        assert a.digest() == b.digest()


class TestScenarioShapes:
    def test_flash_crowd_concentrates_on_the_hot_tenant(self):
        trace = build_scenario("flash-crowd", seed=2017)
        hot = trace.header.meta_dict()["hot_tenant"]
        crowd = [e for e in trace.events if e.meta_dict().get("phase") == "crowd"]
        assert crowd, "flash crowd produced no crowd-phase events"
        hot_share = sum(1 for e in crowd if e.tenant == hot) / len(crowd)
        assert hot_share > 0.5

    def test_iot_fleet_has_named_device_actors(self):
        trace = build_scenario("iot-fleet", seed=2017)
        actors = {e.actor for e in trace.events}
        assert any(a.startswith("thermo") for a in actors)
        assert any(a.startswith("camera") for a in actors)

    def test_backup_day_stays_in_the_overnight_window(self):
        trace = build_scenario("backup-day", seed=2017)
        hours = {e.at_micros // MICROS_PER_HOUR for e in trace.events}
        assert hours <= {1, 2, 3}


# -- the columnar transforms against their per-event definitions ----------


def _reference_time_scale(trace: Trace, factor: float) -> Trace:
    header = TraceHeader(f"{trace.header.name}@x{factor:g}", trace.header.seed,
                         trace.header.tenants, meta=trace.header.meta)
    if not trace.events:
        return Trace(header)
    origin = trace.events[0].at_micros
    events = [
        TraceEvent(
            origin + round((e.at_micros - origin) * factor), e.tenant, e.app, e.route,
            e.payload_bytes, e.actor, e.meta,
        )
        for e in trace.events
    ]
    return Trace(header, events).validate()


def _reference_tenant_multiply(trace: Trace, copies: int) -> Trace:
    base = trace.header.tenants
    events = [
        TraceEvent(
            e.at_micros, e.tenant + k * base, e.app, e.route, e.payload_bytes, e.actor, e.meta,
        )
        for e in trace.events
        for k in range(copies)
    ]
    header = TraceHeader(f"{trace.header.name}*{copies}", trace.header.seed, base * copies,
                         meta=trace.header.meta)
    return Trace(header, events).validate()


def _reference_splice(traces: Sequence[Trace], gap_micros: int) -> Trace:
    events = []
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
    header = TraceHeader("+".join(t.header.name for t in traces), traces[0].header.seed,
                         max(t.header.tenants for t in traces))
    return Trace(header, sort_events(events)).validate()


@functools.lru_cache(maxsize=None)
def _scenario(name: Optional[str]) -> Trace:
    """A library scenario at seed 2017, or an empty trace for ``None``; never mutated."""
    if name is None:
        return Trace(TraceHeader("empty", 1, 3))
    return build_scenario(name, seed=2017)


def _assert_same(tmp_path, trace: Trace, reference: Trace) -> None:
    assert trace == reference
    assert trace.columns() == reference.columns()
    assert trace_digest(trace) == trace_digest(reference)
    write_trace(tmp_path / "trace.jsonl", trace)
    write_trace(tmp_path / "reference.jsonl", reference)
    assert (tmp_path / "trace.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()


_NAMES = sorted(SCENARIOS) + [None]
_ORACLE = settings(max_examples=2, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestTransformOracle:
    """Every library scenario (``viral-groupchat`` and others carry per-event
    meta) through the columnar transforms and through the per-event
    comprehensions they replaced: equal traces, columns, digests and bytes."""

    @pytest.mark.parametrize("name", _NAMES)
    @_ORACLE
    @given(factor=st.floats(1e-6, 50.0), copies=st.integers(1, 3))
    def test_time_scale_and_tenant_multiply(self, tmp_path, name, factor, copies):
        base = _scenario(name)
        _assert_same(tmp_path, time_scale(base, factor), _reference_time_scale(base, factor))
        _assert_same(tmp_path, tenant_multiply(base, copies),
                     _reference_tenant_multiply(base, copies))
        _assert_same(tmp_path, tenant_multiply(time_scale(base, factor), copies),
                     _reference_tenant_multiply(_reference_time_scale(base, factor), copies))

    @pytest.mark.parametrize("name", _NAMES)
    @_ORACLE
    @given(others=st.lists(st.sampled_from(_NAMES), min_size=0, max_size=2),
           gap=st.integers(0, 10**10))
    def test_splice(self, tmp_path, name, others, gap):
        traces = [_scenario(name)] + [_scenario(other) for other in others]
        _assert_same(tmp_path, splice(traces, gap_micros=gap), _reference_splice(traces, gap))
