"""Harness tests: tracer arithmetic and installation, workload determinism,
percentiles and the check verdicts.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json
import re
import sys

import pytest

import repro.sim.metrics
from bench import run
from bench.trace import (
    TARGETS, Target, Tracer, layer_metrics, layer_split, per_layer_names, self_times,
)
from bench.workloads import PARAMS, WORKLOADS, run_rep

# -- tracer arithmetic ------------------------------------------------------


def test_self_times_of_nested_spans_sum_to_the_root_wall():
    spans = [
        ["client", 0, 100, -1, 0],
        ["net.tls", 10, 60, 0, 0],
        ["crypto.chacha20", 20, 30, 1, 0],
        ["net.tls", 70, 90, 0, 0],
    ]
    assert self_times(spans) == [30, 40, 10, 20]
    split = layer_split(spans, {"crypto.chacha20": 64})
    assert split["net.tls"] == {"self_ns": 60, "calls": 2, "count": 0}
    assert split["crypto.chacha20"] == {"self_ns": 10, "calls": 1, "count": 64}
    assert sum(entry["self_ns"] for entry in split.values()) == 100


def test_recorded_spans_sum_exactly_in_nanoseconds():
    tracer = Tracer()

    def leaf():
        return sum(range(200))

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = tracer.wrap(leaf, "inner")
    wrapped_middle = tracer.wrap(middle, "outer")
    wrapped_leaf()  # outside an op: not recorded
    assert tracer.spans == []
    for op in range(3):
        tracer.begin(op)
        wrapped_middle()
        tracer.end()
    roots = [end - start for _, start, end, parent, _ in tracer.spans if parent < 0]
    assert len(roots) == 3
    assert sum(self_times(tracer.spans)) == sum(roots)
    assert [span[4] for span in tracer.spans] == [0] * 4 + [1] * 4 + [2] * 4
    split = layer_split(tracer.spans, tracer.counts)
    assert split["inner"]["calls"] == 6 and split["outer"]["calls"] == 3


def test_generator_target_times_each_next():
    tracer = Tracer()

    def batches():
        yield [1, 2]
        yield [3]

    timed = tracer.wrap(batches, "sim.workload", generator=True)
    tracer.begin(0)
    assert list(timed()) == [[1, 2], [3]]
    tracer.end()
    # Two items plus the final StopIteration, each its own span.
    assert layer_split(tracer.spans, {})["sim.workload"]["calls"] == 3


# -- installation ------------------------------------------------------------


def _import_app_stack():
    import repro.apps.chat  # noqa: F401
    import repro.apps.filetransfer  # noqa: F401
    import repro.crypto.pgp  # noqa: F401
    import repro.sim.replay  # noqa: F401
    import repro.sim.shard  # noqa: F401


def _bindings_snapshot():
    modules = {name: dict(vars(module)) for name, module in list(sys.modules.items())
               if module is not None and name.split(".")[0] == "repro"}
    classes = {}
    for target in TARGETS:
        owner, _, _ = target.qualname.rpartition(".")
        if owner:
            cls = getattr(importlib.import_module(target.module), owner)
            classes[cls] = dict(vars(cls))
    return modules, classes


def test_uninstall_restores_every_binding_by_identity():
    _import_app_stack()
    before_modules, before_classes = _bindings_snapshot()
    tracer = Tracer()
    report = tracer.install()
    assert all(value != "absent" for value in report.values()), report
    assert repro.crypto.aead.chacha20_encrypt is not before_modules["repro.crypto.aead"][
        "chacha20_encrypt"]
    tracer.uninstall()
    for name, namespace in before_modules.items():
        current = vars(sys.modules[name])
        for attr, value in namespace.items():
            assert current[attr] is value, f"{name}.{attr} not restored"
    for cls, namespace in before_classes.items():
        for attr, value in namespace.items():
            assert vars(cls)[attr] is value, f"{cls.__name__}.{attr} not restored"


def test_function_bound_in_several_modules_is_wrapped_in_all():
    _import_app_stack()
    import repro.cloud.kms
    import repro.crypto.aead
    import repro.crypto.envelope
    import repro.crypto.pgp
    import repro.net.tls

    original = repro.crypto.aead.seal
    tracer = Tracer()
    report = tracer.install([Target("aead", "repro.crypto.aead", "seal")])
    try:
        holders = (repro.crypto.aead, repro.crypto.envelope, repro.cloud.kms,
                   repro.net.tls, repro.crypto.pgp)
        wrappers = {id(module.seal) for module in holders}
        assert len(wrappers) == 1 and repro.net.tls.seal is not original
        assert report["repro.crypto.aead:seal"] >= len(holders)
        tracer.begin(0)
        repro.crypto.envelope.seal(b"k" * 32, b"n" * 12, b"hello")
        repro.net.tls.seal(b"k" * 32, b"n" * 12, b"hello")
        tracer.end()
        assert layer_split(tracer.spans, {})["aead"]["calls"] == 2
    finally:
        tracer.uninstall()
    assert repro.net.tls.seal is original


def test_missing_target_is_reported_absent():
    tracer = Tracer()
    report = tracer.install([
        Target("gone", "repro.crypto.aead", "no_such_function"),
        Target("gone", "repro.no_such_module", "anything"),
        Target("gone", "repro.net.tls", "TlsSession.no_such_method"),
        Target("gone", "repro.net.tls", "NoSuchClass.seal"),
    ])
    tracer.uninstall()
    assert set(report.values()) == {"absent"}


# -- workloads ---------------------------------------------------------------

TOY = {
    "chat-closed": {"exchanges": 6},
    "filedrop-bulk": {"files": 2, "file_bytes": 3000},
    "fleet-month": {"tenants": 3000, "days": 2.0, "workers": 1},
    "replay-iot": {"copies": 1},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_toy_workload_digests_repeat_and_survive_tracing(name, tmp_path):
    params = dict(TOY[name])
    if name == "replay-iot":
        params["directory"] = tmp_path
    first = run_rep(name, 11, params, started=0.0)
    second = run_rep(name, 11, params, started=0.0)
    traced = run_rep(name, 11, params, started=0.0, trace=True,
                     spans=tmp_path / "spans.jsonl")
    assert first["failed"] == second["failed"] == traced["failed"] == 0
    assert first["digest"] == second["digest"] == traced["digest"]
    assert traced["spans"] == sum(1 for _ in open(tmp_path / "spans.jsonl"))
    assert set(PARAMS[name]) == set(TOY[name])


# -- statistics and verdicts ---------------------------------------------------


def test_percentiles_come_from_the_program():
    assert run.percentile is repro.sim.metrics.percentile
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    summary = run.summarize(values)
    for key, q in (("q1", 25), ("median", 50), ("q3", 75)):
        assert summary[key] == repro.sim.metrics.percentile(values, q)
    assert (summary["min"], summary["max"], summary["n"]) == (1.0, 10.0, 6)


BASE = [100.0, 101.0, 99.0, 100.5, 99.5]


@pytest.mark.parametrize("new, better, expected", [
    ([100.2, 99.8, 100.9, 99.1, 100.0], "lower", "ok"),
    ([104.0, 104.5, 103.5, 104.2, 103.8], "lower", "ok"),  # worse, within 5%
    ([107.0, 107.5, 106.5, 107.2, 106.8], "lower", "regressed"),
    ([93.0, 93.5, 92.5, 93.2, 92.8], "higher", "regressed"),
    ([95.0, 96.0, 94.0, 95.5, 94.5], "lower", "improved"),
    ([98.0, 98.5, 97.5, 98.2, 97.8], "lower", "improved"),  # every run better
    ([80.0, 130.0, 95.0, 120.0, 100.0], "lower", "unresolved"),
    ([80.0, 130.0, 95.0, 120.0, 100.0], "higher", "unresolved"),
    ([101.5, 100.2, 101.2, 100.8, 100.6], "higher", "ok"),
])
def test_check_verdicts(new, better, expected):
    assert run.verdict(BASE, new, 0.05, better) == expected


# -- the benchmark definition ----------------------------------------------------


def test_benchmark_json_matches_what_the_runs_report():
    spec = json.loads(run.SPEC_PATH.read_text())
    assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == per_layer_names() + ["trace_overhead_frac", "latency_drift"]
    split = {"client": {"self_ns": 10, "calls": 1, "count": 0}}
    assert list(layer_metrics(split, 1, 1.0, 10)) == per_layer_names()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"]), metric
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
