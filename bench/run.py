"""One host-time benchmark for the chat, file-drop, fleet and replay paths.

    PYTHONPATH=src python bench/run.py [--seed N] [--workload NAME] [--trace]
    PYTHONPATH=src python bench/run.py check [--seed N] [--workload NAME]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs 5 repetitions of each workload, interleaved
round-robin, each in a fresh process; checks every repetition's outputs
against the pinned digests (seed 2017) or against each other (any other
seed); prints each end-to-end metric's median, quartiles and bound; and
writes a result file to ``bench/out/``. ``--trace`` adds one traced
repetition per workload and prints the per-layer split.

``check`` runs the same repetitions and compares them with the baseline
in ``bench/baseline.json`` (a result file of the first form). It exits 1
on a regression or a failed check.

The third form is one timed run: repetitions of one workload until S
seconds have passed, then a last output line holding one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) named in ``BENCHMARK.json``.

Every number is host time; virtual-time results such as the chat's
211 ms end-to-end latency are checked as outputs, never reported as
performance.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro").is_dir():
    raise SystemExit(f"bench: no program to measure at {ROOT / 'src' / 'repro'}")
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.analysis.bench import bench_env
from repro.sim.metrics import percentile

from bench.trace import layer_metrics
from bench.workloads import OUT, PARAMS, PINNED, PINNED_SEED, WORKLOADS

SPEC_PATH = ROOT / "BENCHMARK.json"
BASELINE_PATH = ROOT / "bench" / "baseline.json"
REPEATS = 5  # repetitions per workload in the suite and check
SETUPS = 3  # set-up samples a timed run takes at least
REP_TIMEOUT_S = 170

# The throughput unit of each workload, and the names the metrics go by
# where a workload gives them a specific meaning.
WORK_UNIT = {
    "chat-closed": "exchanges",
    "filedrop-bulk": "MB",
    "fleet-month": "events",
    "replay-iot": "events",
}
# Reported but not gated: on a shared 2-vCPU host the run-to-run spread
# of a p95 (about 20% for chat-closed) is wider than any bound allowed.
UNGATED = {"latency_ms_p95": {"unit": "ms", "better": "lower", "bound": None}}
ALIASES = {
    ("chat-closed", "throughput"): "chat.msgs_per_s",
    ("chat-closed", "latency_ms_p50"): "chat.exchange_ms_p50",
    ("chat-closed", "latency_ms_p95"): "chat.exchange_ms_p95",
    ("filedrop-bulk", "throughput"): "filedrop.mb_per_s",
    ("filedrop-bulk", "latency_ms_p50"): "filedrop.file_ms_p50",
    ("fleet-month", "throughput"): "fleet.events_per_s",
    ("replay-iot", "throughput"): "replay.events_per_s",
}


class RepError(RuntimeError):
    """A repetition exited non-zero or printed no result."""


def load_spec() -> Dict[str, Dict[str, Dict[str, object]]]:
    """BENCHMARK.json's metrics, by kind and name."""
    spec = json.loads(SPEC_PATH.read_text())
    return {kind: {m["name"]: m for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def spawn(workload: str, seed: int, *, trace: bool = False, workers: Optional[int] = None,
          setup_only: bool = False, spans: Optional[Path] = None) -> Dict[str, object]:
    """Run one repetition in a fresh process and return its record."""
    cmd = [sys.executable, "-m", "bench.workloads", "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if workers is not None:
        cmd += ["--workers", str(workers)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepError(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """min, quartiles (``repro.sim.metrics.percentile``), max and the values."""
    return {
        "n": len(values),
        "min": min(values),
        "q1": percentile(values, 25),
        "median": percentile(values, 50),
        "q3": percentile(values, 75),
        "max": max(values),
        "values": list(values),
    }


def verify(workload: str, seed: int, reps: Sequence[Dict[str, object]]) -> List[str]:
    """Problems with a workload's repetitions; empty when all are correct.

    At the pinned seed every digest must equal the pinned one; at any
    other seed every digest must equal the first repetition's. Traced
    and single-worker repetitions are held to the same digest, which
    shows that the wrappers only observe and that the worker count does
    not change the fleet's result.
    """
    problems = []
    reference = PINNED[workload] if seed == PINNED_SEED else reps[0]["digest"]
    for rep in reps:
        label = f"{workload} ({'traced' if rep['traced'] else 'untraced'}, " \
                f"params {rep['params']})"
        if rep["failed"]:
            problems.append(f"{label}: {rep['failed']} of {rep['ops']} ops failed their check")
        if rep["digest"] != reference:
            problems.append(f"{label}: digest {rep['digest']} != expected {reference}")
    return problems


def traced_pass(workload: str, seed: int, reps: Sequence[Dict[str, object]]
                ) -> Tuple[Dict[str, float], List[Dict[str, object]], Dict[str, object]]:
    """One traced repetition; returns (per-layer metrics, extra reps, targets).

    The tracing overhead compares throughputs, which are op time
    measured with the same windowing, so a slow spell of the host during
    one repetition does not pass for overhead. A pooled workload is
    traced at one worker, so every span stays in one process; an
    untraced single-worker repetition beside it gives the overhead's
    base and the parallel speedup, and the untraced pooled repetitions
    give the pool's own time: simulate-phase wall minus the shards'
    summed run time divided by the workers.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    extra: List[Dict[str, object]] = []
    untraced = median_throughput = percentile([rep["throughput"] for rep in reps], 50)
    pool = None
    if PARAMS[workload].get("workers", 1) > 1:
        single = spawn(workload, seed, workers=1)
        traced = spawn(workload, seed, trace=True, workers=1, spans=spans)
        extra += [single, traced]
        untraced = single["throughput"]
        pool_seconds = [r["perf"]["simulate_s"] - r["perf"]["shard_s"] / r["perf"]["workers"]
                        for r in reps]
        pool = {
            "seconds": percentile(pool_seconds, 50),
            "wall_s": percentile([r["wall_s"] for r in reps], 50),
            "jobs": reps[0]["perf"]["jobs"],
            "speedup": median_throughput / untraced,
        }
    else:
        traced = spawn(workload, seed, trace=True, spans=spans)
        extra.append(traced)
    metrics = layer_metrics(traced["layers"], traced["ops"], traced["work"],
                            traced["traced_wall_ns"], pool)
    metrics["trace_overhead_frac"] = untraced / traced["throughput"] - 1
    metrics["latency_drift"] = percentile([rep["latency_drift"] for rep in reps], 50)
    return metrics, extra, traced["targets"]


def git_state() -> Dict[str, object]:
    """The checkout's git revision and whether it has uncommitted changes."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}
    if rev.returncode != 0 or status.returncode != 0:
        return {"revision": None, "dirty": None}
    return {"revision": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


def write_result(kind: str, seed: int, workloads: Dict[str, Dict[str, object]]) -> Path:
    """Write a result file with its provenance to ``bench/out/``; returns its path."""
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    label = "-".join(workloads) if len(workloads) == 1 else "all"
    path = OUT / f"{kind}-{label}-seed{seed}-{stamp}.json"
    record = {
        "kind": kind,
        "env": bench_env(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git": git_state(),
        "seed": seed,
        "workloads": workloads,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def _summaries(reps: Sequence[Dict[str, object]], setups: List[float],
               spec: Dict[str, Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics over the untraced repetitions (and set-up runs)."""
    metrics = dict(spec, **UNGATED)
    values = {name: [rep[name] for rep in reps] for name in metrics}
    values["setup_s"] += setups
    return {name: dict(summarize(values[name]), unit=m["unit"], better=m["better"],
                       bound=m["bound"])
            for name, m in metrics.items()}


def suite(seed: int, workloads: Sequence[str], trace: bool) -> Dict[str, Dict[str, object]]:
    """REPEATS fresh-process repetitions per workload, interleaved round-robin."""
    spec = load_spec()
    reps: Dict[str, List[Dict[str, object]]] = {w: [] for w in workloads}
    for repeat in range(REPEATS):
        for workload in workloads:
            print(f"[bench] {workload} repetition {repeat + 1}/{REPEATS}", file=sys.stderr)
            reps[workload].append(spawn(workload, seed))
    results = {}
    for workload in workloads:
        checked = list(reps[workload])
        entry: Dict[str, object] = {"params": PARAMS[workload], "repeats": REPEATS}
        if trace:
            print(f"[bench] {workload} traced pass", file=sys.stderr)
            layers, extra, targets = traced_pass(workload, seed, reps[workload])
            checked += extra
            entry.update(layers=layers, targets=targets)
        problems = verify(workload, seed, checked)
        attempted = sum(rep["ops"] for rep in checked)
        failed = attempted if problems else 0
        entry.update(correct=not problems, problems=problems, attempted=attempted,
                     failed=failed, metrics=_summaries(reps[workload], [], spec["end_to_end"]))
        results[workload] = entry
    return results


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_suite(results: Dict[str, Dict[str, object]]) -> None:
    header = ("workload", "metric", "aka", "unit", "median", "q1", "q3", "bound", "better")
    rows = [header]
    for workload, entry in results.items():
        for name, m in entry["metrics"].items():
            unit = f"{WORK_UNIT[workload]}/s" if name == "throughput" else m["unit"]
            rows.append((workload, name, ALIASES.get((workload, name), ""), unit,
                         _fmt(m["median"]), _fmt(m["q1"]), _fmt(m["q3"]),
                         _fmt(m["bound"]), m["better"]))
        rows.append((workload, "ops_failed_frac", "", "ratio",
                     _fmt(entry["failed"] / entry["attempted"]), "", "", "0", "lower"))
    _print_table(rows)
    for workload, entry in results.items():
        if "layers" not in entry:
            continue
        print(f"\nlayer split, {workload} (traced; shares of the traced wall time)")
        layers = entry["layers"]
        for name, value in layers.items():
            if value:
                print(f"  {name:42s} {_fmt(value)}")
        absent = [key for key, bound in entry["targets"].items() if bound == "absent"]
        if absent:
            print(f"  absent targets: {', '.join(absent)}")
    for workload, entry in results.items():
        for problem in entry["problems"]:
            print(f"FAILED {problem}")


def _print_table(rows: Sequence[Sequence[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def verdict(base: Sequence[float], new: Sequence[float], bound: float, better: str) -> str:
    """ok, regressed, improved or unresolved, for one metric on one workload.

    ``improved`` when every new run beats every baseline run. Otherwise
    ``unresolved`` when the new runs' interquartile range, as a share of
    their median, is wider than the bound; ``regressed`` when the new
    median is worse than the baseline median by more than the bound;
    else ``ok``.
    """
    lower = better == "lower"
    if all((n < b) if lower else (n > b) for n in new for b in base):
        return "improved"
    base_median, new_median = percentile(base, 50), percentile(new, 50)
    if (percentile(new, 75) - percentile(new, 25)) > bound * abs(new_median):
        return "unresolved"
    worse = (new_median - base_median) if lower else (base_median - new_median)
    return "regressed" if worse > bound * abs(base_median) else "ok"


def check(seed: int, workloads: Sequence[str]) -> int:
    """Compare a fresh suite with the committed baseline; returns the exit code."""
    baseline = json.loads(BASELINE_PATH.read_text())
    results = suite(seed, workloads, trace=False)
    path = write_result("check", seed, results)
    rows = [("workload", "metric", "baseline", "new", "q1", "q3", "bound", "verdict")]
    verdicts = []
    for workload, entry in results.items():
        base = baseline["workloads"][workload]["metrics"]
        for name, m in entry["metrics"].items():
            if m["bound"] is None:
                continue
            result = verdict(base[name]["values"], m["values"], m["bound"], m["better"])
            verdicts.append(result)
            rows.append((workload, name, _fmt(base[name]["median"]), _fmt(m["median"]),
                         _fmt(m["q1"]), _fmt(m["q3"]), _fmt(m["bound"]), result))
        failed_frac = entry["failed"] / entry["attempted"]
        verdicts.append("ok" if entry["correct"] else "regressed")
        rows.append((workload, "ops_failed_frac", "0", _fmt(failed_frac), "", "", "0",
                     "ok" if entry["correct"] else "regressed"))
    _print_table(rows)
    for entry in results.values():
        for problem in entry["problems"]:
            print(f"FAILED {problem}")
    print(f"result: {path}", file=sys.stderr)
    return 1 if "regressed" in verdicts else 0


def timed_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One timed run for an automated driver; prints the JSON result last."""
    spec = load_spec()
    start = time.perf_counter()
    reps = [spawn(workload, seed)]
    while time.perf_counter() - start < seconds:
        reps.append(spawn(workload, seed))
    checked = list(reps)
    entry: Dict[str, object] = {"params": PARAMS[workload], "repeats": len(reps),
                                "seconds": seconds}
    if trace:
        layers, extra, targets = traced_pass(workload, seed, reps)
        checked += extra
        entry.update(layers=layers, targets=targets)
        metrics = {name: {"value": layers[name], "unit": m["unit"]}
                   for name, m in spec["per_layer"].items()}
    else:
        setups = [spawn(workload, seed, setup_only=True)["setup_s"]
                  for _ in range(SETUPS - len(reps))]
        entry["metrics"] = _summaries(reps, setups, spec["end_to_end"])
        metrics = {name: {"value": entry["metrics"][name]["median"], "unit": m["unit"]}
                   for name, m in spec["end_to_end"].items()}
    problems = verify(workload, seed, checked)
    attempted = sum(rep["ops"] for rep in checked)
    failed = attempted if problems else 0
    entry.update(correct=not problems, problems=problems, attempted=attempted, failed=failed)
    path = write_result("timed", seed, {workload: entry})
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"result: {path}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", choices=("check",),
                        help="compare a fresh run with bench/baseline.json")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run only this workload (default: all four)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add the traced pass and report the per-layer split")
    parser.add_argument("--seconds", type=float,
                        help="one timed run of --workload for this long (driver form)")
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.seconds is not None and (args.command or not args.workload):
        parser.error("--seconds needs --workload and no command")
    if args.command == "check" and args.trace:
        parser.error("check compares end-to-end metrics; it takes no --trace")
    try:
        if args.seconds is not None:
            return timed_run(args.workload, args.seed, args.seconds, bool(args.trace))
        if args.command == "check":
            return check(args.seed, workloads)
        results = suite(args.seed, workloads, bool(args.trace))
    except RepError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print_suite(results)
    print(f"result: {write_result('suite', args.seed, results)}", file=sys.stderr)
    return 0 if all(entry["correct"] for entry in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
