"""Host-clock layer tracing for the benchmark, applied from outside the program.

The traced pass wraps each layer's public functions in ``perf_counter_ns``
spans without editing a file under ``src/``: :meth:`Tracer.install`
replaces a method on its class, and a module-level function at *every*
binding of it in the program's modules (``seal`` is bound separately in
``crypto.envelope``, ``cloud.kms``, ``net.tls`` and ``crypto.pgp``, and a
``from ... import`` copy is only reached by patching that copy).
:meth:`Tracer.uninstall` puts every original back by identity.

A span is ``[layer, start_ns, end_ns, parent_index, op_id]``, kept in
memory and written out once the run ends. Wrappers record nothing
outside an op, so only the benchmark's timed body is attributed. A
layer's self time is its spans' durations minus the durations of their
direct children; in integer nanoseconds the self times of one op sum
exactly to the op's root span.

Layers are named after the program's modules. ``client`` is the root
span of each op: its self time is the op's wall time minus every timed
layer (client app code, resilience, the benchmark loop itself).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "CLIENT",
    "APP_LAYERS",
    "FLEET_LAYERS",
    "TARGETS",
    "Target",
    "Tracer",
    "self_times",
    "layer_split",
    "layer_metrics",
    "per_layer_names",
]

CLIENT = "client"

Count = Callable[[tuple, dict], int]


def _arg(position: int, name: str, measure: Callable[[object], int] = len) -> Count:
    """A counter reading one call argument (by position or keyword)."""

    def count(args: tuple, kwargs: dict) -> int:
        return measure(args[position] if len(args) > position else kwargs[name])

    return count


def _block(args: tuple, kwargs: dict) -> int:
    return 64  # one ChaCha20 keystream block


@dataclass(frozen=True)
class Target:
    """One public function or method, timed as part of ``layer``.

    ``qualname`` is ``"function"`` or ``"Class.method"`` in ``module``.
    ``only_in`` limits a function to the listed module bindings (the
    ChaCha20 entry points are timed as ``crypto.aead`` calls them, not
    per block inside the cipher). ``count`` adds an exact per-call
    quantity (bytes, samples) to the layer; ``generator`` times each
    ``next()`` of a generator function rather than the call.
    """

    layer: str
    module: str
    qualname: str
    only_in: Tuple[str, ...] = ()
    count: Optional[Count] = None
    generator: bool = False


def _methods(layer: str, module: str, cls: str, names: Iterable[str]) -> List[Target]:
    return [Target(layer, module, f"{cls}.{name}") for name in names]


_STORE_METHODS = ("get", "put", "list", "delete")

TARGETS: Tuple[Target, ...] = tuple(
    _methods("net.tls", "repro.net.tls", "TlsSession", ("seal", "open"))
    + _methods("net.channel", "repro.core.client", "SecureChannel", ("request",))
    + _methods("cloud.gateway", "repro.cloud.gateway", "ApiGateway", ("handle", "respond"))
    + _methods("cloud.lambda", "repro.cloud.lambda_.platform", "ServerlessPlatform", ("invoke",))
    + _methods("runtime", "repro.cloud.lambda_.container", "Container", ("execute",))
    + _methods("runtime.store", "repro.runtime.store", "StateStore",
               ("put_sealed", "get_sealed", "put_json", "get_json"))
    + _methods("runtime.store", "repro.runtime.store", "S3Store", _STORE_METHODS)
    + _methods("runtime.store", "repro.runtime.store", "DynamoStore", _STORE_METHODS)
    + _methods("runtime.store", "repro.runtime.store", "CachedStore",
               _STORE_METHODS + ("put_sealed", "get_sealed", "put_json", "get_json",
                                 "cached_get", "cached_get_json"))
    + _methods("cloud.s3", "repro.cloud.s3", "ObjectStore",
               ("put_object", "get_object", "list_objects", "delete_object"))
    + _methods("cloud.sqs", "repro.cloud.sqs", "QueueService",
               ("send_message", "receive_messages", "delete_message"))
    + _methods("cloud.kms", "repro.cloud.kms", "KeyManagementService",
               ("generate_data_key", "encrypt_data_key", "decrypt_data_key"))
    + _methods("crypto.envelope", "repro.crypto.envelope", "EnvelopeEncryptor",
               ("encrypt", "decrypt"))
    + [
        Target("crypto.chacha20", "repro.crypto.chacha20", "chacha20_encrypt",
               only_in=("repro.crypto.aead",), count=_arg(3, "data")),
        Target("crypto.chacha20", "repro.crypto.chacha20", "chacha20_block",
               only_in=("repro.crypto.aead",), count=_block),
        Target("crypto.poly1305", "repro.crypto.poly1305", "poly1305_mac",
               count=_arg(1, "message")),
        Target("sim.workload", "repro.sim.workload", "DiurnalWorkload.arrival_batches_vec",
               generator=True),
        Target("sim.rng", "repro.sim.rng", "SeededRng.uniform_block"),
        Target("sim.latency", "repro.sim.latency", "LatencyModel.sample_block_vec",
               count=_arg(2, "count", int)),
        Target("sim.shard", "repro.sim.shard", "run_shard"),
        Target("sim.shard.merge", "repro.sim.shard", "merge_shards"),
        Target("sim.replay.format", "repro.sim.replay.format", "read_trace"),
        Target("sim.replay.partition", "repro.sim.replay.replayer", "partition_trace"),
        Target("sim.replay.fold", "repro.sim.replay.replayer", "replay_shard"),
        Target("sim.replay.merge", "repro.sim.replay.replayer", "merge_replay"),
        Target("sim.replay.digest", "repro.sim.replay.format", "trace_digest"),
    ]
    + _methods("cloud.billing", "repro.cloud.billing", "Invoice", ("__init__", "total"))
)

# Layers of a real app request, reported per op.
APP_LAYERS = (
    "net.tls", "net.channel", "cloud.gateway", "cloud.lambda", "runtime",
    "runtime.store", "cloud.s3", "cloud.sqs", "cloud.kms", "crypto.envelope",
    "crypto.chacha20", "crypto.poly1305", CLIENT,
)
# Layers of a fleet run, reported per event. ``sim.shard.pool`` is not a
# span: it is derived from an untraced multi-worker run (see run.py).
FLEET_LAYERS = (
    "sim.workload", "sim.rng", "sim.latency", "sim.shard", "sim.shard.merge",
    "sim.shard.pool", "sim.replay.format", "sim.replay.partition",
    "sim.replay.fold", "sim.replay.merge", "sim.replay.digest", "cloud.billing",
)
_COUNT_METRIC = {
    "crypto.chacha20": "bytes_per_op",
    "crypto.poly1305": "bytes_per_op",
    "sim.latency": "samples",
}


class Tracer:
    """Installs span wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self.op = -1
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, layer: str) -> list:
        span = [layer, 0, 0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def begin(self, op: int) -> None:
        """Open the root span of op ``op``."""
        self.op = op
        self._open(CLIENT)

    def end(self) -> None:
        """Close the root span opened by :meth:`begin`."""
        self._close(self.spans[self._stack[-1]])

    def wrap(self, fn: Callable, layer: str, count: Optional[Count] = None,
             generator: bool = False) -> Callable:
        """``fn`` with a span around each call (or each ``next()``)."""
        stack = self._stack
        counts = self.counts

        if generator:
            @functools.wraps(fn)
            def timed_next(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    span = self._open(layer) if stack else None
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        if span is not None:
                            self._close(span)
                    yield item

            return timed_next

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if count is not None:
                counts[layer] = counts.get(layer, 0) + count(args, kwargs)
            span = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return timed

    # -- installation ------------------------------------------------------

    def install(self, targets: Sequence[Target] = TARGETS) -> Dict[str, object]:
        """Wrap every target; returns ``{module:qualname: bindings or "absent"}``.

        A target whose module or attribute no longer exists is reported
        as ``"absent"`` instead of raising, so a renamed function shows
        up as a missing layer rather than a crashed benchmark.
        """
        report: Dict[str, object] = {}
        for target in targets:
            key = f"{target.module}:{target.qualname}"
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                report[key] = "absent"
                continue
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if isinstance(owner, type) else None
                if not callable(original):
                    report[key] = "absent"
                    continue
                bindings = [(owner, attr)]
            else:
                original = getattr(module, attr, None)
                if not callable(original):
                    report[key] = "absent"
                    continue
                bindings = self._bindings(original, target)
            wrapper = self.wrap(original, target.layer, target.count, target.generator)
            for owner, name in bindings:
                setattr(owner, name, wrapper)
                self._installed.append((owner, name, original))
            report[key] = len(bindings)
        return report

    @staticmethod
    def _bindings(original: object, target: Target) -> List[Tuple[object, str]]:
        """Every ``(module, name)`` in the target's package bound to ``original``."""
        package = target.module.split(".")[0]
        found = []
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            if target.only_in and name not in target.only_in:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    found.append((module, attr))
        return found

    def uninstall(self) -> None:
        """Restore every wrapped binding to its original object."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write the spans as JSON lines, with each span's self time."""
        with open(path, "w") as out:
            for (layer, start, end, parent, op), own in zip(self.spans, self_times(self.spans)):
                out.write(json.dumps({"name": layer, "start_ns": start, "end_ns": end,
                                      "parent": parent, "op": op, "self_ns": own}) + "\n")


def self_times(spans: Sequence[list]) -> List[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_split(spans: Sequence[list], counts: Dict[str, int]) -> Dict[str, Dict[str, int]]:
    """Per layer: total self time (ns), calls, and its exact count."""
    split: Dict[str, Dict[str, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = split.setdefault(span[0], {"self_ns": 0, "calls": 0, "count": 0})
        entry["self_ns"] += own
        entry["calls"] += 1
    for layer, count in counts.items():
        split.setdefault(layer, {"self_ns": 0, "calls": 0, "count": 0})["count"] = count
    return split


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for layer in APP_LAYERS:
        names += [f"{layer}.self_ms_per_op", f"{layer}.share", f"{layer}.calls_per_op"]
        if layer in _COUNT_METRIC:
            names.append(f"{layer}.{_COUNT_METRIC[layer]}")
    for layer in FLEET_LAYERS:
        names += [f"{layer}.ns_per_event", f"{layer}.share", f"{layer}.calls"]
        if layer in _COUNT_METRIC:
            names.append(f"{layer}.{_COUNT_METRIC[layer]}")
    names.append("sim.shard.pool.parallel_speedup")
    return names


def layer_metrics(
    split: Dict[str, Dict[str, int]], ops: int, work: float, wall_ns: int,
    pool: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``ops`` divides the app layers (exchanges, files, runs), ``work``
    the fleet layers (events), ``wall_ns`` (the root spans' total) the
    shares. ``pool`` carries the derived ``sim.shard.pool`` figures
    (``seconds``, ``wall_s``, ``jobs``, ``speedup``); absent, they are 0.
    """
    empty = {"self_ns": 0, "calls": 0, "count": 0}
    metrics: Dict[str, float] = {}
    for layer in APP_LAYERS:
        entry = split.get(layer, empty)
        metrics[f"{layer}.self_ms_per_op"] = entry["self_ns"] / 1e6 / ops
        metrics[f"{layer}.share"] = entry["self_ns"] / wall_ns
        metrics[f"{layer}.calls_per_op"] = entry["calls"] / ops
        if layer in _COUNT_METRIC:
            metrics[f"{layer}.{_COUNT_METRIC[layer]}"] = entry["count"] / ops
    for layer in FLEET_LAYERS:
        entry = split.get(layer, empty)
        metrics[f"{layer}.ns_per_event"] = entry["self_ns"] / work
        metrics[f"{layer}.share"] = entry["self_ns"] / wall_ns
        metrics[f"{layer}.calls"] = entry["calls"]
        if layer in _COUNT_METRIC:
            metrics[f"{layer}.{_COUNT_METRIC[layer]}"] = entry["count"]
    metrics["sim.shard.pool.parallel_speedup"] = 0.0
    if pool is not None:
        metrics["sim.shard.pool.ns_per_event"] = pool["seconds"] * 1e9 / work
        metrics["sim.shard.pool.share"] = pool["seconds"] / pool["wall_s"]
        metrics["sim.shard.pool.calls"] = pool["jobs"]
        metrics["sim.shard.pool.parallel_speedup"] = pool["speedup"]
    return metrics
