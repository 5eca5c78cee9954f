"""The benchmark's four workloads; one call of this file runs one repetition.

    PYTHONPATH=src python -m bench.workloads --workload chat-closed --seed 2017 \
        [--trace] [--workers N] [--spans PATH] [--setup-only]

prints one JSON object: set-up and body host times, per-op latency
percentiles, work done, ops that failed their check, the output digest,
peak RSS and, when traced, the layer split. ``bench/run.py`` starts a
fresh process for every repetition, so nothing one repetition leaves in
the interpreter (imports, caches, process-global registries) speeds up
or slows down the next.

Each workload is a context manager: everything before its ``yield`` is
set-up (timed as ``setup_s``), the yielded body runs the timed ops
through an :class:`OpTimer`, and the body's :class:`Outcome` carries the
digest ``bench/run.py`` checks.
"""

import time

# setup_s counts from here: before the program is imported.
STARTED = time.perf_counter()

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "OUT", "PARAMS", "PINNED", "PINNED_SEED", "WORKLOADS", "Outcome", "OpTimer", "run_rep",
]

OUT = Path(__file__).resolve().parent / "out"

# Workload sizes. Every number is host time measured at these sizes.
PARAMS: Dict[str, Dict[str, object]] = {
    "chat-closed": {"exchanges": 2000},
    "filedrop-bulk": {"files": 16, "file_bytes": 64 * 1024},
    "fleet-month": {"tenants": 1_000_000, "days": 30.0, "workers": 2},
    "replay-iot": {"copies": 43},
}

# Output digests at seed 2017 and the sizes above. Any other seed is
# checked by agreement between repetitions instead.
PINNED_SEED = 2017
PINNED: Dict[str, Dict[str, object]] = {
    "chat-closed": {
        "exchanges": 2000, "delivered": 2000, "e2e_ms_median": 211.0475,
        "invoice_total": "$1.01",
    },
    "filedrop-bulk": {
        "files": 16, "verified": 16, "drop_objects_left": 0, "invoice_total": "$1.00",
        "inputs_sha256": "fe416fc44bb81b18320497d6ffbdf8d73c8a736b9b4f83f75392a4b57c1e4c8c",
    },
    "fleet-month": {
        "events": 30_004_177, "invoice_total": "$197.15",
        "tenant_counts_sha256": "a1047deee11c922d6a0e1cd7cf9fa6c3995f104d6beefa845b94b42409b37ada",
        "digest_sha256": "45d159823a256dfcd6c57f29ac2a5f10ec18f19ce6ac801217dcbf99e69b7e6a",
    },
    "replay-iot": {
        "events": 505_551, "invoice_total": "$3.42",
        "trace_sha256": "0d944ceab7b2840e1b735f5bb95e57f3c8173034d6ee591ff60caceda71502e9",
        "digest_sha256": "a43df4b5faa439124bf97f8f76a013eccd907b7af78f61bbe13fe4c5e6ea1302",
    },
}


@dataclass
class Outcome:
    """What a workload body reports besides its timings."""

    work: float  # units of throughput done: exchanges, MB, events
    failed: int  # ops that failed their own check
    digest: Dict[str, object]
    perf: Dict[str, float] = field(default_factory=dict)


class OpTimer:
    """Ends set-up when created, then times each op and the whole body."""

    def __init__(self, started: float, tracer=None):
        self.setup_s = time.perf_counter() - started
        self.tracer = tracer
        self.op_ns: List[int] = []
        self._created = self._last = self._begun = time.perf_counter_ns()

    def begin(self, op: int) -> None:
        if self.tracer is not None:
            self.tracer.begin(op)
        self._begun = time.perf_counter_ns()

    def end(self) -> None:
        self._last = time.perf_counter_ns()
        self.op_ns.append(self._last - self._begun)
        if self.tracer is not None:
            self.tracer.end()

    @property
    def wall_ns(self) -> int:
        """From the end of set-up to the end of the last op."""
        return self._last - self._created


Body = Callable[[OpTimer], Outcome]


def _sha256_json(value: object) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


@contextlib.contextmanager
def chat_closed(seed: int, exchanges: int) -> Iterator[Body]:
    """Paper §6.2 chat at 448 MB on the default plan, as a closed loop.

    One op is one exchange: Alice sends a groupchat message and Bob's
    long poll receives it. Each device waits for its reply, as in the
    paper's prototype, so this is the fixed per-request cost through
    every layer with small-message AEAD.
    """
    from repro import CloudProvider
    from repro.apps.chat import ChatClient, ChatService, chat_manifest
    from repro.core.deployment import Deployer
    from repro.plan import DEFAULT_PLAN

    provider = CloudProvider(seed=seed)
    app = Deployer(provider).deploy(chat_manifest(memory_mb=448, plan=DEFAULT_PLAN),
                                    owner="alice")
    service = ChatService(app)
    service.create_room("room", ["alice@diy", "bob@diy"])
    alice = ChatClient(service, "alice@diy")
    bob = ChatClient(service, "bob@diy")
    for client in (alice, bob):
        client.join("room")
        client.connect()

    def body(timer: OpTimer) -> Outcome:
        failed = delivered = 0
        for i in range(exchanges):
            text = f"message {i}"
            timer.begin(i)
            ack = alice.send("room", text)
            received = bob.poll()
            timer.end()
            delivered += len(received)
            failed += ack is None or [message.body for message in received] != [text]
        return Outcome(work=exchanges, failed=failed, digest={
            "exchanges": exchanges,
            "delivered": delivered,
            "e2e_ms_median": provider.metrics.get("chat.e2e_ms").median(),
            "invoice_total": str(provider.invoice().total()),
        })

    yield body


@contextlib.contextmanager
def filedrop_bulk(seed: int, files: int, file_bytes: int) -> Iterator[Body]:
    """The file-transfer app moving seeded random files one at a time.

    One op is one file: offer and upload, download and verify the
    sha256, acknowledge. Long messages make the ChaCha20 keystream and
    Poly1305 dominate, where ``chat-closed`` is dominated by per-request
    layers.
    """
    from repro import CloudProvider
    from repro.apps.filetransfer import FileTransferClient, file_transfer_manifest
    from repro.core.deployment import Deployer
    from repro.plan import DEFAULT_PLAN

    provider = CloudProvider(seed=seed)
    app = Deployer(provider).deploy(file_transfer_manifest(plan=DEFAULT_PLAN), owner="dana")
    sender = FileTransferClient(app, "dana", chunk_bytes=file_bytes)
    receiver = FileTransferClient(app, "eli", chunk_bytes=file_bytes)
    rng = random.Random(seed)
    payloads = [rng.randbytes(file_bytes) for _ in range(files)]

    def body(timer: OpTimer) -> Outcome:
        failed = 0
        for i, data in enumerate(payloads):
            timer.begin(i)
            ticket = sender.send_file(f"file-{i:03d}.bin", "eli", data)
            intact = hashlib.sha256(receiver.download(ticket)).digest() == \
                hashlib.sha256(data).digest()
            deleted = receiver.acknowledge(ticket)
            timer.end()
            failed += not intact or deleted != ticket.chunks + 1
        left = sum(1 for _ in provider.s3.raw_scan(f"{app.instance_name}-drop"))
        return Outcome(work=files * file_bytes / 1e6, failed=files if left else failed, digest={
            "files": files,
            "verified": files - failed,
            "inputs_sha256": _sha256_json([hashlib.sha256(p).hexdigest() for p in payloads]),
            "drop_objects_left": left,
            "invoice_total": str(provider.invoice().total()),
        })

    yield body


@contextlib.contextmanager
def fleet_month(seed: int, tenants: int, days: float, workers: int) -> Iterator[Body]:
    """The sharded synthetic fleet for one virtual month; one op is the run.

    Arrivals, latency sampling, the billing fold, the process pool, the
    fleet-wide merge and the invoice, with no crypto or cloud-service
    call: app-path changes must leave it flat.
    """
    from repro.sim import shard

    config = shard.FleetConfig(tenants=tenants, days=days, seed=seed)

    def body(timer: OpTimer) -> Outcome:
        timer.begin(0)
        result = shard.run_fleet_sharded(config, workers=workers)
        timer.end()
        digest = result.determinism_digest()
        return Outcome(
            work=result.events,
            failed=int(sum(result.tenant_counts) != result.events),
            digest={
                "events": result.events,
                "invoice_total": result.invoice_total,
                "tenant_counts_sha256": digest["tenant_counts_sha256"],
                "digest_sha256": _sha256_json(digest),
            },
            perf={
                "simulate_s": result.perf.phase_seconds("simulate"),
                "shard_s": result.perf.get("shard_seconds"),
                "workers": workers,
                "jobs": config.logical_shards,
            },
        )

    yield body


@contextlib.contextmanager
def replay_iot(seed: int, copies: int, directory: Path = OUT) -> Iterator[Body]:
    """Replay of the ``iot-fleet`` scenario times ``copies`` tenant copies.

    Set-up writes the scenario as a gzip repro-trace; one op is the run:
    ``read_trace`` and then the sharded replay on one worker. The same
    sampling and fold kernels as ``fleet-month``, fed from trace columns,
    plus trace parsing, partitioning and the digest.
    """
    from repro.sim import replay
    from repro.sim.scenarios import iot_fleet, tenant_multiply

    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"iot-fleet-{seed}x{copies}-{os.getpid()}.jsonl.gz"
    trace = tenant_multiply(iot_fleet(seed), copies)
    expected = len(trace)
    replay.write_trace(path, trace)
    del trace

    def body(timer: OpTimer) -> Outcome:
        timer.begin(0)
        loaded = replay.read_trace(path)
        result = replay.run_replay_sharded(loaded, replay.ReplayConfig(seed=seed), workers=1)
        timer.end()
        digest = result.determinism_digest()
        return Outcome(
            work=result.events,
            failed=int(result.events != expected),
            digest={
                "events": result.events,
                "invoice_total": result.invoice_total,
                "trace_sha256": digest["trace_sha256"],
                "digest_sha256": _sha256_json(digest),
            },
        )

    try:
        yield body
    finally:
        path.unlink(missing_ok=True)


WORKLOADS: Dict[str, Callable[..., contextlib.AbstractContextManager]] = {
    "chat-closed": chat_closed,
    "filedrop-bulk": filedrop_bulk,
    "fleet-month": fleet_month,
    "replay-iot": replay_iot,
}


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def run_rep(
    name: str,
    seed: int,
    params: Dict[str, object],
    started: float,
    trace: bool = False,
    spans: Optional[Path] = None,
    setup_only: bool = False,
) -> Dict[str, object]:
    """Set up and run one repetition in this process; returns its record."""
    from repro.sim.metrics import percentile

    from bench.trace import Tracer, layer_split, self_times

    tracer = Tracer() if trace else None
    with WORKLOADS[name](seed, **params) as body:
        targets = tracer.install() if tracer is not None else {}
        timer = OpTimer(started, tracer)
        if setup_only:
            return {"workload": name, "seed": seed, "setup_s": timer.setup_s}
        try:
            outcome = body(timer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    op_ms = [ns / 1e6 for ns in timer.op_ns]
    # Throughput is the median over windows of a tenth of the ops (one op
    # per window below ten ops): a slow spell of the host that covers
    # less than half the windows does not move it.
    tenth = max(1, len(op_ms) // 10)
    work_per_op = outcome.work / len(op_ms)
    rates = [work_per_op * tenth / (sum(op_ms[i:i + tenth]) / 1e3)
             for i in range(0, len(op_ms) - tenth + 1, tenth)]
    record: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "params": params,
        "traced": trace,
        "setup_s": timer.setup_s,
        "wall_s": timer.wall_ns / 1e9,
        "ops": len(op_ms),
        "work": outcome.work,
        "failed": outcome.failed,
        "throughput": percentile(rates, 50),
        "latency_ms_p50": percentile(op_ms, 50),
        "latency_ms_p95": percentile(op_ms, 95),
        "latency_drift": percentile(op_ms[-tenth:], 50) / percentile(op_ms[:tenth], 50),
        "peak_rss_mb": _peak_rss_mb(),
        "digest": outcome.digest,
        "perf": outcome.perf,
    }
    if tracer is not None:
        record["targets"] = targets
        record["layers"] = layer_split(tracer.spans, tracer.counts)
        record["traced_wall_ns"] = sum(
            end - start for _, start, end, parent, _ in tracer.spans if parent < 0
        )
        record["spans"] = len(tracer.spans)
        if sum(self_times(tracer.spans)) != record["traced_wall_ns"]:
            raise RuntimeError("layer self times do not sum to the traced wall time")
        if spans is not None:
            tracer.write_spans(spans)
    return record


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description="Run one benchmark repetition.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, help="override the fleet worker count")
    parser.add_argument("--trace", action="store_true", help="record layer spans")
    parser.add_argument("--spans", type=Path, help="write the spans here (with --trace)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up, then stop before the first op")
    args = parser.parse_args(argv)
    params = dict(PARAMS[args.workload])
    if args.workers is not None:
        params["workers"] = args.workers
    record = run_rep(args.workload, args.seed, params, STARTED, trace=args.trace,
                     spans=args.spans, setup_only=args.setup_only)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
