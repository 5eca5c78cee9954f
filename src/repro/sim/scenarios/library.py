"""The scenario library: deterministic trace generators for real shapes.

Every generator is a pure function of its seed — all randomness flows
through scalar :class:`~repro.sim.rng.SeededRng` draws (pure-python
Mersenne Twister), so the produced trace, its digest, and everything a
replay derives from it are identical with or without numpy. The five
library scenarios are traffic shapes no diurnal curve captures:

``flash-crowd``
    A quiet multi-tenant baseline, then one tenant's page goes viral —
    a sharp arrival spike with exponential cool-down, mostly landing on
    the hot deployment.
``viral-groupchat``
    A branching re-share cascade: each message is re-posted into other
    rooms with some probability, generation after generation, until the
    meme dies out.
``iot-fleet``
    Homes full of heterogeneous devices — thermostats on jittered
    periodic reports, motion sensors in occupancy bursts, cameras with
    heartbeats plus clip uploads — each device its own inter-arrival
    process (the Self-Serviced-IoT shape).
``mailing-list-storm``
    One unfortunate announcement, then waves of reply-to-all, each
    reply fanning out a delivery per subscriber.
``backup-day``
    Everyone's nightly backup: per-tenant windows in the small hours,
    bulk file-transfer chunks at large payload sizes.

``python -m repro scenarios`` lists the catalog with per-seed event
counts and golden digests; ``tests/sim/test_scenarios.py`` pins them.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigurationError
from repro.sim.replay.format import Trace, TraceEvent, TraceHeader, meta_pairs, sort_events
from repro.sim.replay.replayer import ReplayConfig, run_replay_sharded
from repro.sim.rng import SeededRng
from repro.units import MICROS_PER_HOUR, MICROS_PER_MINUTE, MICROS_PER_SECOND

__all__ = [
    "SCENARIOS",
    "build_scenario",
    "scenario_catalog",
    "flash_crowd",
    "viral_groupchat",
    "iot_fleet",
    "mailing_list_storm",
    "backup_day",
]

DEFAULT_SCENARIO_SEED = 2017


def _rng(name: str, seed: int) -> SeededRng:
    return SeededRng(seed, f"scenario/{name}")


def flash_crowd(seed: int = DEFAULT_SCENARIO_SEED) -> Trace:
    """One tenant's page goes viral on top of a quiet fleet baseline."""
    rng = _rng("flash-crowd", seed)
    tenants = 48
    events: List[TraceEvent] = []
    # The baseline: every deployment sees a slow trickle over six hours.
    for tenant in range(tenants):
        trng = rng.child(f"tenant-{tenant}")
        at_hours = 0.0
        while True:
            at_hours += trng.expovariate(8.0)  # ~8 requests/hour each
            if at_hours >= 6.0:
                break
            events.append(TraceEvent(
                at_micros=round(at_hours * MICROS_PER_HOUR),
                tenant=tenant, app="web", route="/web/page",
                payload_bytes=trng.randint(600, 2400),
            ))
    # The crowd: at hour 3 one deployment is suddenly everywhere.
    crowd = rng.child("crowd")
    hot = crowd.randint(0, tenants - 1)
    peak = 3 * MICROS_PER_HOUR
    for _ in range(3200):
        decay_hours = crowd.expovariate(6.0)  # mean 10-minute cool-down
        tenant = hot if crowd.random() < 0.8 else crowd.randint(0, tenants - 1)
        events.append(TraceEvent(
            at_micros=peak + round(decay_hours * MICROS_PER_HOUR),
            tenant=tenant, app="web", route="/web/page",
            payload_bytes=crowd.randint(600, 2400),
            meta=meta_pairs({"phase": "crowd"}),
        ))
    header = TraceHeader("flash-crowd", seed, tenants,
                         meta={"hot_tenant": hot})
    return Trace(header=header, events=sort_events(events)).validate()


def viral_groupchat(seed: int = DEFAULT_SCENARIO_SEED) -> Trace:
    """A re-share cascade across group chats: a capped branching process."""
    rng = _rng("viral-groupchat", seed)
    tenants = 64
    cap = 4000
    events: List[TraceEvent] = []
    # Seed posts: a few originals, each in its own room.
    frontier = []
    for origin in range(5):
        tenant = rng.randint(0, tenants - 1)
        at = origin * 5 * MICROS_PER_MINUTE
        frontier.append((at, tenant, 0))
    while frontier and len(events) < cap:
        at, tenant, generation = frontier.pop(0)
        actor = f"user-{rng.randint(0, 9999)}"
        events.append(TraceEvent(
            at_micros=at, tenant=tenant, app="chat", route="/chat/send",
            payload_bytes=rng.randint(200, 1800), actor=actor,
            meta=meta_pairs({"generation": generation}),
        ))
        # Early generations spread hard, then the meme fatigues.
        mean_shares = max(3.2 * (0.8 ** generation), 0.05)
        shares = _poisson(rng, mean_shares)
        for _ in range(shares):
            delay = round(rng.expovariate(12.0) * MICROS_PER_HOUR)  # ~5 min
            target = rng.randint(0, tenants - 1)
            frontier.append((at + delay, target, generation + 1))
    header = TraceHeader("viral-groupchat", seed, tenants)
    return Trace(header=header, events=sort_events(events)).validate()


def iot_fleet(seed: int = DEFAULT_SCENARIO_SEED) -> Trace:
    """Homes of heterogeneous devices, each its own arrival process."""
    rng = _rng("iot-fleet", seed)
    tenants = 32
    horizon = 4 * MICROS_PER_HOUR
    events: List[TraceEvent] = []
    for tenant in range(tenants):
        home = rng.child(f"home-{tenant}")
        # Thermostats: periodic reports with lognormal jitter.
        for dev in range(home.randint(1, 3)):
            drng = home.child(f"thermo-{dev}")
            period = 15 * MICROS_PER_MINUTE
            at = drng.randint(0, period)
            while at < horizon:
                events.append(TraceEvent(
                    at_micros=at, tenant=tenant, app="iot", route="/iot/report",
                    payload_bytes=drng.randint(96, 160),
                    actor=f"thermo-{dev}",
                ))
                at += period + round(drng.lognormvariate(9.0, 0.6))
        # Motion sensors: quiet, then occupancy bursts.
        for dev in range(home.randint(1, 4)):
            drng = home.child(f"motion-{dev}")
            at = round(drng.expovariate(2.0) * MICROS_PER_HOUR)
            while at < horizon:
                burst = drng.randint(2, 9)
                for _ in range(burst):
                    if at >= horizon:
                        break
                    events.append(TraceEvent(
                        at_micros=at, tenant=tenant, app="iot", route="/iot/event",
                        payload_bytes=drng.randint(64, 128),
                        actor=f"motion-{dev}",
                    ))
                    at += round(drng.expovariate(1.0) * 20 * MICROS_PER_SECOND)
                at += round(drng.expovariate(1.5) * MICROS_PER_HOUR)
        # One camera: minute heartbeats plus occasional clip uploads.
        crng = home.child("camera")
        at = crng.randint(0, MICROS_PER_MINUTE)
        while at < horizon:
            events.append(TraceEvent(
                at_micros=at, tenant=tenant, app="iot", route="/iot/heartbeat",
                payload_bytes=48, actor="camera-0",
            ))
            if crng.random() < 0.06:
                events.append(TraceEvent(
                    at_micros=at + crng.randint(1, MICROS_PER_SECOND),
                    tenant=tenant, app="iot", route="/iot/clip",
                    payload_bytes=crng.randint(200_000, 900_000),
                    actor="camera-0",
                ))
            at += MICROS_PER_MINUTE + crng.randint(-MICROS_PER_SECOND, MICROS_PER_SECOND)
    header = TraceHeader("iot-fleet", seed, tenants)
    return Trace(header=header, events=sort_events(events)).validate()


def mailing_list_storm(seed: int = DEFAULT_SCENARIO_SEED) -> Trace:
    """Reply-to-all waves: every reply fans out one send per subscriber."""
    rng = _rng("mailing-list-storm", seed)
    tenants = 16
    events: List[TraceEvent] = []
    for tenant in range(tenants):
        lrng = rng.child(f"list-{tenant}")
        subscribers = lrng.randint(15, 45)
        at = lrng.randint(0, MICROS_PER_HOUR)
        # The announcement, then waves of reply-all that slowly die off.
        wave_replies = 1
        for wave in range(6):
            for reply in range(wave_replies):
                sender = f"member-{lrng.randint(0, subscribers - 1)}"
                for _ in range(subscribers):  # one delivery per subscriber
                    events.append(TraceEvent(
                        at_micros=at, tenant=tenant, app="email",
                        route="/email/outbound",
                        payload_bytes=lrng.randint(4_000, 40_000),
                        actor=sender, meta=meta_pairs({"wave": wave}),
                    ))
                at += round(lrng.expovariate(30.0) * MICROS_PER_HOUR)  # ~2 min
            wave_replies = max(1, _poisson(lrng, max(6.0 - 1.5 * wave, 0.4)))
    header = TraceHeader("mailing-list-storm", seed, tenants)
    return Trace(header=header, events=sort_events(events)).validate()


def backup_day(seed: int = DEFAULT_SCENARIO_SEED) -> Trace:
    """Everyone's nightly backup: bulk chunk uploads in the small hours."""
    rng = _rng("backup-day", seed)
    tenants = 24
    events: List[TraceEvent] = []
    for tenant in range(tenants):
        trng = rng.child(f"tenant-{tenant}")
        window = MICROS_PER_HOUR + trng.randint(0, 3 * MICROS_PER_HOUR)  # 1–4 am
        at = window
        for file_no in range(trng.randint(3, 9)):
            chunks = trng.randint(8, 40)
            for _ in range(chunks):
                events.append(TraceEvent(
                    at_micros=at, tenant=tenant, app="filetransfer",
                    route="/xfer/upload",
                    payload_bytes=trng.randint(48_000, 66_000),
                    actor="backup-agent", meta=meta_pairs({"file": file_no}),
                ))
                at += trng.randint(40_000, 400_000)  # 40–400 ms between chunks
            at += round(trng.expovariate(60.0) * MICROS_PER_HOUR)  # ~1 min between files
    header = TraceHeader("backup-day", seed, tenants)
    return Trace(header=header, events=sort_events(events)).validate()


def _poisson(rng: SeededRng, mean: float) -> int:
    """Knuth's Poisson sampler on the scalar uniform stream."""
    import math

    limit = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


SCENARIOS: Dict[str, Callable[[int], Trace]] = {
    "flash-crowd": flash_crowd,
    "viral-groupchat": viral_groupchat,
    "iot-fleet": iot_fleet,
    "mailing-list-storm": mailing_list_storm,
    "backup-day": backup_day,
}


def build_scenario(name: str, seed: int = DEFAULT_SCENARIO_SEED) -> Trace:
    """Build one library scenario by name."""
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; pick from {sorted(SCENARIOS)}"
        )
    return SCENARIOS[name](seed)


def scenario_catalog(
    seed: int = DEFAULT_SCENARIO_SEED, replay: bool = False
) -> List[Dict[str, object]]:
    """The library listing ``python -m repro scenarios`` prints.

    Per scenario: tenants, event count, duration, and the golden trace
    digest for ``seed``. With ``replay=True`` each trace is also run
    through the sharded replayer to report its golden invoice — the
    per-seed values the tests pin.
    """
    catalog: List[Dict[str, object]] = []
    for name in sorted(SCENARIOS):
        trace = build_scenario(name, seed)
        entry: Dict[str, object] = {
            "name": name,
            "seed": seed,
            "tenants": trace.header.tenants,
            "events": len(trace),
            "duration_hours": round(trace.duration_micros() / MICROS_PER_HOUR, 2),
            "trace_sha256": trace.digest(),
        }
        if replay:
            result = run_replay_sharded(trace, ReplayConfig(seed=seed))
            entry["invoice_total"] = result.invoice_total
            entry["tenant_counts_sha256"] = result.counts_sha256()
            entry["latency_p99_ms"] = (
                round(result.latency.p99(), 3) if len(result.latency) else None
            )
        catalog.append(entry)
    return catalog
