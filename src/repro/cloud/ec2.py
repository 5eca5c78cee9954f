"""EC2-style virtual machines.

Used twice in the paper: the §5 strawman (an always-on t2.nano email
server, Table 1) and the video-conferencing relay (§6.1, a per-second
billed t2.medium because "Lambda does not support multiple connections
yet"). Instances accrue billable seconds while running; availability
experiments mark instances down via the fault injector, and a VM with no
replica simply fails requests during an outage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.billing import BillingMeter, UsageKind
from repro.cloud.pricing import PriceBook
from repro.errors import NoSuchInstance, RegionUnavailable
from repro.net.address import Region
from repro.sim.clock import SimClock
from repro.sim.faults import FaultInjector
from repro.sim.latency import LatencyModel
from repro.units import MICROS_PER_SECOND

__all__ = ["Instance", "Ec2Service"]


@dataclass
class Instance:
    """One VM instance."""

    instance_id: str
    instance_type: str
    region: Region
    launched_at: int
    running: bool = True
    stopped_at: Optional[int] = None
    billed_micros_accrued: int = 0
    ebs_gb: float = 0.0
    _last_meter: int = 0


class Ec2Service:
    """Simulated EC2: launch/stop/terminate with per-second metering."""

    def __init__(
        self,
        clock: SimClock,
        latency: LatencyModel,
        meter: BillingMeter,
        prices: PriceBook,
        faults: Optional[FaultInjector] = None,
    ):
        self._clock = clock
        self._latency = latency
        self._meter = meter
        self._prices = prices
        self._faults = faults
        self._instances: Dict[str, Instance] = {}
        self._ids = itertools.count(1)

    def launch(self, instance_type: str, region: Region, ebs_gb: float = 8.0) -> Instance:
        self._prices.instance(instance_type)  # validate the type exists
        instance = Instance(
            f"i-{next(self._ids):08d}", instance_type, region, self._clock.now, ebs_gb=ebs_gb
        )
        instance._last_meter = self._clock.now
        self._instances[instance.instance_id] = instance
        return instance

    def get(self, instance_id: str) -> Instance:
        try:
            return self._instances[instance_id]
        except KeyError:
            raise NoSuchInstance(f"no such instance {instance_id!r}") from None

    def _accrue(self, instance: Instance) -> None:
        """Meter runtime seconds since the last accrual."""
        if not instance.running:
            return
        elapsed = self._clock.now - instance._last_meter
        if elapsed > 0:
            self._meter.record(
                UsageKind.EC2_INSTANCE_SECONDS,
                elapsed / MICROS_PER_SECOND,
                detail=instance.instance_type,
            )
            instance.billed_micros_accrued += elapsed
            instance._last_meter = self._clock.now

    def accrue_all(self) -> None:
        """Flush runtime metering for every running instance (call before invoicing)."""
        for instance in self._instances.values():
            self._accrue(instance)

    def stop(self, instance_id: str) -> None:
        instance = self.get(instance_id)
        self._accrue(instance)
        instance.running = False
        instance.stopped_at = self._clock.now

    def terminate(self, instance_id: str) -> None:
        self.stop(instance_id)
        del self._instances[instance_id]

    def is_available(self, instance_id: str) -> bool:
        """Can the instance serve a request right now?"""
        instance = self.get(instance_id)
        if not instance.running:
            return False
        if self._faults is not None and (
            self._faults.is_down(instance.instance_id) or self._faults.is_down(instance.region.name)
        ):
            return False
        return True

    def process_request(self, instance_id: str) -> None:
        """Serve one request on the VM, or fail if it is down.

        Unlike Lambda, a VM must be up to answer — this is the
        availability asymmetry the §5 strawman pays $4.58/month to only
        partially fix.
        """
        if not self.is_available(instance_id):
            raise RegionUnavailable(f"instance {instance_id} is not available")
        self._clock.advance(self._latency.sample("vm.process").micros)

    def running_instances(self) -> List[Instance]:
        return [i for i in self._instances.values() if i.running]
