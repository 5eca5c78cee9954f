"""§5's strawman: a traditional always-on VM email server.

Two roles:

1. **Cost** — :func:`table1_workload` prices Table 1 exactly (t2.nano
   24/7 → $4.32 compute, 5 GB mail store → $0.17, ~1 billable GB of
   egress → $0.09; total $4.58), and :func:`ha_configurations`
   enumerates what "highly available" actually costs (replication,
   health checks, a load balancer) — the basis of the abstract's "50×
   cheaper" claim.
2. **Availability** — :class:`VmEmailServer` actually runs on the
   simulated EC2 service and *fails requests during an outage* unless a
   replica exists, which the availability bench exercises against the
   transparently failing-over serverless deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.ec2 import Ec2Service, Instance
from repro.cloud.pricing import EC2_HOURS_PER_MONTH
from repro.core.costmodel import CostEstimate, CostModel, VmWorkload
from repro.errors import RegionUnavailable
from repro.net.address import Region, US_WEST_2
from repro.protocols.smtp import SmtpServer, SmtpTransaction

__all__ = ["table1_workload", "table1_estimate", "ha_configurations", "VmEmailServer"]


def table1_workload() -> VmWorkload:
    """Table 1's configuration: one t2.nano, no replication."""
    return VmWorkload(
        name="vm_email",
        instance_type="t2.nano",
        hours_per_month=EC2_HOURS_PER_MONTH,
        storage_gb=5.0,
        transfer_gb_per_month=2.0,  # 1 billable GB after the free GB
        s3_puts_per_month=10_000,
        s3_gets_per_month=5_000,
    )


def table1_estimate() -> CostEstimate:
    """The Table 1 cost breakdown."""
    return CostModel().estimate_vm(table1_workload(), accounting="full")


def ha_configurations() -> Dict[str, CostEstimate]:
    """What "highly available" costs on VMs, in increasing seriousness.

    The paper: "Replicating the instance to another geographic region
    doubles this cost" — and a production failover setup adds health
    checks and a load balancer. The abstract's 50× compares DIY email
    ($0.26) against such a configuration.
    """
    model = CostModel()
    base = table1_workload()

    def _with(name: str, **overrides) -> CostEstimate:
        from dataclasses import replace

        return model.estimate_vm(replace(base, name=name, **overrides), accounting="full")

    return {
        "single (Table 1)": _with("vm_email_single"),
        "replicated x2": _with("vm_email_x2", replicas=2),
        "replicated x2 + health checks": _with("vm_email_x2_hc", replicas=2, health_checks=2),
        "replicated x2 + health checks + ELB": _with(
            "vm_email_full_ha", replicas=2, health_checks=2, use_elb=True
        ),
        "t2.micro x2 + health checks + ELB": _with(
            "vm_email_micro_ha", instance_type="t2.micro",
            replicas=2, health_checks=2, use_elb=True,
        ),
    }


@dataclass
class _Replica:
    instance: Instance
    region: Region


class VmEmailServer:
    """A runnable VM-hosted SMTP server for the availability experiments."""

    def __init__(self, ec2: Ec2Service, regions: Optional[List[Region]] = None):
        self._ec2 = ec2
        self._replicas: List[_Replica] = []
        self.accepted: List[SmtpTransaction] = []
        self.rejected_during_outage = 0
        for region in regions or [US_WEST_2]:
            instance = ec2.launch("t2.nano", region)
            self._replicas.append(_Replica(instance, region))

    @property
    def replica_count(self) -> int:
        return len(self._replicas)

    def _pick_replica(self) -> _Replica:
        for replica in self._replicas:
            if self._ec2.is_available(replica.instance.instance_id):
                return replica
        raise RegionUnavailable("no email server replica is reachable")

    def handle_smtp(self, sender: str, recipients: List[str], data: bytes) -> bool:
        """Process one inbound mail; False if every replica is down."""
        try:
            replica = self._pick_replica()
        except RegionUnavailable:
            self.rejected_during_outage += 1
            return False
        self._ec2.process_request(replica.instance.instance_id)
        server = SmtpServer("mail.vm.diy", lambda txn: self.accepted.append(txn) or True)
        from repro.protocols.smtp import SmtpClient

        SmtpClient(server).send_message(sender, recipients, data)
        return True

    def shutdown(self) -> None:
        for replica in self._replicas:
            self._ec2.terminate(replica.instance.instance_id)
        self._replicas = []
