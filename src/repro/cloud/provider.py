"""The cloud provider facade: one object wiring every service together.

A :class:`CloudProvider` is one account's view of the simulated cloud:
shared virtual clock, latency model, IAM, billing meter, and all the
services (§4's building blocks) constructed against them. Deployment
code (:mod:`repro.core.deployment`) and the applications only ever see
this facade, which is also what makes provider *migration* (§3.3)
expressible: stand up a second provider and copy the encrypted state.
"""

from __future__ import annotations

from typing import Optional

from repro.cloud.billing import BillingMeter, Invoice
from repro.cloud.dynamo import KeyValueStore
from repro.cloud.ec2 import Ec2Service
from repro.cloud.gateway import ApiGateway
from repro.cloud.iam import Iam
from repro.cloud.kms import KeyManagementService
from repro.cloud.lambda_.platform import ServerlessPlatform
from repro.cloud.s3 import ObjectStore
from repro.cloud.ses import EmailService
from repro.cloud.shield import Shield
from repro.cloud.sqs import QueueService
from repro.crypto.keys import Entropy
from repro.net.address import Region, US_WEST_2
from repro.net.fabric import NetworkFabric
from repro.obs.collector import TraceCollector
from repro.obs.trace import Tracer
from repro.sim.clock import SimClock
from repro.sim.event import EventLoop
from repro.sim.faults import FaultInjector
from repro.sim.latency import LatencyModel
from repro.sim.metrics import MetricRegistry
from repro.sim.rng import SeededRng

__all__ = ["CloudProvider"]


class CloudProvider:
    """A full simulated cloud account.

    Construct with a seed for a fully deterministic run::

        cloud = CloudProvider(name="aws-sim", seed=7)
        cloud.kms.create_key("alice-master")
    """

    def __init__(
        self,
        name: str = "aws-sim",
        seed: int = 0,
        region: Region = US_WEST_2,
        entropy: Optional[Entropy] = None,
        supports_container_suspend: bool = False,
        plan: Optional["DeploymentPlan"] = None,
    ):
        """``plan`` (a :class:`repro.plan.DeploymentPlan`) supplies the
        account's price book and accounting mode; with none, the paper's
        2017 book applies."""
        if plan is None:
            from repro.plan import DEFAULT_PLAN

            plan = DEFAULT_PLAN
        self.name = name
        self.home_region = region
        self.plan = plan
        self.prices = plan.prices
        self.rng = SeededRng(seed, f"provider/{name}")
        self.clock = SimClock()
        self.loop = EventLoop(self.clock)
        self.latency = LatencyModel(rng=self.rng.child("latency"))
        self.metrics = MetricRegistry()
        self.faults = FaultInjector(self.clock, rng=self.rng.child("chaos"))
        self.meter = BillingMeter()
        self.iam = Iam()
        self.fabric = NetworkFabric(self.clock, self.latency)

        entropy = entropy if entropy is not None else self.rng.child("entropy").randbytes
        self.kms = KeyManagementService(self.clock, self.latency, self.iam, self.meter, entropy)
        self.s3 = ObjectStore(self.clock, self.latency, self.iam, self.meter)
        self.dynamo = KeyValueStore(self.clock, self.latency, self.iam, self.meter)
        self.sqs = QueueService(self.clock, self.latency, self.iam, self.meter)
        self.ses = EmailService(self.clock, self.latency, self.iam, self.meter)
        self.ec2 = Ec2Service(self.clock, self.latency, self.meter, self.prices, self.faults)
        self.lambda_ = ServerlessPlatform(
            self.clock,
            self.latency,
            self.iam,
            self.meter,
            faults=self.faults,
            metrics=self.metrics,
            kms=self.kms,
            s3=self.s3,
            sqs=self.sqs,
            ses=self.ses,
            dynamo=self.dynamo,
            attestation_key=self.rng.child("attestation").randbytes(32),
            supports_container_suspend=supports_container_suspend,
            plan=plan,
        )
        self.gateway = ApiGateway(
            self.clock, self.latency, self.fabric, self.lambda_, self.meter, region
        )
        self.shield = Shield(self.clock)
        self.lambda_.outbound_http = self._lambda_egress
        self.tracer: Optional[Tracer] = None
        self.recorder = None  # set by enable_recording
        self.health = None  # set by enable_metrics

        # Chaos engine: every service checks active faults (for its own
        # name and for its region) at its API boundary. Hooks are free
        # when no fault is scheduled, so chaos-off runs are unchanged.
        for service_name, service in (
            ("kms", self.kms),
            ("s3", self.s3),
            ("dynamo", self.dynamo),
            ("sqs", self.sqs),
            ("ses", self.ses),
            ("lambda", self.lambda_),
            ("gateway", self.gateway),
        ):
            service.attach_faults(self.faults.hook(service_name, region.name))

    def enable_recording(self, name: str = None):
        """Attach a workload-trace recorder to the gateway front door.

        Every request a client sends through this provider's gateway
        lands in the returned :class:`~repro.sim.replay.TraceRecorder`
        (app = first path segment, actor = client name). Recording is
        pure observation — no RNG draw, no clock advance — so a
        recorded run stays byte-identical to an unrecorded one. Write
        the trace with ``provider.recorder.write(path)``.
        """
        from repro.sim.replay import TraceRecorder

        self.recorder = TraceRecorder(
            name=name or f"{self.name}-gateway", seed=self.rng.seed, tenants=1
        )
        self.gateway.attach_recorder(self.recorder)
        return self.recorder

    def enable_tracing(self, sample_rate: float = 1.0, capacity: int = 2048) -> Tracer:
        """Attach a distributed tracer to every service boundary.

        Span ids come from a dedicated ``rng.child("obs")`` stream, so
        enabling tracing never perturbs latency/workload draws — golden
        invoices stay byte-identical with tracing on or off. Returns
        the tracer; retained traces live in ``tracer.collector``.
        """
        self.tracer = Tracer(
            self.clock,
            self.rng.child("obs"),
            TraceCollector(capacity=capacity, sample_rate=sample_rate),
        )
        for service in (
            self.kms, self.s3, self.dynamo, self.sqs,
            self.ses, self.lambda_, self.gateway,
        ):
            service.attach_tracer(self.tracer)
        return self.tracer

    def enable_metrics(self) -> "MetricsPlane":
        """Attach the health plane to every instrumented service boundary.

        Recording is pure observation (``clock.now`` reads and plane
        mutations only — no RNG, no clock advance), so a metered run
        bills and arrives byte-identically to an unmetered one. The
        fault injector reports applied faults into the same plane as a
        separate ``fault.<target>`` evidence stream. Returns the plane;
        it is also kept on ``provider.health``.
        """
        from repro.obs.metrics import MetricsPlane

        self.health = MetricsPlane()
        for service in (self.s3, self.dynamo, self.lambda_, self.gateway):
            service.attach_metrics(self.health)
        self.faults.attach_metrics(self.health)
        return self.health

    def _lambda_egress(self, request):
        """Outbound HTTPS from a function, through this cloud's gateway.

        Server-to-server federation: a new sealed channel per call, so
        federated traffic is ciphertext on the fabric like any client's.
        """
        from repro.core.client import open_channel

        return open_channel(self, "lambda-egress").request(request)

    def invoice(self, apply_free_tier: Optional[bool] = None) -> Invoice:
        """Price the month's accumulated usage.

        ``apply_free_tier=None`` follows the account plan's accounting
        mode (``"billed"`` applies the §4 free tiers — the default plan's
        behavior, identical to the old ``True`` default).
        """
        if apply_free_tier is None:
            apply_free_tier = self.plan.include_free_tier
        self.ec2.accrue_all()
        return Invoice(self.meter, self.prices, apply_free_tier)

    def __repr__(self) -> str:
        return f"CloudProvider(name={self.name!r}, region={self.home_region.name!r})"
