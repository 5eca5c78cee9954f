"""The serverless platform: invocation, billing, failover.

The behaviours the evaluation depends on:

- **Billing** (§4): every invocation is one metered request plus
  GB-seconds of duration, with the run time rounded up to 100 ms
  increments. Table 3's billed-vs-run gap (200 ms vs 134 ms) falls out
  of this rounding.
- **Warm/cold containers**: a cold start adds significant latency; a
  container stays warm for a keep-alive window of virtual time and is
  then reclaimed.
- **Georeplication and failover** (§3.1): functions deployed in several
  regions keep serving when a region is marked down by fault injection.
- **Memory-scaled service latency** (§6.2): calls to S3/KMS/SQS from a
  small-memory function are slower (see
  :meth:`repro.sim.latency.LatencyModel.memory_factor`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cloud.billing import BillingMeter, UsageKind
from repro.cloud.dynamo import KeyValueStore
from repro.cloud.iam import Iam, Principal
from repro.cloud.kms import KeyManagementService
from repro.cloud.lambda_.container import Container, InvocationContext, ServiceClients
from repro.cloud.lambda_.function import FunctionConfig
from repro.cloud.lambda_.throttle import RateThrottle
from repro.cloud.s3 import ObjectStore
from repro.cloud.ses import EmailService
from repro.cloud.sqs import QueueService
from repro.errors import (
    ConfigurationError,
    FunctionError,
    FunctionTimeout,
    NoSuchFunction,
    RegionUnavailable,
)
from repro.net.address import Region
from repro.obs.metrics import bind_ambient
from repro.obs.trace import add_usage, set_attr, traced
from repro.sim.clock import SimClock
from repro.sim.faults import FaultInjector
from repro.sim.latency import LatencyModel
from repro.sim.metrics import MetricRegistry
from repro.units import minutes, to_ms

__all__ = ["InvocationResult", "ServerlessPlatform"]

_CONTAINER_KEEP_ALIVE = minutes(10)


@dataclass(frozen=True)
class InvocationResult:
    """Everything the platform knows about one finished invocation."""

    request_id: str
    function_name: str
    region: Region
    value: object
    run_ms: float
    billed_ms: int
    gb_seconds: float
    cold_start: bool
    peak_memory_mb: float

    @property
    def billed_within_run(self) -> bool:
        return self.billed_ms >= self.run_ms


class ServerlessPlatform:
    """Simulated AWS Lambda for one account."""

    def __init__(
        self,
        clock: SimClock,
        latency: LatencyModel,
        iam: Iam,
        meter: BillingMeter,
        faults: Optional[FaultInjector] = None,
        metrics: Optional[MetricRegistry] = None,
        kms: Optional[KeyManagementService] = None,
        s3: Optional[ObjectStore] = None,
        sqs: Optional[QueueService] = None,
        ses: Optional[EmailService] = None,
        dynamo: Optional[KeyValueStore] = None,
        attestation_key: Optional[bytes] = None,
        supports_container_suspend: bool = False,
        plan: Optional["DeploymentPlan"] = None,
    ):
        # §8.3 extension: when True, time a handler spends holding an
        # idle connection (InvocationContext.hold_connection) is excluded
        # from the billed duration, modelling a platform that can
        # suspend the container while a TCP connection stays open.
        self.supports_container_suspend = supports_container_suspend
        self._clock = clock
        self._latency = latency
        self._iam = iam
        self._meter = meter
        if plan is None:
            from repro.plan import DEFAULT_PLAN

            plan = DEFAULT_PLAN
        # The platform bills against the plan's price book, the same one
        # the provider invoices with.
        self.plan = plan
        self._prices = plan.prices
        self._faults = faults
        if metrics is None:
            # The provider owns the one MetricRegistry per account; a
            # platform-private registry would silently fork the metric
            # namespace (and `make lint` bans stray registries in cloud/).
            raise ConfigurationError(
                "ServerlessPlatform requires an injected MetricRegistry"
            )
        self.metrics = metrics
        self._kms = kms
        self._s3 = s3
        self._sqs = sqs
        self._ses = ses
        self._dynamo = dynamo
        self._functions: Dict[str, FunctionConfig] = {}
        self._throttles: Dict[str, RateThrottle] = {}
        # Warm containers per (function, region).
        self._containers: Dict[Tuple[str, str], Container] = {}
        self._request_ids = itertools.count(1)
        self.invocation_log: List[InvocationResult] = []
        # §8.2 extension: the platform's attestation (quoting) key and
        # the enclaves of functions deployed with use_enclave=True.
        self._attestation_key = attestation_key if attestation_key else b"diy-platform-attestation-key"
        self._enclaves: Dict[str, "Enclave"] = {}
        # Outbound HTTPS from inside functions (server-to-server
        # federation): wired by the provider to a TLS channel through
        # its gateway. Signature: (HttpRequest) -> HttpResponse.
        self.outbound_http = None
        self._fault_hook = None
        self._tracer = None
        self._health = None

    def attach_faults(self, hook) -> None:
        """Install the chaos fault check run on every invocation."""
        self._fault_hook = hook

    def attach_tracer(self, tracer) -> None:
        """Trace every invocation (cold/warm start as distinct child spans)."""
        self._tracer = tracer

    def attach_metrics(self, plane) -> None:
        """Record per-invocation health metrics into the plane.

        Also binds the plane as the ambient health plane around handler
        execution (:func:`repro.obs.metrics.bind_ambient`), which is how
        the runtime kernel — which never sees the provider — records
        per-app request metrics with zero plumbing.
        """
        self._health = plane

    # -- deployment ------------------------------------------------------

    def deploy(self, config: FunctionConfig, throttle_per_second: Optional[int] = None) -> None:
        """Install (or update) a function; §4's first deployment step."""
        self._functions[config.name] = config
        if throttle_per_second is not None:
            self._throttles[config.name] = RateThrottle(self._clock, throttle_per_second)
        else:
            self._throttles.pop(config.name, None)
        if config.use_enclave:
            from repro.core.attestation import Enclave

            self._clock.advance(self._latency.sample("enclave.init").micros)
            self._enclaves[config.name] = Enclave(
                config.handler, self._attestation_key, name=config.name
            )
        else:
            self._enclaves.pop(config.name, None)

    @property
    def attestation_key(self) -> bytes:
        """The platform's quoting key; in real SGX this would be the
        publicly verifiable attestation root, so exposing it is safe."""
        return self._attestation_key

    def attest(self, name: str, nonce: bytes):
        """Produce a quote for an enclave-loaded function (§8.2).

        The client sends a fresh nonce, receives the quote, and verifies
        it with :class:`repro.core.attestation.AttestationVerifier`
        before trusting the deployment with data or keys.
        """
        self.get_function(name)
        enclave = self._enclaves.get(name)
        if enclave is None:
            from repro.errors import AttestationError

            raise AttestationError(f"function {name!r} is not enclave-loaded")
        self._clock.advance(self._latency.sample("enclave.quote").micros)
        return enclave.quote(nonce)

    def remove(self, name: str) -> None:
        self._functions.pop(name, None)
        self._throttles.pop(name, None)
        for key in [k for k in self._containers if k[0] == name]:
            del self._containers[key]

    def get_function(self, name: str) -> FunctionConfig:
        try:
            return self._functions[name]
        except KeyError:
            raise NoSuchFunction(f"no such function {name!r}") from None

    def function_names(self) -> List[str]:
        return sorted(self._functions)

    # -- invocation --------------------------------------------------------

    def _pick_region(self, config: FunctionConfig) -> Region:
        """First healthy configured region — transparent failover (§3.1)."""
        for region in config.regions:
            if self._faults is None or not self._faults.is_down(region.name):
                return region
        raise RegionUnavailable(
            f"all regions for {config.name} are down: "
            f"{', '.join(r.name for r in config.regions)}"
        )

    def _acquire_container(self, config: FunctionConfig, region: Region) -> Tuple[Container, bool]:
        key = (config.name, region.name)
        container = self._containers.get(key)
        if container is not None and (
            self._clock.now - container.last_used_at <= _CONTAINER_KEEP_ALIVE
        ):
            return container, False
        container = Container(config.name, region, self._clock.now)
        self._containers[key] = container
        return container, True

    def invoke(self, name: str, event: object) -> InvocationResult:
        """Synchronously invoke a function with ``event``.

        Advances the virtual clock by the full invocation latency and
        meters the request + GB-seconds exactly as the 2017 price model
        bills them. Usage (including the service calls the handler
        makes) is attributed to the function's ``DIY_INSTANCE`` so the
        app store can report per-app consumption.
        """
        config = self.get_function(name)
        instance = config.environment.get("DIY_INSTANCE")
        if instance is not None:
            with self._meter.attributed(instance):
                return self._invoke(config, name, event)
        return self._invoke(config, name, event)

    def _invoke(self, config: FunctionConfig, name: str, event: object) -> InvocationResult:
        with traced(self._tracer, "lambda.invoke", attrs={"function": name}):
            return self._invoke_inner(config, name, event)

    def _invoke_inner(self, config: FunctionConfig, name: str, event: object) -> InvocationResult:
        if self._fault_hook is not None:
            self._fault_hook()
        throttle = self._throttles.get(name)
        if throttle is not None:
            throttle.admit()
        region = self._pick_region(config)

        container, cold = self._acquire_container(config, region)
        startup = "lambda.cold_start" if cold else "lambda.warm_start"
        with traced(self._tracer, startup):
            self._clock.advance(self._latency.sample(startup).micros)

        started = self._clock.now
        context = InvocationContext(
            request_id=f"req-{next(self._request_ids):010d}",
            function_name=name,
            principal=Principal(f"lambda:{name}", self._iam.get_role(config.role_name))
            if config.role_name
            else Principal(f"lambda:{name}", None),
            memory_mb=config.memory_mb,
            region=region,
            clock=self._clock,
            environment=config.environment,
            footprint_mb=config.footprint_mb,
        )
        context.services = ServiceClients(
            context, self._kms, self._s3, self._sqs, self._ses, self._dynamo
        )
        context.container_state = container.state
        context._outbound_http = self.outbound_http

        # Base handler compute (interpreting the user code itself).
        self._clock.advance(self._latency.sample("lambda.handler_base").micros)
        enclave = self._enclaves.get(name)
        try:
            if self._health is None:
                value = self._execute(enclave, container, config, event, context)
            else:
                with bind_ambient(self._health):
                    value = self._execute(enclave, container, config, event, context)
        except Exception as exc:
            # A crashed invocation is still billed for its duration.
            self._bill(config, started, cold, context, crashed=True)
            if isinstance(exc, FunctionTimeout):
                raise
            from repro.errors import ReproError

            if isinstance(exc, ReproError):
                raise
            raise FunctionError(f"{name} raised {type(exc).__name__}: {exc}", exc) from exc

        result = self._bill(config, started, cold, context, value=value)
        return result

    def _execute(self, enclave, container, config: FunctionConfig,
                 event: object, context: InvocationContext) -> object:
        if enclave is not None:
            # §8.2: run inside the enclave; the container is only a host.
            self._clock.advance(self._latency.sample("enclave.transition").micros)
            container.invocations_served += 1
            container.last_used_at = self._clock.now
            return enclave.execute(event, context)
        return container.execute(config.handler, event, context)

    def _bill(
        self,
        config: FunctionConfig,
        started: int,
        cold: bool,
        context: InvocationContext,
        value: object = None,
        crashed: bool = False,
    ) -> InvocationResult:
        run_micros = self._clock.now - started
        if self.supports_container_suspend and context.held_micros:
            # §8.3: the container was suspended while the connection idled.
            run_micros = max(0, run_micros - context.held_micros)
        run_ms = to_ms(run_micros)
        if run_ms > config.timeout_ms:
            run_ms = float(config.timeout_ms)
            # Clamp: the platform kills the handler at the timeout.
            crashed = True
        billed_ms = self._prices.round_up_billing(run_ms)
        gb_seconds = self._prices.lambda_gb_seconds(config.memory_mb, billed_ms)
        self._meter.record(UsageKind.LAMBDA_REQUESTS, 1.0)
        self._meter.record(UsageKind.LAMBDA_GB_SECONDS, gb_seconds)
        if self._tracer is not None:
            # Join the exact billed quantities onto the ambient
            # lambda.invoke span (runs on the crash path too, so even a
            # failed invocation's span carries its cost).
            add_usage(UsageKind.LAMBDA_REQUESTS, 1.0)
            add_usage(UsageKind.LAMBDA_GB_SECONDS, gb_seconds)
            set_attr("request_id", context.request_id)
            set_attr("run_ms", run_ms)
            set_attr("billed_ms", billed_ms)
            set_attr("cold_start", cold)

        result = InvocationResult(
            request_id=context.request_id,
            function_name=config.name,
            region=context.region,
            value=value,
            run_ms=run_ms,
            billed_ms=billed_ms,
            gb_seconds=gb_seconds,
            cold_start=cold,
            peak_memory_mb=context.peak_memory_mb,
        )
        self.invocation_log.append(result)
        self.metrics.record(f"{config.name}.run_ms", run_ms, "ms")
        self.metrics.record(f"{config.name}.billed_ms", billed_ms, "ms")
        self.metrics.record(f"{config.name}.peak_memory_mb", context.peak_memory_mb, "MB")
        if self._health is not None:
            now = self._clock.now
            self._health.counter(
                "lambda.invocations", function=config.name,
                outcome="crash" if crashed else "ok",
            ).inc()
            if cold:
                self._health.counter("lambda.cold_starts", function=config.name).inc()
            self._health.histogram("lambda.run_us").observe(run_micros)
            self._health.window("lambda.availability").observe(now, not crashed)
            self._health.gauge("lambda.live_containers").set(len(self._containers), at=now)
        if crashed and run_ms >= config.timeout_ms:
            raise FunctionTimeout(
                f"{config.name} exceeded its {config.timeout_ms} ms timeout"
            )
        return result

    # -- introspection -------------------------------------------------------

    def warm_containers(self) -> int:
        now = self._clock.now
        return sum(
            1
            for container in self._containers.values()
            if now - container.last_used_at <= _CONTAINER_KEEP_ALIVE
        )

    def results_for(self, name: str) -> List[InvocationResult]:
        return [r for r in self.invocation_log if r.function_name == name]
