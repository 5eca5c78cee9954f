"""Exception hierarchy for the DIY reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class at API boundaries. Subsystems define
narrower classes below; application code should raise the most specific
one that applies.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "CryptoError",
    "AuthenticationFailure",
    "KeyNotFound",
    "AccessDenied",
    "CloudError",
    "NoSuchBucket",
    "NoSuchKey",
    "NoSuchQueue",
    "NoSuchFunction",
    "NoSuchInstance",
    "NoSuchTable",
    "NoSuchItem",
    "ThrottledError",
    "PayloadTooLarge",
    "FunctionError",
    "FunctionTimeout",
    "OutOfMemory",
    "RegionUnavailable",
    "ProtocolError",
    "SMTPProtocolError",
    "XMPPProtocolError",
    "HTTPProtocolError",
    "RouteNotFound",
    "MethodNotAllowed",
    "CircuitOpenError",
    "PlaintextLeakError",
    "AttestationError",
    "DeploymentError",
    "AppStoreError",
    "BillingError",
]


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent parameters."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


# --------------------------------------------------------------------------
# Cryptography


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class AuthenticationFailure(CryptoError):
    """An AEAD tag or MAC failed to verify; the ciphertext is rejected."""


class KeyNotFound(CryptoError):
    """A referenced key id does not exist in the key store."""


# --------------------------------------------------------------------------
# Cloud substrate


class CloudError(ReproError):
    """Base class for simulated cloud-service errors.

    ``retryable`` tells clients whether the failure is transient: a
    throttle, a fault-injected error, or a region brown-out can succeed
    on a later attempt, while a missing bucket never will. The class
    default can be overridden per instance (fault injection marks its
    errors explicitly).
    """

    retryable = False

    def __init__(self, message: str = "", retryable: "bool | None" = None):
        super().__init__(message)
        if retryable is not None:
            self.retryable = retryable


class AccessDenied(CloudError):
    """IAM denied the request (missing role, policy, or key grant)."""


class NoSuchBucket(CloudError):
    """The object-store bucket does not exist."""


class NoSuchKey(CloudError):
    """The object-store key does not exist in the bucket."""


class NoSuchQueue(CloudError):
    """The queue URL does not name an existing queue."""


class NoSuchFunction(CloudError):
    """The serverless function name is not registered."""


class NoSuchInstance(CloudError):
    """The VM instance id does not exist."""


class NoSuchTable(CloudError):
    """The key-value table does not exist."""


class NoSuchItem(CloudError):
    """The key-value item does not exist in the table."""


class ThrottledError(CloudError):
    """The request was throttled (concurrency limit or DDoS shield).

    ``retry_after_ms`` is the service's hint for when the limiter will
    admit again (populated by :class:`repro.cloud.lambda_.throttle.RateThrottle`
    and by throttle-storm fault injection); ``None`` when the service
    offers no hint.
    """

    retryable = True

    def __init__(
        self,
        message: str = "",
        retry_after_ms: "int | None" = None,
        retryable: "bool | None" = None,
    ):
        super().__init__(message, retryable)
        self.retry_after_ms = retry_after_ms


class PayloadTooLarge(CloudError):
    """The request or message body exceeds the service limit."""


class FunctionError(CloudError):
    """The user handler raised an exception during invocation."""

    def __init__(self, message: str, cause: BaseException | None = None):
        super().__init__(message)
        self.cause = cause


class FunctionTimeout(CloudError):
    """The function exceeded its configured timeout."""

    retryable = True


class OutOfMemory(CloudError):
    """The function exceeded its configured memory allocation."""


class RegionUnavailable(CloudError):
    """The region (or zone) is marked down by fault injection."""

    retryable = True


class CircuitOpenError(ReproError):
    """A client-side circuit breaker refused the call without trying.

    Raised by :class:`repro.resilience.CircuitBreaker` while it is open;
    callers should queue the work and drain it once the breaker half-opens.
    """


# --------------------------------------------------------------------------
# Protocols


class ProtocolError(ReproError):
    """Base class for wire-protocol violations."""


class SMTPProtocolError(ProtocolError):
    """Malformed SMTP command or out-of-order command sequence."""


class XMPPProtocolError(ProtocolError):
    """Malformed XMPP stanza or stream state violation."""


class HTTPProtocolError(ProtocolError):
    """Malformed HTTP message."""


class RouteNotFound(HTTPProtocolError):
    """No route pattern matches the request path.

    Raised by :class:`repro.runtime.router.Router`; the runtime's error
    mapper turns it into an HTTP 404 before it leaves the function.
    """


class MethodNotAllowed(HTTPProtocolError):
    """A route pattern matches the path but not the request method.

    ``allowed`` lists the methods that *would* match, so the error
    mapper can emit an ``allow`` header with the 405.
    """

    def __init__(self, message: str = "", allowed: "tuple[str, ...]" = ()):
        super().__init__(message)
        self.allowed = tuple(allowed)


# --------------------------------------------------------------------------
# DIY core


class PlaintextLeakError(ReproError):
    """Plaintext was about to leave the trusted computing base.

    Raised by the threat-model guard when decryption is attempted outside
    a container execution context, or when plaintext is written to an
    untrusted sink (object store, queue, network).
    """


class AttestationError(ReproError):
    """An enclave quote failed verification."""


class DeploymentError(ReproError):
    """Deploying or migrating a DIY application failed."""


class AppStoreError(ReproError):
    """App-store operation failed (unknown app, bad manifest, ...)."""


class BillingError(ReproError):
    """Metering or invoicing reached an inconsistent state."""
