"""SGX-style remote attestation (§3.3 "Securing DIY with Enclaves").

The paper sketches the flow: "A serverless platform with enclave
support could load the function into an enclave, perform its
attestation, and then execute it in a manner that the client can
verify." We implement that protocol skeleton:

- :func:`measure_function` hashes the function's actual source code
  (the *measurement*, SGX's MRENCLAVE analogue).
- An :class:`Enclave` executes a handler inside the ENCLAVE trusted
  zone and produces a :class:`Quote` — the measurement plus a
  client-supplied nonce, MACed with the platform's attestation key
  (standing in for EPID/quoting-enclave signatures).
- An :class:`AttestationVerifier` on the client side checks the quote
  against the expected measurement and its own nonce, so the user can
  refuse to hand keys to unverified code.
"""

from __future__ import annotations

import hashlib
import hmac
import inspect
from dataclasses import dataclass
from typing import Callable, Optional

from repro import tcb
from repro.crypto.keys import Entropy, random_bytes
from repro.errors import AttestationError

__all__ = ["measure_function", "Quote", "Enclave", "AttestationVerifier"]


def measure_function(handler: Callable) -> bytes:
    """Hash the handler's source — the enclave measurement.

    Any change to the deployed code changes the measurement, which is
    exactly the property remote attestation gives the user: the cloud
    cannot silently swap the audited function for a leaky one.

    A handler that dispatches to other code (a kernel handler, a
    framework endpoint) lists that code in its ``measured_parts``
    attribute; the measurement then hashes the handler's source followed
    by each part's measurement, so two apps sharing one dispatcher still
    measure apart. Only the listed parts are followed, not the helpers
    they call. A handler without the attribute measures as its source
    alone.
    """
    try:
        source = inspect.getsource(handler)
    except (OSError, TypeError):
        # Builtins / dynamically-created callables: fall back to name+module.
        source = f"{getattr(handler, '__module__', '?')}.{getattr(handler, '__qualname__', repr(handler))}"
    digest = hashlib.sha256(source.encode())
    for part in getattr(handler, "measured_parts", ()):
        digest.update(measure_function(part))
    return digest.digest()


@dataclass(frozen=True)
class Quote:
    """An attestation quote: measurement + nonce, MACed by the platform."""

    measurement: bytes
    nonce: bytes
    mac: bytes

    def serialize(self) -> bytes:
        return self.measurement + self.nonce + self.mac


class Enclave:
    """A function loaded into a (simulated) hardware enclave."""

    def __init__(self, handler: Callable, platform_key: bytes, name: str = "enclave"):
        if len(platform_key) < 16:
            raise AttestationError("platform attestation key too short")
        self._handler = handler
        self._platform_key = platform_key
        self.name = name
        self.measurement = measure_function(handler)

    def quote(self, nonce: bytes) -> Quote:
        """Produce a quote binding this enclave's code to the caller's nonce."""
        mac = hmac.new(self._platform_key, self.measurement + nonce, hashlib.sha256).digest()
        return Quote(self.measurement, nonce, mac)

    def execute(self, event, context) -> object:
        """Run the handler inside the enclave trusted zone.

        With enclaves, §4 notes, even the container isolation mechanism
        drops out of the TCB — decryption inside here is legal
        regardless of what the surrounding platform does.
        """
        with tcb.zone(tcb.Zone.ENCLAVE, f"enclave:{self.name}"):
            return self._handler(event, context)


class AttestationVerifier:
    """The client side: expected measurement + the platform's public MAC key."""

    def __init__(self, expected_measurement: bytes, platform_key: bytes,
                 entropy: Optional[Entropy] = None):
        self.expected_measurement = expected_measurement
        self._platform_key = platform_key
        self._entropy = entropy
        self._outstanding_nonce: Optional[bytes] = None

    def challenge(self) -> bytes:
        """A fresh nonce to send with the attestation request."""
        self._outstanding_nonce = random_bytes(16, self._entropy)
        return self._outstanding_nonce

    def verify(self, quote: Quote) -> bool:
        """Check the quote; raises :class:`AttestationError` on failure."""
        if self._outstanding_nonce is None:
            raise AttestationError("no outstanding challenge; call challenge() first")
        if quote.nonce != self._outstanding_nonce:
            raise AttestationError("quote answers a different challenge (replay?)")
        expected_mac = hmac.new(
            self._platform_key, quote.measurement + quote.nonce, hashlib.sha256
        ).digest()
        if not hmac.compare_digest(quote.mac, expected_mac):
            raise AttestationError("quote MAC invalid: not produced by the platform")
        if quote.measurement != self.expected_measurement:
            raise AttestationError(
                "measurement mismatch: the deployed code is not the audited code"
            )
        self._outstanding_nonce = None
        return True
