"""Pluggable application state: one interface, two backends, one cache.

Every app used to hand-roll ``f"{instance}-state"`` bucket lookups and
per-call ``EnvelopeEncryptor`` construction, and only chat could run on
DynamoDB. A :class:`StateStore` gives the five apps one API:

- :class:`S3Store` keeps state as objects (the deployed prototype);
- :class:`DynamoStore` keeps it as KV items — the paper's "DynamoDB is
  a low-latency alternative to S3" footnote, now a deployment-plan
  choice (``storage="dynamo"``) for *every* app;
- :class:`CachedStore` wraps either with a warm-container read cache
  (backed by ``ctx.container_state``, so a cold start empties it).

Keys are hierarchical S3-style paths (``rooms/lobby/roster``). The
Dynamo mapping uses the first segment as the partition key and the rest
as the sort key, so prefix listing (``tickets/t-17/``) works on both
backends and returns keys in the same sorted order.

AAD-bound envelope helpers (:meth:`StateStore.put_json` /
:meth:`StateStore.get_json` and the ``*_sealed`` byte variants) fold the
per-app encrypt/decrypt boilerplate into the store: ciphertext is always
bound to its key's role via the caller-supplied AAD.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.crypto.envelope import EnvelopeEncryptor
from repro.errors import ConfigurationError

__all__ = [
    "StateStore",
    "S3Store",
    "DynamoStore",
    "CachedStore",
    "OwnerOps",
    "STORAGE_ENV",
    "STORAGE_BACKENDS",
    "validate_backend",
    "backend_store",
]

# The function-environment key that tells a deployed handler its backend
# (baked in from the plan by ``DeploymentPlan.environment``).
STORAGE_ENV = "DIY_STORAGE"
STORAGE_BACKENDS = ("s3", "dynamo")


def validate_backend(backend: str) -> str:
    """``backend`` if it names a known state backend, else raise."""
    if backend not in STORAGE_BACKENDS:
        raise ConfigurationError(
            f"storage must be one of {STORAGE_BACKENDS}, got {backend!r}"
        )
    return backend


def backend_store(ops, backend: str, bucket: str, table: str,
                  encryptor: Optional["EnvelopeEncryptor"] = None,
                  namespace: str = "") -> "StateStore":
    """The :class:`StateStore` for one resolved backend choice.

    The single construction point the kernel (function side) and the
    owner tools (device side) share: a :class:`~repro.plan.DeploymentPlan`
    or a deployed function's environment resolves to a backend name, and
    this maps the name to the store over ``ops``.
    """
    validate_backend(backend)
    if backend == "dynamo":
        return DynamoStore(ops, table, encryptor, namespace)
    return S3Store(ops, bucket, encryptor, namespace)


class StateStore:
    """Namespaced, optionally envelope-encrypting application state."""

    backend = "abstract"

    def __init__(self, encryptor: Optional[EnvelopeEncryptor] = None, namespace: str = ""):
        self._encryptor = encryptor
        self._namespace = namespace

    # -- raw bytes (subclasses implement these four) -----------------------

    def get(self, key: str) -> bytes:
        raise NotImplementedError

    def put(self, key: str, data: bytes) -> None:
        raise NotImplementedError

    def list(self, prefix: str = "") -> List[str]:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError

    # -- namespacing -------------------------------------------------------

    def _key(self, key: str) -> str:
        return f"{self._namespace}{key}"

    def _strip(self, key: str) -> str:
        return key[len(self._namespace):] if self._namespace else key

    # -- AAD-bound envelope helpers ---------------------------------------

    def _require_encryptor(self) -> EnvelopeEncryptor:
        if self._encryptor is None:
            raise ConfigurationError(f"{type(self).__name__} has no encryptor bound")
        return self._encryptor

    def put_sealed(self, key: str, plaintext: bytes, aad: bytes) -> None:
        """Envelope-encrypt ``plaintext`` bound to ``aad`` and store it."""
        self.put(key, self._require_encryptor().encrypt_bytes(plaintext, aad=aad))

    def get_sealed(self, key: str, aad: bytes) -> bytes:
        """Fetch and decrypt one envelope; the AAD must match the writer's."""
        return self._require_encryptor().decrypt_bytes(self.get(key), aad=aad)

    def put_json(self, key: str, value: object, aad: bytes) -> None:
        self.put_sealed(key, json.dumps(value).encode(), aad=aad)

    def get_json(self, key: str, aad: bytes) -> object:
        return json.loads(self.get_sealed(key, aad=aad))

    # -- warm-path accessors (CachedStore caches; plain stores read through) --

    def cached_get(self, key: str) -> bytes:
        return self.get(key)

    def cached_get_json(self, key: str, aad: bytes) -> object:
        return self.get_json(key, aad=aad)

    def remember_json(self, key: str, value: object) -> None:
        """Seed the cache; a store without one keeps nothing."""

    def invalidate(self, key: str) -> None:
        """Drop a cached copy; a store without a cache holds none."""


class S3Store(StateStore):
    """State as objects in one bucket (the deployed prototype's layout).

    ``ops`` is anything exposing the function-side client surface
    (``s3_get``/``s3_put``/``s3_list``/``s3_delete``) — a
    :class:`~repro.cloud.lambda_.container.ServiceClients` inside a
    function, or an :class:`OwnerOps` on the owner's device.
    """

    backend = "s3"

    def __init__(self, ops, bucket: str,
                 encryptor: Optional[EnvelopeEncryptor] = None, namespace: str = ""):
        super().__init__(encryptor, namespace)
        self._ops = ops
        self.bucket = bucket

    def get(self, key: str) -> bytes:
        return self._ops.s3_get(self.bucket, self._key(key))

    def put(self, key: str, data: bytes) -> None:
        self._ops.s3_put(self.bucket, self._key(key), data)

    def list(self, prefix: str = "") -> List[str]:
        return [self._strip(k) for k in self._ops.s3_list(self.bucket, self._key(prefix))]

    def delete(self, key: str) -> None:
        self._ops.s3_delete(self.bucket, self._key(key))


class DynamoStore(StateStore):
    """State as KV items: partition = first path segment, sort = the rest.

    Hierarchical keys keep working — ``list("tickets/t-17/")`` queries
    the ``tickets`` partition and filters by sort prefix, returning the
    same sorted key order as the S3 backend.
    """

    backend = "dynamo"

    def __init__(self, ops, table: str,
                 encryptor: Optional[EnvelopeEncryptor] = None, namespace: str = ""):
        super().__init__(encryptor, namespace)
        self._ops = ops
        self.table = table

    @staticmethod
    def split_key(key: str) -> Tuple[str, str]:
        partition, _, sort = key.partition("/")
        return partition, sort

    def get(self, key: str) -> bytes:
        partition, sort = self.split_key(self._key(key))
        return self._ops.dynamo_get(self.table, partition, sort)

    def put(self, key: str, data: bytes) -> None:
        partition, sort = self.split_key(self._key(key))
        self._ops.dynamo_put(self.table, partition, sort, data)

    def list(self, prefix: str = "") -> List[str]:
        full = self._key(prefix)
        partition, sort_prefix = self.split_key(full)
        keys = []
        for sort, _value in self._ops.dynamo_query(self.table, partition):
            if sort.startswith(sort_prefix):
                keys.append(self._strip(f"{partition}/{sort}" if sort else partition))
        return keys

    def delete(self, key: str) -> None:
        partition, sort = self.split_key(self._key(key))
        self._ops.dynamo_delete(self.table, partition, sort)


class CachedStore(StateStore):
    """A warm-container read cache over any :class:`StateStore`.

    Plain ``get``/``put``/``list``/``delete`` always hit the backend
    (writes and deletes invalidate the cached copy); the ``cached_*``
    accessors serve repeat reads from the cache — the standard Lambda
    trick of caching in module globals, done once for every app. The
    cache dict lives in ``ctx.container_state``, so a cold start (new
    container) naturally invalidates everything.
    """

    def __init__(self, inner: StateStore, cache: Dict[object, object]):
        super().__init__(encryptor=inner._encryptor, namespace="")
        self.inner = inner
        self._cache = cache

    @property
    def backend(self) -> str:  # type: ignore[override]
        return self.inner.backend

    # -- pass-through with invalidation -----------------------------------

    def get(self, key: str) -> bytes:
        return self.inner.get(key)

    def put(self, key: str, data: bytes) -> None:
        self.inner.put(key, data)
        self.invalidate(key)

    def list(self, prefix: str = "") -> List[str]:
        return self.inner.list(prefix)

    def delete(self, key: str) -> None:
        self.inner.delete(key)
        self.invalidate(key)

    def put_sealed(self, key: str, plaintext: bytes, aad: bytes) -> None:
        self.inner.put_sealed(key, plaintext, aad=aad)
        self.invalidate(key)

    def put_json(self, key: str, value: object, aad: bytes) -> None:
        self.inner.put_json(key, value, aad=aad)
        self.invalidate(key)

    def get_sealed(self, key: str, aad: bytes) -> bytes:
        return self.inner.get_sealed(key, aad=aad)

    def get_json(self, key: str, aad: bytes) -> object:
        return self.inner.get_json(key, aad=aad)

    # -- the warm-path accessors ------------------------------------------

    def cached_get(self, key: str) -> bytes:
        """Raw bytes, fetched once per warm container."""
        slot = ("raw", key)
        if slot not in self._cache:
            self._cache[slot] = self.inner.get(key)
        return self._cache[slot]

    def cached_get_json(self, key: str, aad: bytes) -> object:
        """Decrypted-and-decoded JSON, fetched once per warm container.

        The *decoded* value is cached, so the warm path costs zero
        service calls and zero KMS decrypts — exactly what kept chat's
        steady-state send at three calls.
        """
        slot = ("json", key)
        if slot not in self._cache:
            self._cache[slot] = self.inner.get_json(key, aad=aad)
        return self._cache[slot]

    def remember_json(self, key: str, value: object) -> None:
        """Seed the decoded cache without a backend write (e.g. a
        default the app computed after a missing-key fallback)."""
        self._cache[("json", key)] = value

    def invalidate(self, key: str) -> None:
        self._cache.pop(("raw", key), None)
        self._cache.pop(("json", key), None)


class OwnerOps:
    """The owner-device flavor of the storage client surface.

    Services (room creation, pubkey publishing, mailbox reads) run on
    the owner's device against the provider APIs directly; this adapter
    gives them the same ``s3_*``/``dynamo_*`` surface that
    :class:`~repro.cloud.lambda_.container.ServiceClients` gives
    handlers, so one ``StateStore`` serves both sides.
    """

    def __init__(self, provider, principal):
        self._provider = provider
        self._principal = principal

    def s3_get(self, bucket: str, key: str) -> bytes:
        return self._provider.s3.get_object(self._principal, bucket, key).data

    def s3_put(self, bucket: str, key: str, data: bytes) -> None:
        self._provider.s3.put_object(self._principal, bucket, key, data)

    def s3_list(self, bucket: str, prefix: str = "") -> List[str]:
        return self._provider.s3.list_objects(self._principal, bucket, prefix)

    def s3_delete(self, bucket: str, key: str) -> None:
        self._provider.s3.delete_object(self._principal, bucket, key)

    def dynamo_get(self, table: str, partition: str, sort: str) -> bytes:
        return self._provider.dynamo.get_item(self._principal, table, partition, sort)

    def dynamo_put(self, table: str, partition: str, sort: str, value: bytes) -> None:
        self._provider.dynamo.put_item(self._principal, table, partition, sort, value)

    def dynamo_query(self, table: str, partition: str) -> List[Tuple[str, bytes]]:
        return self._provider.dynamo.query(self._principal, table, partition)

    def dynamo_delete(self, table: str, partition: str, sort: str) -> None:
        self._provider.dynamo.delete_item(self._principal, table, partition, sort)
