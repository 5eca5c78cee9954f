"""S3-style object storage.

"The user configures a storage provider such as Amazon S3 to store
*encrypted* users data" (§4). The store holds raw bytes — in DIY these
are always envelope ciphertext, which the privacy tests verify by
reading buckets through :meth:`ObjectStore.raw_scan` (the internal
attacker's view). Usage is metered in PUT/GET requests and byte-hours
of storage so invoices can charge GB-months.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cloud.billing import BillingMeter, UsageKind
from repro.cloud.iam import Iam, Principal
from repro.errors import NoSuchBucket, NoSuchKey, PayloadTooLarge
from repro.obs.trace import traced
from repro.net.address import Region
from repro.sim.clock import SimClock
from repro.sim.latency import LatencyModel
from repro.units import GB, MICROS_PER_HOUR

__all__ = ["S3Object", "Bucket", "ObjectStore"]

MAX_OBJECT_BYTES = 5 * 1024**4  # 5 TiB, the S3 single-object limit
_HOURS_PER_MONTH = 730


@dataclass
class S3Object:
    """One stored object version."""

    key: str
    data: bytes
    version: int
    stored_at: int  # virtual micros

    @property
    def nbytes(self) -> int:
        return len(self.data)


@dataclass
class Bucket:
    """A bucket: key → list of versions (newest last).

    The bytes of every key's newest version are kept as a running count,
    updated by :meth:`add_version` and :meth:`remove_key`, so storage
    accrual on each mutation costs O(1) instead of a scan of the bucket.
    """

    name: str
    region: Region
    objects: Dict[str, List[S3Object]] = field(default_factory=dict, init=False)
    _current_bytes: int = field(default=0, init=False, repr=False, compare=False)

    def current_bytes(self) -> int:
        return self._current_bytes

    def add_version(self, key: str, data: bytes, stored_at: int) -> S3Object:
        """Store ``data`` as the newest version of ``key``."""
        versions = self.objects.setdefault(key, [])
        obj = S3Object(key, bytes(data), len(versions) + 1, stored_at)
        if versions:
            self._current_bytes -= versions[-1].nbytes
        versions.append(obj)
        self._current_bytes += obj.nbytes
        return obj

    def remove_key(self, key: str) -> None:
        """Drop ``key`` and all its versions, if present."""
        versions = self.objects.pop(key, None)
        if versions:
            self._current_bytes -= versions[-1].nbytes


class ObjectStore:
    """Simulated S3 for one account.

    Storage GB-months are integrated over virtual time: every mutation
    first accrues ``current bytes × elapsed hours`` into the meter, so an
    object stored for half the month bills half its size.
    """

    def __init__(
        self,
        clock: SimClock,
        latency: LatencyModel,
        iam: Iam,
        meter: BillingMeter,
    ):
        self._clock = clock
        self._latency = latency
        self._iam = iam
        self._meter = meter
        self._buckets: Dict[str, Bucket] = {}
        self._last_accrual = clock.now
        self._fault_hook = None
        self._tracer = None
        self._health = None

    def attach_faults(self, hook) -> None:
        """Install the chaos fault check run at every data-path boundary."""
        self._fault_hook = hook

    def attach_tracer(self, tracer) -> None:
        """Open a span (with billed usage) around every object API call."""
        self._tracer = tracer

    def attach_metrics(self, plane) -> None:
        """Count and time every object API call in the health plane."""
        self._health = plane

    # -- storage-time accrual -------------------------------------------

    def _accrue_storage(self) -> None:
        elapsed = self._clock.now - self._last_accrual
        if elapsed <= 0:
            return
        total_bytes = sum(bucket.current_bytes() for bucket in self._buckets.values())
        gb_hours = (total_bytes / GB) * (elapsed / MICROS_PER_HOUR)
        if gb_hours:
            self._meter.record(UsageKind.S3_STORAGE_GB_MONTH, gb_hours / _HOURS_PER_MONTH)
        self._last_accrual = self._clock.now

    # -- bucket lifecycle --------------------------------------------------

    def create_bucket(self, name: str, region: Region) -> Bucket:
        self._accrue_storage()
        bucket = Bucket(name, region)
        self._buckets[name] = bucket
        return bucket

    def delete_bucket(self, name: str) -> None:
        self._accrue_storage()
        self._buckets.pop(name, None)

    def bucket(self, name: str) -> Bucket:
        try:
            return self._buckets[name]
        except KeyError:
            raise NoSuchBucket(f"no such bucket {name!r}") from None

    def bucket_exists(self, name: str) -> bool:
        return name in self._buckets

    def arn(self, bucket: str, key: str = "*") -> str:
        return f"arn:diy:s3:::{bucket}/{key}"

    # -- object API ---------------------------------------------------------

    def put_object(
        self,
        principal: Principal,
        bucket_name: str,
        key: str,
        data: bytes,
        memory_mb: Optional[int] = None,
    ) -> S3Object:
        with traced(self._tracer, "s3.put", usage=(UsageKind.S3_PUT, 1.0)):
            if self._fault_hook is not None:
                self._fault_hook()
            if len(data) > MAX_OBJECT_BYTES:
                raise PayloadTooLarge(f"object of {len(data)} bytes exceeds the S3 limit")
            bucket = self.bucket(bucket_name)
            self._iam.check(principal, "s3:PutObject", self.arn(bucket_name, key))
            self._accrue_storage()
            micros = self._latency.sample("s3.put", memory_mb).micros
            self._clock.advance(micros)
            if self._health is not None:
                self._health.service_request("s3", "put", micros, self._clock.now)
            self._meter.record(UsageKind.S3_PUT, 1.0)
            return bucket.add_version(key, data, self._clock.now)

    def get_object(
        self,
        principal: Principal,
        bucket_name: str,
        key: str,
        version: Optional[int] = None,
        memory_mb: Optional[int] = None,
    ) -> S3Object:
        with traced(self._tracer, "s3.get", usage=(UsageKind.S3_GET, 1.0)):
            if self._fault_hook is not None:
                self._fault_hook()
            bucket = self.bucket(bucket_name)
            self._iam.check(principal, "s3:GetObject", self.arn(bucket_name, key))
            micros = self._latency.sample("s3.get", memory_mb).micros
            self._clock.advance(micros)
            if self._health is not None:
                self._health.service_request("s3", "get", micros, self._clock.now)
            self._meter.record(UsageKind.S3_GET, 1.0)
            versions = bucket.objects.get(key)
            if not versions:
                raise NoSuchKey(f"no such key {key!r} in bucket {bucket_name!r}")
            if version is None:
                return versions[-1]
            for obj in versions:
                if obj.version == version:
                    return obj
            raise NoSuchKey(f"no version {version} of key {key!r}")

    def delete_object(
        self, principal: Principal, bucket_name: str, key: str,
        memory_mb: Optional[int] = None,
    ) -> None:
        with traced(self._tracer, "s3.delete"):
            if self._fault_hook is not None:
                self._fault_hook()
            bucket = self.bucket(bucket_name)
            self._iam.check(principal, "s3:DeleteObject", self.arn(bucket_name, key))
            self._accrue_storage()
            micros = self._latency.sample("s3.delete", memory_mb).micros
            self._clock.advance(micros)
            if self._health is not None:
                self._health.service_request("s3", "delete", micros, self._clock.now)
            bucket.remove_key(key)

    def list_objects(
        self, principal: Principal, bucket_name: str, prefix: str = "",
        memory_mb: Optional[int] = None,
    ) -> List[str]:
        with traced(self._tracer, "s3.list", usage=(UsageKind.S3_GET, 1.0)):
            if self._fault_hook is not None:
                self._fault_hook()
            bucket = self.bucket(bucket_name)
            self._iam.check(principal, "s3:ListBucket", self.arn(bucket_name))
            micros = self._latency.sample("s3.list", memory_mb).micros
            self._clock.advance(micros)
            if self._health is not None:
                self._health.service_request("s3", "list", micros, self._clock.now)
            self._meter.record(UsageKind.S3_GET, 1.0)
            return sorted(
                key for key in bucket.objects
                if key.startswith(prefix) and bucket.objects[key]
            )

    # -- the attacker's view ------------------------------------------------

    def raw_scan(self, bucket_name: str) -> Iterator[Tuple[str, bytes]]:
        """Every stored byte, with no IAM check and no metering.

        This is the threat model's internal attacker "with access to
        other cloud services (e.g., storage)": it sees everything the
        service physically holds. Privacy tests assert nothing yielded
        here contains plaintext.
        """
        bucket = self.bucket(bucket_name)
        for key, versions in bucket.objects.items():
            for obj in versions:
                yield key, obj.data

    def stored_bytes(self, bucket_name: str) -> int:
        return self.bucket(bucket_name).current_bytes()
