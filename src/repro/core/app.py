"""DIY applications: manifests and deployed instances (Figure 1).

An :class:`AppManifest` is what a developer publishes (and what the
§8.1 app store lists): the function code, its resource needs, and the
*permission grants* it requires — the narrow interface §3.3's trust
argument depends on. A :class:`DIYApp` is one user's deployed instance:
her own KMS key, her own bucket/queues, her own endpoints, with
user-exercisable control over deletion, export, and migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro import tcb
from repro.cloud.billing import Invoice
from repro.cloud.iam import Policy, Principal
from repro.cloud.lambda_.function import Handler
from repro.cloud.provider import CloudProvider
from repro.crypto.envelope import EncryptedBlob
from repro.errors import ConfigurationError, CryptoError, DeploymentError
from repro.net.address import Region
from repro.units import Money

__all__ = ["PermissionGrant", "FunctionSpec", "AppManifest", "StoredItem", "DIYApp"]


@dataclass(frozen=True)
class PermissionGrant:
    """One least-privilege permission an app asks for.

    ``resource_template`` may contain ``{app}`` (instance name), which
    the deployer substitutes — every user's instance only ever touches
    her own resources.
    """

    actions: Tuple[str, ...]
    resource_template: str
    reason: str = ""

    def resolve(self, app_instance: str) -> str:
        return self.resource_template.format(app=app_instance)


@dataclass(frozen=True)
class FunctionSpec:
    """One serverless function an app deploys."""

    name_suffix: str  # instance name = "<app>-<suffix>"
    handler: Handler
    memory_mb: int = 128
    timeout_ms: int = 30_000
    route_prefix: str = ""  # non-empty → exposed via the API gateway
    footprint_mb: int = 0  # resident library size of the deployment package
    use_enclave: bool = False  # §8.2: load into an SGX-style enclave
    environment: Tuple[Tuple[str, str], ...] = ()  # app-specific env vars
    routes: Tuple[str, ...] = ()  # declared route specs, e.g. "POST /bosh"


@dataclass(frozen=True)
class AppManifest:
    """What a developer publishes to the app store."""

    app_id: str
    version: str
    description: str
    functions: Tuple[FunctionSpec, ...]
    permissions: Tuple[PermissionGrant, ...]
    buckets: Tuple[str, ...] = ()  # suffixes; instance bucket = "<app>-<suffix>"
    queues: Tuple[str, ...] = ()  # "<prefix>-*" declares a family made at run time
    tables: Tuple[str, ...] = ()
    needs_vm: Optional[str] = None  # instance type, for relay-style apps
    store: Optional[object] = None  # runtime StoreDecl, for kernel-built apps

    def __post_init__(self):
        if not self.app_id or not self.version:
            raise ConfigurationError("manifest needs an app_id and version")
        if not self.functions and self.needs_vm is None:
            raise ConfigurationError("manifest deploys nothing")


class StoredItem(NamedTuple):
    """One thing an app holds, at a typed location."""

    kind: str  # "bucket" (an object), "table" (an item) or "queue" (a message)
    resource: str  # the bucket, table or queue name
    key: Tuple[str, ...]  # (object key,), (partition, sort) or (message id,)
    read: Callable[[], bytes]  # the stored bytes; an S3 GET for objects


@dataclass
class DIYApp:
    """One deployed instance of a manifest for one user."""

    instance_name: str
    manifest: AppManifest
    provider: CloudProvider
    owner: str
    key_id: str
    role_name: str
    function_names: Tuple[str, ...]
    bucket_names: Tuple[str, ...]
    table_names: Tuple[str, ...]
    routes: Dict[str, str] = field(default_factory=dict)  # route prefix → function
    vm_instance_id: Optional[str] = None

    @property
    def queue_names(self) -> Tuple[str, ...]:
        """The fixed queues and every live member of a declared family."""
        names: List[str] = []
        for suffix in self.manifest.queues:
            name = f"{self.instance_name}-{suffix}"
            if suffix.endswith("-*"):
                names += self.provider.sqs.list_queues(name[:-1])
            else:
                names.append(name)
        return tuple(names)

    # -- use ----------------------------------------------------------------

    def invoke(self, function_suffix: str, event: object):
        """Invoke one of the app's functions, attributing usage to the app."""
        name = f"{self.instance_name}-{function_suffix}"
        if name not in self.function_names:
            raise DeploymentError(f"{self.instance_name} has no function {function_suffix!r}")
        with self.provider.meter.attributed(self.instance_name):
            return self.provider.lambda_.invoke(name, event)

    def queue(self, suffix: str) -> str:
        """``{instance}-{suffix}`` for a declared queue or family member, made on first use."""
        if not any(fnmatchcase(suffix, declared) for declared in self.manifest.queues):
            raise ConfigurationError(f"{self.manifest.app_id} declares no queue {suffix!r}")
        name = f"{self.instance_name}-{suffix}"
        if not self.provider.sqs.queue_exists(name):
            self.provider.sqs.create_queue(name)
        return name

    # -- the §3.3 user controls ------------------------------------------------

    def stored_items(self) -> Iterator[StoredItem]:
        """Every bucket object, table item and queued message (oldest first); each
        resource is listed before its first item, so a walker may rewrite it."""
        root, s3 = self._root(), self.provider.s3
        for bucket in self.bucket_names:
            for key in s3.list_objects(root, bucket):
                yield StoredItem("bucket", bucket, (key,),
                                 lambda b=bucket, k=key: s3.get_object(root, b, k).data)
        for table in self.table_names:
            for item_key, value in list(self.provider.dynamo.raw_scan(table)):
                yield StoredItem("table", table, item_key, lambda v=value: v)
        for queue in self.queue_names:
            for message_id, body in self.provider.sqs.scan(queue):
                yield StoredItem("queue", queue, (message_id,), lambda v=body: v)

    def delete_all_data(self) -> int:
        """Delete everything stored and revoke the key; returns how many items were deleted.

        Unlike a centralized service, nothing else ever held a readable
        copy: once the key is gone, even surviving ciphertext is noise.
        """
        deleted = 0
        for item in self.stored_items():
            self._delete(item)
            deleted += 1
        self.provider.kms.schedule_key_deletion(self.key_id)
        return deleted

    def rotate_key(self) -> str:
        """Rotate the master key: §3.3's control over keys, exercised.

        A fresh CMK is created, the data key of every stored item is
        re-wrapped under it (queued messages are re-sent in order; clear
        objects stay as they are), and the old master is revoked. Payload
        ciphertext never changes and plaintext never leaves the owner's
        zone — the same mechanics as migration, pointed at the same
        provider. Returns the new key id.
        """
        new_key_id = self.provider.kms.create_key(
            f"{self.instance_name}-master-r{self.provider.clock.now}"
        )
        for item in self.stored_items():
            raw = item.read()
            moved = self._rewrap(raw, self.provider.kms, new_key_id)
            if moved is not raw:
                self._write(item, moved)
                if item.kind == "queue":
                    self._delete(item)

        # Re-point the role's KMS grant and the functions' environment.
        role = self.provider.iam.get_role(self.role_name)
        role.attach(Policy.allow(
            f"{self.instance_name}-kms-rotated-{new_key_id}",
            ["kms:GenerateDataKey", "kms:Decrypt"],
            [self.provider.kms.arn(new_key_id)],
        ))
        for name in self.function_names:
            config = self.provider.lambda_.get_function(name)
            environment = dict(config.environment)
            environment["DIY_KEY_ID"] = new_key_id
            self.provider.lambda_.deploy(replace(config, environment=environment))
        self.provider.kms.schedule_key_deletion(self.key_id)
        self.key_id = new_key_id
        return new_key_id

    def _rewrap(self, raw: bytes, kms, key_id: str) -> bytes:
        """``raw`` with its data key unwrapped here in the owner's zone and
        re-wrapped under ``key_id`` at ``kms``; anything that is not an
        envelope under this app's key comes back as the same object."""
        try:
            blob = EncryptedBlob.deserialize(raw)
        except CryptoError:
            return raw  # config objects (e.g. public keys) are not envelopes
        if blob.data_key.master_key_id != self.key_id:
            return raw
        root = self._root()
        with tcb.zone(tcb.Zone.CLIENT, f"owner:{self.owner}"):
            data_key = self.provider.kms.decrypt_data_key(root, blob.data_key)
            rewrapped = kms.encrypt_data_key(root, key_id, data_key)
        return EncryptedBlob(rewrapped, blob.nonce, blob.ciphertext).serialize()

    def export_data(self) -> Dict[str, bytes]:
        """Export everything stored, by ``<resource>/<key>`` — no lock-in (§3.3).

        Returns ciphertext blobs; the owner decrypts them client-side
        with her key material.
        """
        return {"/".join((item.resource,) + item.key): item.read()
                for item in self.stored_items()}

    def stored_object_count(self) -> int:
        return sum(1 for _ in self.stored_items())

    def regions_holding_data(self) -> List[Region]:
        """Where the user's data physically lives (§3.3 placement control)."""
        return sorted(
            {self.provider.s3.bucket(b).region for b in self.bucket_names},
            key=lambda region: region.name,
        )

    # -- accounting (the §8.1 store UI) -------------------------------------

    def resource_usage(self) -> Dict[str, float]:
        """Raw usage attributed to this app instance."""
        return self.provider.meter.tagged(self.instance_name).snapshot()

    def monthly_cost(self) -> Money:
        """This app's attributed share of the bill (no free tier, worst case)."""
        sub_meter = self.provider.meter.tagged(self.instance_name)
        return Invoice(sub_meter, self.provider.prices, apply_free_tier=False).total()

    # -- internals ---------------------------------------------------------

    def _root(self) -> Principal:
        return Principal(f"owner:{self.owner}", None)

    def _write(self, item: StoredItem, data: bytes) -> None:
        """Put ``data`` at ``item``'s location here; a message joins the back of its queue."""
        provider = self.provider
        if item.kind == "queue":
            provider.sqs.send_message(self._root(), item.resource, data)
        else:
            put = provider.s3.put_object if item.kind == "bucket" else provider.dynamo.put_item
            put(self._root(), item.resource, *item.key, data)

    def _delete(self, item: StoredItem) -> None:
        provider = self.provider
        delete = {"bucket": provider.s3.delete_object, "table": provider.dynamo.delete_item,
                  "queue": provider.sqs.delete_message}[item.kind]
        delete(self._root(), item.resource, *item.key)

    def __repr__(self) -> str:
        return (
            f"DIYApp({self.instance_name!r}, app_id={self.manifest.app_id!r}, "
            f"owner={self.owner!r})"
        )
