"""The deployer: Figure 1's wiring, in one call.

§4's deployment steps — install the function, register a trigger,
create a key, configure encrypted storage, set IAM permissions — are
exactly what :meth:`Deployer.deploy` performs from a manifest. It also
implements the §3.3 freedoms: :meth:`teardown` (delete the app and its
data) and :meth:`migrate` (move an app's *encrypted* state to another
provider or region without ever decrypting it in transit).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.cloud.iam import Policy
from repro.cloud.lambda_.function import FunctionConfig
from repro.cloud.provider import CloudProvider
from repro.core.app import AppManifest, DIYApp
from repro.errors import DeploymentError
from repro.net.address import Region

__all__ = ["Deployer"]


class Deployer:
    """Deploys, tears down, and migrates DIY apps on a provider."""

    def __init__(self, provider: CloudProvider):
        self.provider = provider

    # -- deploy ---------------------------------------------------------

    def deploy(
        self,
        manifest: AppManifest,
        owner: str,
        instance_name: Optional[str] = None,
        region: Optional[Region] = None,
    ) -> DIYApp:
        """Deploy one instance of ``manifest`` for ``owner``.

        Creates the user's KMS key, a least-privilege role from the
        manifest's permission grants, the app's buckets/queues/tables,
        every function, and gateway routes for HTTP-exposed functions.
        """
        provider = self.provider
        instance = instance_name or f"{manifest.app_id}-{owner}"
        region = region or provider.home_region

        key_id = provider.kms.create_key(f"{instance}-master")
        role = provider.iam.create_role(f"{instance}-role")
        role.attach(
            Policy.allow(
                f"{instance}-kms",
                ["kms:GenerateDataKey", "kms:Decrypt"],
                [provider.kms.arn(key_id)],
            )
        )
        for index, grant in enumerate(manifest.permissions):
            role.attach(
                Policy.allow(
                    f"{instance}-grant-{index}",
                    list(grant.actions),
                    [grant.resolve(instance)],
                )
            )

        bucket_names = tuple(f"{instance}-{suffix}" for suffix in manifest.buckets)
        for bucket in bucket_names:
            provider.s3.create_bucket(bucket, region)
        for suffix in manifest.queues:
            if not suffix.endswith("-*"):  # family members are made at run time
                provider.sqs.create_queue(f"{instance}-{suffix}")
        table_names = tuple(f"{instance}-{suffix}" for suffix in manifest.tables)
        for table in table_names:
            provider.dynamo.create_table(table)

        function_names, routes = self._deploy_functions(
            manifest, instance, owner, key_id, role.name, region
        )

        vm_id = None
        if manifest.needs_vm is not None:
            vm = provider.ec2.launch(manifest.needs_vm, region)
            provider.ec2.stop(vm.instance_id)  # relays start on demand
            vm_id = vm.instance_id

        return DIYApp(
            instance_name=instance,
            manifest=manifest,
            provider=provider,
            owner=owner,
            key_id=key_id,
            role_name=role.name,
            function_names=function_names,
            bucket_names=bucket_names,
            table_names=table_names,
            routes=routes,
            vm_instance_id=vm_id,
        )

    def _deploy_functions(
        self, manifest: AppManifest, instance: str, owner: str,
        key_id: str, role_name: str, region: Region,
    ) -> Tuple[Tuple[str, ...], Dict[str, str]]:
        """Install every function of ``manifest`` and route the HTTP ones.

        Returns the function names and the gateway routes (prefix →
        function). Deploying over an existing name replaces that function.
        """
        provider = self.provider
        function_names = []
        routes = {}
        for spec in manifest.functions:
            name = f"{instance}-{spec.name_suffix}"
            environment = {
                "DIY_INSTANCE": instance,
                "DIY_KEY_ID": key_id,
                "DIY_OWNER": owner,
            }
            environment.update(dict(spec.environment))
            provider.lambda_.deploy(
                FunctionConfig(
                    name=name,
                    handler=spec.handler,
                    memory_mb=spec.memory_mb,
                    timeout_ms=spec.timeout_ms,
                    role_name=role_name,
                    regions=(region,),
                    environment=environment,
                    footprint_mb=spec.footprint_mb,
                    use_enclave=spec.use_enclave,
                )
            )
            function_names.append(name)
            if spec.route_prefix:
                prefix = f"/{instance}{spec.route_prefix}"
                provider.gateway.add_route(prefix, name)
                routes[prefix] = name
        return tuple(function_names), routes

    # -- update --------------------------------------------------------------

    def update(self, app: DIYApp, manifest: AppManifest) -> DIYApp:
        """Redeploy ``app``'s functions from a new version's ``manifest``.

        The functions are replaced exactly as :meth:`deploy` installs
        them, under the app's existing key and role; its buckets,
        queues, tables and VM — and so the user's data — stay. Functions
        or routes the new version drops are not removed, and resources
        it adds are not created.
        """
        function_names, routes = self._deploy_functions(
            manifest, app.instance_name, app.owner, app.key_id, app.role_name,
            self.provider.home_region,
        )
        return dataclasses.replace(
            app, manifest=manifest, function_names=function_names, routes=routes
        )

    # -- teardown ----------------------------------------------------------

    def teardown(self, app: DIYApp, delete_data: bool = True) -> None:
        """Remove the app, run-time queues included; with ``delete_data``, §3.3's full deletion."""
        if app.provider is not self.provider:
            raise DeploymentError("app belongs to a different provider")
        provider = self.provider
        if delete_data:
            app.delete_all_data()
        for prefix in app.routes:
            provider.gateway.remove_route(prefix)
        for name in app.function_names:
            provider.lambda_.remove(name)
        for bucket in app.bucket_names:
            provider.s3.delete_bucket(bucket)
        for queue in app.queue_names:
            provider.sqs.delete_queue(queue)
        for table in app.table_names:
            provider.dynamo.delete_table(table)
        provider.iam.delete_role(app.role_name)
        if app.vm_instance_id is not None:
            provider.ec2.terminate(app.vm_instance_id)

    # -- migration ---------------------------------------------------------

    def migrate(self, app: DIYApp, target: CloudProvider,
                target_region: Optional[Region] = None) -> DIYApp:
        """Move the app to another provider (§3.3's freedom to leave).

        Payload plaintext is never exposed to either provider: the owner
        unwraps each data key (a client-zone operation against the old
        KMS) and the target KMS re-wraps it; payload ciphertext and
        clear-text objects are copied byte-for-byte. Queued messages are
        re-wrapped too and keep their order; every queue, run-time ones
        included, is made on the target first. The old deployment is
        then torn down without deleting — the data moved.
        """
        new_app = Deployer(target).deploy(
            app.manifest, app.owner, instance_name=app.instance_name, region=target_region
        )
        for queue in app.queue_names:
            new_app.queue(queue[len(app.instance_name) + 1:])
        for item in app.stored_items():
            moved = app._rewrap(item.read(), target.kms, new_app.key_id)
            app.provider.fabric.send_cross_region(
                f"s3.{app.provider.name}", f"s3.{target.name}", moved,
                app.provider.home_region, target.home_region,
            )
            new_app._write(item, moved)
        self.teardown(app, delete_data=False)
        return new_app
