"""Owner-device access to a deployed app's state store.

Services and clients (room creation, pubkey publishing, mailbox reads)
run on the owner's device, not inside a function — but they must read
and write the *same* state the functions do, whichever backend the
deployment plan chose. :func:`owner_store` builds the matching
:class:`~repro.runtime.store.StateStore` over the provider APIs, bound
to the owner principal.
"""

from __future__ import annotations

from typing import Optional

from repro.cloud.iam import Principal
from repro.errors import ConfigurationError
from repro.runtime.store import STORAGE_ENV, DynamoStore, OwnerOps, S3Store, StateStore

__all__ = ["owner_store", "app_storage"]

def app_storage(app) -> str:
    """Which backend the deployed functions were configured with."""
    config = app.provider.lambda_.get_function(app.function_names[0])
    return config.environment.get(STORAGE_ENV, "s3")


def owner_store(app, encryptor=None) -> StateStore:
    """The owner-side view of ``app``'s state store."""
    decl = app.manifest.store
    if decl is None:
        raise ConfigurationError(f"{app.manifest.app_id} declares no state store")
    ops = OwnerOps(app.provider, Principal(f"owner:{app.owner}", None))
    if app_storage(app) == "dynamo":
        return DynamoStore(ops, f"{app.instance_name}-{decl.table}", encryptor)
    return S3Store(ops, f"{app.instance_name}-{decl.bucket}", encryptor)
