"""Owner-side chat administration.

Room creation is an owner operation (her device, her key): the roster
is encrypted client-side and written to the app's state store, and
each member gets an SQS inbox queue. The Lambda handler then only ever
*reads* the roster. The store itself comes from
:func:`repro.runtime.owner.owner_store`, so the service transparently follows
whichever backend the deployment plan chose.
"""

from __future__ import annotations

import json
from typing import List

from repro import tcb
from repro.apps.chat.server import roster_key
from repro.cloud.iam import Principal
from repro.core.app import DIYApp
from repro.crypto.envelope import EnvelopeEncryptor
from repro.errors import ConfigurationError
from repro.runtime.owner import app_storage, owner_store

__all__ = ["ChatService"]


class ChatService:
    """Manages rooms and member inboxes for one deployed chat app."""

    def __init__(self, app: DIYApp):
        if app.manifest.app_id != "diy-chat":
            raise ConfigurationError(f"not a chat app: {app.manifest.app_id}")
        self.app = app
        self.provider = app.provider
        self._owner = Principal(f"owner:{app.owner}", None)

    @property
    def storage(self) -> str:
        """The state backend the deployed function was configured with."""
        return app_storage(self.app)

    @property
    def state_table(self) -> str:
        return f"{self.app.instance_name}-{self.app.manifest.store.table}"

    def _store(self):
        return owner_store(self.app)

    @property
    def route_prefix(self) -> str:
        return f"/{self.app.instance_name}/bosh"

    def inbox_queue(self, member_local: str) -> str:
        return f"{self.app.instance_name}-inbox-{member_local}"

    def _encryptor(self) -> EnvelopeEncryptor:
        provider = self.provider.kms.key_provider(self._owner, self.app.key_id)
        return EnvelopeEncryptor(provider)

    def create_room(self, room: str, members: List[str]) -> None:
        """Create a room with a member roster (bare JIDs) and inboxes."""
        if not members:
            raise ConfigurationError("a room needs at least one member")
        encryptor = self._encryptor()
        with tcb.zone(tcb.Zone.CLIENT, f"owner:{self.app.owner}"):
            blob = encryptor.encrypt_bytes(
                json.dumps(sorted(members)).encode(), aad=room.encode()
            )
        self._store().put(roster_key(room), blob)
        for member in members:
            self.register_member(member.split("@", 1)[0])

    def room_roster(self, room: str) -> List[str]:
        """Read back a roster (owner-side decryption)."""
        raw = self._store().get(roster_key(room))
        with tcb.zone(tcb.Zone.CLIENT, f"owner:{self.app.owner}"):
            return json.loads(self._encryptor().decrypt_bytes(raw, aad=room.encode()))

    def register_member(self, member_local: str) -> str:
        """Provision an inbox queue for a local user (needed before the
        deployment can receive federated direct messages for them)."""
        return self.app.queue(f"inbox-{member_local}")

    def add_member(self, room: str, member: str) -> None:
        """Add a member to an existing room (and give them an inbox)."""
        roster = self.room_roster(room)
        if member in roster:
            return
        roster.append(member)
        self.create_room(room, roster)
