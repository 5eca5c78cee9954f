"""The DIY group-chat service — the paper's §6.2 prototype.

Architecture, straight from the paper:

- XMPP stanzas are "tunneled through HTTPS, because Lambda only
  supports HTTP(S)-based endpoints" — clients wrap stanzas in BOSH
  bodies POSTed over a :class:`~repro.core.client.SecureChannel`.
- The serverless function envelope-encrypts each message, appends it
  to the room's history in S3, and "post[s] encrypted messages to
  Amazon's Simple Queue Service, which the client then long polls".
- The deployed function uses 448 MB of memory: "allocating 448 MB gave
  significantly better latencies than a 128 MB function".
"""

from typing import Tuple

from repro.apps.chat.server import chat_manifest, CHAT_FOOTPRINT_MB
from repro.apps.chat.client import ChatClient, ReceivedMessage
from repro.apps.chat.service import ChatService

__all__ = [
    "chat_manifest",
    "CHAT_FOOTPRINT_MB",
    "ChatClient",
    "ReceivedMessage",
    "ChatService",
    "chat_pair",
]


def chat_pair(provider) -> Tuple[ChatClient, ChatClient]:
    """Deploy chat under ``provider.plan`` with alice and bob connected in "room".

    The owner (alice) deploys the app and creates the room; each
    member's device is then built, joins and connects, alice first:
    connecting draws from the provider's streams and advances its
    clock, so the order is part of every seeded run's bytes.
    """
    from repro.core.deployment import Deployer

    app = Deployer(provider).deploy(chat_manifest(plan=provider.plan), owner="alice")
    service = ChatService(app)
    members = ("alice@diy", "bob@diy")
    service.create_room("room", list(members))
    clients = []
    for jid in members:
        client = ChatClient(service, jid)
        client.join("room")
        client.connect()
        clients.append(client)
    alice, bob = clients
    return alice, bob
