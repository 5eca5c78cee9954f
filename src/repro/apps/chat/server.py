"""The chat function: one Lambda invocation per chat request (§6.2).

The handler accepts a BOSH body (XMPP tunneled over HTTPS), and for
each message stanza:

1. asks KMS for a fresh data key (envelope encryption),
2. appends the encrypted stanza to the room's history in the app's
   state store, and
3. posts the same encrypted blob to every other member's SQS inbox,
   which their clients long-poll.

Room rosters live encrypted in the store and are cached in container
state while the function is warm (the kernel's ``CachedStore``), so the
steady-state send path is exactly the three calls above — which is what
puts the median run time near Table 3's 134 ms on a 448 MB function.

The app is built on :mod:`repro.runtime`: the spec below declares the
route, the state store (S3 by default; DynamoDB with a plan's
``storage="dynamo"``, the paper's low-latency footnote), and the
permission grants.
"""

from __future__ import annotations

import base64
import json
from typing import Optional

from repro.core.app import AppManifest, PermissionGrant
from repro.errors import XMPPProtocolError
from repro.net.http import HttpRequest, HttpResponse
from repro.protocols.bosh import BoshBody
from repro.protocols.xmpp import Jid, Stanza, iq_stanza
from repro.runtime.kernel import AppKernel, AppSpec, KernelContext, KernelFunction, RouteDecl, StoreDecl

__all__ = ["chat_manifest", "CHAT_FOOTPRINT_MB", "roster_key", "history_prefix"]

# The prototype's deployment package (XMPP + crypto + SDK) resident
# size; with the 34 MB base runtime this peaks at Table 3's ~51 MB.
CHAT_FOOTPRINT_MB = 17


def roster_key(room: str) -> str:
    return f"rooms/{room}/roster"


def history_prefix(room: str) -> str:
    return f"rooms/{room}/history/"


def _load_roster(kctx: KernelContext, room: str) -> list:
    """Roster from the warm-container cache, falling back to the store."""
    return kctx.store.cached_get_json(roster_key(room), aad=room.encode())


def _remote_instance(ctx, member: str) -> str:
    """The peer DIY instance hosting ``member``, or "" if local.

    Federation convention (§2's "federated design"): a member JID whose
    domain is ``<instance>.diy`` lives on that instance's deployment;
    bare-"diy" domains are local users of this deployment. ``ctx`` may
    be a kernel or raw invocation context — only the environment is read.
    """
    domain = member.rsplit("@", 1)[-1]
    if domain == "diy" or not domain.endswith(".diy"):
        return ""
    instance = domain[: -len(".diy")]
    return "" if instance == ctx.environment["DIY_INSTANCE"] else instance


def _forward_to_peer(kctx: KernelContext, stanza: Stanza, member: str, instance: str) -> None:
    """XMPP server-to-server, tunneled over HTTPS like everything else."""
    direct = Stanza(
        "message", stanza.from_jid, Jid.parse(member), stanza.stanza_id,
        "chat", stanza.children, dict(stanza.attributes),
    )
    body = BoshBody(f"s2s-{kctx.instance}", 1, (direct,))
    request = HttpRequest(
        "POST", f"/{instance}/bosh", {"content-type": "text/xml"}, body.serialize()
    )
    response = kctx.http_request(request)
    if not response.ok:
        raise XMPPProtocolError(
            f"peer {instance} refused the federated stanza: HTTP {response.status}"
        )


def _handle_direct(kctx: KernelContext, stanza: Stanza) -> Stanza:
    """Deliver a direct (type="chat") stanza — the federated inbound path.

    The stanza arrived from a peer deployment over HTTPS; re-encrypt it
    under *this* deployment's key and post it to the recipient's inbox.
    """
    if stanza.to_jid is None or stanza.from_jid is None:
        raise XMPPProtocolError("direct stanza needs both from and to")
    recipient = stanza.to_jid.local
    blob = kctx.encryptor.encrypt_bytes(stanza.serialize(), aad=b"")
    kctx.services.sqs_send(kctx.queue(f"inbox-{recipient}"), blob)
    return iq_stanza(None, stanza.from_jid, "result", stanza.stanza_id)


def _handle_message(kctx: KernelContext, stanza: Stanza) -> Stanza:
    """Encrypt once; append to history; fan out to the other members."""
    if stanza.to_jid is None or stanza.from_jid is None:
        raise XMPPProtocolError("message stanza needs both from and to")
    if stanza.stanza_type == "chat":
        return _handle_direct(kctx, stanza)
    room = stanza.to_jid.local
    roster = _load_roster(kctx, room)
    sender = stanza.from_jid.bare
    if sender not in roster:
        # The warm-container cache may predate a membership change;
        # re-read the authoritative roster once before rejecting.
        kctx.store.invalidate(roster_key(room))
        roster = _load_roster(kctx, room)
    if sender not in roster:
        return iq_stanza(None, stanza.from_jid, "error", stanza.stanza_id,
                         children=(("error", "not-a-member"),))

    blob = kctx.encryptor.encrypt_bytes(stanza.serialize(), aad=room.encode())
    key = f"{history_prefix(room)}{kctx.clock.now:020d}-{kctx.request_id}"
    kctx.store.put(key, blob)
    for member in roster:
        if member == sender:
            continue
        peer = _remote_instance(kctx, member)
        if peer:
            _forward_to_peer(kctx, stanza, member, peer)
        else:
            kctx.services.sqs_send(kctx.queue(f"inbox-{member.split('@', 1)[0]}"), blob)
    return iq_stanza(None, stanza.from_jid, "result", stanza.stanza_id)


def _handle_iq(kctx: KernelContext, stanza: Stanza) -> Stanza:
    """Session initiation and history queries."""
    if stanza.child("session") is not None:
        # Basic session initiation: acknowledge with a session id.
        return iq_stanza(None, stanza.from_jid, "result", stanza.stanza_id,
                         children=(("session", f"sess-{kctx.request_id}"),))
    history_room = stanza.child("history")
    if history_room is not None:
        keys = kctx.store.list(history_prefix(history_room))
        blobs = [
            base64.b64encode(kctx.store.get(key)).decode()
            for key in keys
        ]
        return iq_stanza(None, stanza.from_jid, "result", stanza.stanza_id,
                         children=(("history", json.dumps(blobs)),))
    return iq_stanza(None, stanza.from_jid, "error", stanza.stanza_id,
                     children=(("error", "unsupported-iq"),))


def _bosh_endpoint(kctx: KernelContext, request: HttpRequest) -> HttpResponse:
    """One HTTPS request carrying one BOSH body."""
    body = BoshBody.deserialize(request.body)
    kctx.track_bytes(len(request.body))

    replies = []
    for stanza in body.stanzas:
        if stanza.kind == "message":
            replies.append(_handle_message(kctx, stanza))
        elif stanza.kind == "iq":
            replies.append(_handle_iq(kctx, stanza))
        elif stanza.kind == "presence":
            # Presence is acknowledged but (like the prototype) not tracked.
            continue
        else:  # pragma: no cover - parse_stanza already rejects other kinds
            raise XMPPProtocolError(f"unsupported stanza kind {stanza.kind!r}")

    reply_body = BoshBody(body.sid, body.rid, tuple(replies))
    return HttpResponse(200, {"content-type": "text/xml"}, reply_body.serialize())


def _event_rejected(kctx: KernelContext, event) -> None:
    raise XMPPProtocolError("chat endpoint expects an HTTP request")


CHAT_SPEC = AppSpec(
    app_id="diy-chat",
    version="1.0.0",
    description="Private group chat: XMPP over HTTPS with SQS long-polling",
    functions=(
        KernelFunction(
            suffix="handler",
            routes=(RouteDecl("POST", "/bosh", _bosh_endpoint, name="bosh"),),
            event_endpoint=_event_rejected,
            memory_mb=448,
            timeout_ms=30_000,
            route_prefix="/bosh",
            footprint_mb=CHAT_FOOTPRINT_MB,
        ),
    ),
    store=StoreDecl(bucket="state", table="kv",
                    reason="read/write encrypted room state"),
    permissions=(
        PermissionGrant(("sqs:SendMessage",),
                        "arn:diy:sqs:::{app}-inbox-*",
                        "fan out encrypted messages to member inboxes"),
    ),
    queues=("inbox-*",),
)


def chat_manifest(memory_mb: Optional[int] = None,
                  plan: Optional["DeploymentPlan"] = None) -> AppManifest:
    """The chat app as published to the store.

    The declared 448 MB default matches the deployed prototype; pass
    ``memory_mb=128`` to reproduce the slow low-memory configuration of
    the §6.2 ablation. The storage backend comes from ``plan`` (a
    :class:`repro.plan.DeploymentPlan`; S3 with none); a plan with
    ``storage="dynamo"`` keeps room state in the KV store instead of S3
    (the paper's low-latency-alternative footnote). Memory: the explicit
    ``memory_mb`` wins, then the plan's, then the declared default.
    """
    return AppKernel(CHAT_SPEC, plan).manifest(memory_mb=memory_mb)
