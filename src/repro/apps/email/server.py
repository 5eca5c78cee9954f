"""The email functions: inbound encrypt-and-store, outbound send, search.

Inbound (the SES → Lambda hook): parse the RFC 5322 bytes, run the
SpamAssassin-style scorer, stamp ``X-Spam-*`` headers, PGP-encrypt the
whole message to the owner's public key, and store it under ``inbox/``
(or ``spam/``). Only ciphertext ever touches the state store.

Outbound (the HTTPS send endpoint): hand the message to SES for
delivery and keep a PGP-encrypted copy under ``sent/``.

Search (the §7 motivation made concrete — "the protocols backing
[E2E-encrypted apps] run on clients and cannot, e.g., host an SMTP
server, since this service need access to plaintext data"): message
*bodies* are sealed to the owner's device-held key and are opaque even
to the function, but the inbound hook also writes a KMS-envelope
**metadata index** record (subject/sender/folder) that the function —
and only the function, inside its container — can decrypt to answer
search queries. Two encryption tiers, one per trust decision.

All three functions are assembled by :class:`repro.runtime.kernel.AppKernel`
from one spec; the mailbox lives in whichever backend the deployment
plan chose.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.app import AppManifest, PermissionGrant
from repro.crypto.pgp import pgp_encrypt
from repro.crypto.x25519 import X25519PublicKey
from repro.net.http import HttpRequest, HttpResponse
from repro.protocols.mime import parse_email
from repro.protocols.spam import SpamScorer
from repro.runtime.errors import json_response
from repro.runtime.kernel import AppKernel, AppSpec, KernelContext, KernelFunction, RouteDecl, StoreDecl

__all__ = [
    "email_manifest",
    "EMAIL_FOOTPRINT_MB",
    "PUBKEY_KEY",
    "INDEX_PREFIX",
]

EMAIL_FOOTPRINT_MB = 12  # MIME + PGP + SDK deployment package
PUBKEY_KEY = "config/owner-pubkey"
INDEX_PREFIX = "index/"
_INDEX_AAD = b"mail-index"


def _owner_pubkey(kctx: KernelContext) -> X25519PublicKey:
    """The owner's public key, cached while the container is warm."""
    return X25519PublicKey(kctx.store.cached_get(PUBKEY_KEY))


def _store_encrypted(kctx: KernelContext, folder: str, raw: bytes, message_id: str) -> str:
    sealed = pgp_encrypt(_owner_pubkey(kctx), raw).serialize()
    key = f"{folder}/{kctx.clock.now:020d}-{message_id.strip('<>').replace('@', '_')}"
    kctx.store.put(key, sealed)
    return key


def index_key(stored_key: str) -> str:
    return f"{INDEX_PREFIX}{stored_key.replace('/', '-')}"


def _write_index(kctx: KernelContext, folder: str, message, stored_key: str) -> None:
    """Record searchable metadata under the KMS envelope tier."""
    kctx.store.put_json(index_key(stored_key), {
        "subject": message.subject,
        "sender": message.sender.email,
        "folder": folder,
        "key": stored_key,
    }, aad=_INDEX_AAD)


def _inbound_endpoint(kctx: KernelContext, event) -> dict:
    """The SES inbound hook: one invocation per received email."""
    raw = event["raw_email"]
    kctx.track_bytes(len(raw))
    message = parse_email(raw)
    verdict = SpamScorer().score(message)
    for name, value in verdict.headers().items():
        message.extra_headers[name] = value
    folder = "spam" if verdict.is_spam else "inbox"
    key = _store_encrypted(kctx, folder, message.serialize(), message.message_id)
    _write_index(kctx, folder, message, key)
    return {"stored": key, "spam": verdict.is_spam, "score": verdict.score}


def _search_endpoint(kctx: KernelContext, request: HttpRequest) -> HttpResponse:
    """Server-side search over the metadata index (container-only plaintext)."""
    query = (request.header("x-diy-query") or "").lower()
    if not query:
        return json_response({"error": "missing x-diy-query header"}, status=400)
    matches = []
    for key in kctx.store.list(INDEX_PREFIX):
        record = kctx.store.get_json(key, aad=_INDEX_AAD)
        haystack = f"{record['subject']} {record['sender']}".lower()
        if query in haystack:
            matches.append({"key": record["key"], "folder": record["folder"],
                            "subject": record["subject"]})
    return json_response({"matches": matches})


def _outbound_endpoint(kctx: KernelContext, request: HttpRequest) -> HttpResponse:
    """The HTTPS send endpoint: SES delivery plus an encrypted sent-copy."""
    kctx.track_bytes(len(request.body))
    message = parse_email(request.body)
    kctx.services.ses_send(
        message.sender.email, [r.email for r in message.recipients], request.body
    )
    key = _store_encrypted(kctx, "sent", request.body, message.message_id)
    return json_response({"stored": key, "recipients": len(message.recipients)})


EMAIL_SPEC = AppSpec(
    app_id="diy-email",
    version="1.0.0",
    description="Private email: SES ingest, spam scoring, PGP-encrypted mailbox",
    functions=(
        KernelFunction(
            suffix="inbound",
            event_endpoint=_inbound_endpoint,
            timeout_ms=30_000,
            footprint_mb=EMAIL_FOOTPRINT_MB,
        ),
        KernelFunction(
            suffix="outbound",
            routes=(RouteDecl("POST", "/send", _outbound_endpoint, name="send"),),
            timeout_ms=30_000,
            route_prefix="/send",
            footprint_mb=EMAIL_FOOTPRINT_MB,
        ),
        KernelFunction(
            suffix="search",
            routes=(RouteDecl("GET", "/search", _search_endpoint, name="search"),),
            timeout_ms=30_000,
            route_prefix="/search",
            footprint_mb=EMAIL_FOOTPRINT_MB,
        ),
    ),
    store=StoreDecl(bucket="mail", table="kv",
                    reason="read config / write encrypted mail"),
    permissions=(
        PermissionGrant(("ses:SendEmail",),
                        "arn:diy:ses:::identity/*",
                        "deliver outbound mail"),
    ),
)


def email_manifest(plan: Optional["DeploymentPlan"] = None) -> AppManifest:
    """The email app as published to the store (Table 2's 128 MB row).

    ``plan`` supplies the mailbox backend and every other knob (with
    none, the default plan applies).
    """
    return AppKernel(EMAIL_SPEC, plan).manifest()
