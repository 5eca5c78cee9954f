"""The IoT controller function.

Endpoints (declared on the :class:`repro.runtime.kernel.AppKernel` router):

- ``POST /cmd``       — relay a command to a device (encrypted onto its
  command queue) and store encrypted query metadata.
- ``POST /alert``     — a device reports an alert; stored encrypted and
  mirrored to the owner's alert queue.
- ``POST /telemetry`` — a device reports metrics; alert rules are
  evaluated inside the container.
- ``PUT  /rules``     — replace the owner-configured alert ruleset.
- ``GET  /dashboard`` — decrypt the stored metadata inside the
  container and return aggregate statistics.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.app import AppManifest, PermissionGrant
from repro.net.http import HttpRequest, HttpResponse
from repro.runtime.errors import json_response
from repro.runtime.kernel import AppKernel, AppSpec, KernelContext, KernelFunction, RouteDecl, StoreDecl

__all__ = ["iot_manifest", "IOT_FOOTPRINT_MB"]

IOT_FOOTPRINT_MB = 6


def _command_queue(kctx: KernelContext, device: str) -> str:
    return kctx.queue(f"device-{device}")


def _alert_queue(kctx: KernelContext) -> str:
    return kctx.queue("alerts")


def _store_record(kctx: KernelContext, kind: str, record: dict) -> str:
    key = f"{kind}/{kctx.clock.now:020d}-{kctx.request_id}"
    kctx.store.put_json(key, record, aad=kind.encode())
    return key


_RULES_KEY = "config/rules"
_OPS = {
    ">": lambda value, threshold: value > threshold,
    "<": lambda value, threshold: value < threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<=": lambda value, threshold: value <= threshold,
    "==": lambda value, threshold: value == threshold,
}


def _load_rules(kctx: KernelContext) -> list:
    """The alert ruleset, cached while the container is warm.

    A deployment with no rules configured yet has no stored ruleset;
    the empty default is remembered so the miss is paid once per
    container, not once per telemetry report.
    """
    try:
        return kctx.store.cached_get_json(_RULES_KEY, aad=b"rules")
    except Exception:
        kctx.store.remember_json(_RULES_KEY, [])
        return []


def _set_rules(kctx: KernelContext, request: HttpRequest) -> HttpResponse:
    """Replace the alert ruleset (owner-configured, stored encrypted)."""
    rules = json.loads(request.body)
    for rule in rules:
        if rule.get("op") not in _OPS:
            return json_response({"error": f"unknown op {rule.get('op')!r}"}, 400)
        for field in ("device", "metric", "threshold", "message"):
            if field not in rule:
                return json_response({"error": f"rule missing {field!r}"}, 400)
    kctx.store.put_json(_RULES_KEY, rules, aad=b"rules")
    kctx.store.remember_json(_RULES_KEY, rules)
    return json_response({"rules": len(rules)})


def _telemetry(kctx: KernelContext, request: HttpRequest) -> HttpResponse:
    """A device reports metrics; rules are evaluated inside the container."""
    report = json.loads(request.body)
    device = report.get("device")
    metrics = report.get("metrics")
    if not device or not isinstance(metrics, dict):
        return json_response({"error": "telemetry needs device and metrics"}, 400)
    _store_record(kctx, "telemetry", report)
    fired = []
    for rule in _load_rules(kctx):
        if rule["device"] != device or rule["metric"] not in metrics:
            continue
        if _OPS[rule["op"]](metrics[rule["metric"]], rule["threshold"]):
            alert = {"device": device, "message": rule["message"],
                     "metric": rule["metric"], "value": metrics[rule["metric"]]}
            _store_record(kctx, "alerts", alert)
            kctx.services.sqs_send(
                _alert_queue(kctx),
                kctx.encryptor.encrypt_bytes(json.dumps(alert).encode(), aad=b"alerts"),
            )
            fired.append(rule["message"])
    return json_response({"stored": True, "alerts_fired": fired})


def _cmd(kctx: KernelContext, request: HttpRequest) -> HttpResponse:
    command = json.loads(request.body)
    device = command.get("device")
    if not device or "action" not in command:
        return json_response({"error": "command needs device and action"}, 400)
    blob = kctx.encryptor.encrypt_bytes(json.dumps(command).encode(), aad=b"command")
    kctx.services.sqs_send(_command_queue(kctx, device), blob)
    _store_record(kctx, "queries", {
        "device": device, "action": command["action"], "at": kctx.clock.now,
    })
    return json_response({"queued": device})


def _alert(kctx: KernelContext, request: HttpRequest) -> HttpResponse:
    alert = json.loads(request.body)
    if "device" not in alert or "message" not in alert:
        return json_response({"error": "alert needs device and message"}, 400)
    key = _store_record(kctx, "alerts", alert)
    blob = kctx.encryptor.encrypt_bytes(json.dumps(alert).encode(), aad=b"alerts")
    kctx.services.sqs_send(_alert_queue(kctx), blob)
    return json_response({"stored": key})


def _dashboard(kctx: KernelContext, request: HttpRequest) -> HttpResponse:
    """Aggregate stored metadata — plaintext exists only inside the container."""
    per_device: dict = {}
    alerts = 0
    for key in kctx.store.list("queries/"):
        record = kctx.store.get_json(key, aad=b"queries")
        per_device[record["device"]] = per_device.get(record["device"], 0) + 1
    for _key in kctx.store.list("alerts/"):
        alerts += 1
    return json_response({
        "queries_per_device": dict(sorted(per_device.items())),
        "total_queries": sum(per_device.values()),
        "alert_count": alerts,
    })


IOT_SPEC = AppSpec(
    app_id="diy-iot",
    version="1.0.0",
    description="Smart-home controller: encrypted command relay, stats, alerts",
    functions=(
        KernelFunction(
            suffix="handler",
            routes=(
                RouteDecl("POST", "/iot/cmd", _cmd, name="cmd"),
                RouteDecl("POST", "/iot/alert", _alert, name="alert"),
                RouteDecl("POST", "/iot/telemetry", _telemetry, name="telemetry"),
                RouteDecl("PUT", "/iot/rules", _set_rules, name="rules"),
                RouteDecl("GET", "/iot/dashboard", _dashboard, name="dashboard"),
            ),
            timeout_ms=30_000,
            route_prefix="/iot",
            footprint_mb=IOT_FOOTPRINT_MB,
        ),
    ),
    store=StoreDecl(bucket="home", table="kv",
                    reason="encrypted query metadata and alerts"),
    permissions=(
        PermissionGrant(("sqs:SendMessage",),
                        "arn:diy:sqs:::{app}-device-*",
                        "relay encrypted commands to devices"),
        PermissionGrant(("sqs:SendMessage",),
                        "arn:diy:sqs:::{app}-alerts",
                        "notify the owner's alert feed"),
    ),
    queues=("alerts", "device-*"),
)


def iot_manifest(plan: Optional["DeploymentPlan"] = None) -> AppManifest:
    """Table 2's IoT row: 128 MB declared, ~100 requests/day."""
    return AppKernel(IOT_SPEC, plan).manifest()
