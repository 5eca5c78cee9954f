"""Simulated IoT devices.

The paper assumes real devices on the user's home network; the
substitute is a device object that long-polls its encrypted command
queue (as a device zone — it holds the home's key, like a provisioned
smart-home hub), applies state changes, and raises alerts back through
the controller endpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro import tcb
from repro.cloud.iam import Principal
from repro.core.app import DIYApp
from repro.crypto.envelope import EnvelopeEncryptor
from repro.units import seconds

__all__ = ["SimulatedDevice"]


@dataclass
class SimulatedDevice:
    """One smart-home device bound to a deployed IoT app."""

    app: DIYApp
    device_id: str
    state: Dict[str, object] = field(default_factory=dict)
    applied_commands: List[dict] = field(default_factory=list)

    def __post_init__(self):
        self._principal = Principal(f"device:{self.device_id}", None)
        self.command_queue = self.app.queue(f"device-{self.device_id}")

    def _encryptor(self) -> EnvelopeEncryptor:
        provider = self.app.provider.kms.key_provider(self._principal, self.app.key_id)
        return EnvelopeEncryptor(provider)

    def poll_commands(self, wait_seconds: float = 5.0) -> List[dict]:
        """Long-poll the command queue, decrypt, and apply commands."""
        sqs = self.app.provider.sqs
        messages = sqs.receive_messages(
            self._principal, self.command_queue, wait_micros=seconds(wait_seconds)
        )
        applied: List[dict] = []
        for message in messages:
            with tcb.zone(tcb.Zone.CLIENT, f"device:{self.device_id}"):
                command = json.loads(
                    self._encryptor().decrypt_bytes(message.body, aad=b"command")
                )
            self._apply(command)
            applied.append(command)
            sqs.delete_message(self._principal, self.command_queue, message.message_id)
        return applied

    def report_telemetry(self, **metrics) -> list:
        """Push a metrics reading to the controller; returns fired alerts."""
        import json as _json

        from repro.core.client import open_channel
        from repro.net.http import HttpRequest

        channel = getattr(self, "_channel", None)
        if channel is None:
            channel = open_channel(self.app.provider, f"device:{self.device_id}")
            self._channel = channel
        response = channel.request(HttpRequest(
            "POST", f"/{self.app.instance_name}/iot/telemetry", {},
            _json.dumps({"device": self.device_id, "metrics": metrics}).encode(),
        ))
        return _json.loads(response.body).get("alerts_fired", [])

    def _apply(self, command: dict) -> None:
        action = command.get("action", "")
        if action == "set":
            self.state.update(command.get("values", {}))
        elif action == "toggle":
            key = command.get("key", "power")
            self.state[key] = not self.state.get(key, False)
        self.applied_commands.append(command)
