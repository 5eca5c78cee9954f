"""What a process loads: the app path imports no numpy and no fleet engine.

numpy and the fleet, replay and trace-reader engines cost a process
about 0.2 s and 15 MB before its first request, so only the processes
that run them may load them. Each test imports in a fresh interpreter,
where ``sys.modules`` starts empty.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.sim.replay import read_trace, write_trace
from repro.sim.scenarios import iot_fleet
from repro.sim.shard import FleetConfig, run_fleet_sharded

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Modules only a fleet, replay, SLO, advisor or analysis run needs.
FLEET_ONLY = (
    "repro.sim.shard", "repro.sim.scale", "repro.sim.fold", "repro.sim.vecmath",
    "repro.sim.workload", "repro.sim.replay", "repro.sim.scenarios",
    "repro.obs.slo", "repro.obs.export", "repro.core.advisor", "repro.analysis",
    "repro.baselines",
)

SMALL_FLEET = dict(tenants=120, daily_requests=8.0, days=1.0, seed=2017, logical_shards=4)


def _run(script: str):
    """Run ``script`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          timeout=120, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _loaded_after(module: str) -> list:
    return _run(f"""
        import json, sys
        import {module}
        print(json.dumps(sorted(sys.modules)))
    """)


@pytest.mark.parametrize("module", [
    "repro", "repro.apps.chat", "repro.apps.filetransfer", "repro.core.deployment",
])
def test_the_app_path_loads_no_numpy_and_no_fleet_engine(module):
    loaded = _loaded_after(module)
    assert module in loaded
    assert "numpy" not in loaded
    assert [name for name in loaded if name.startswith(FLEET_ONLY)] == []


def test_the_runtime_package_loads_no_kernel_module():
    loaded = _loaded_after("repro.runtime")
    assert "repro.runtime" in loaded
    kernel = ("repro.runtime.kernel", "repro.runtime.router", "repro.runtime.store",
              "repro.runtime.owner")
    assert [name for name in loaded if name in kernel] == []


@pytest.mark.parametrize("module", ["repro.sim.shard", "repro.sim.replay"])
def test_the_fleet_engines_load_numpy_at_import(module):
    loaded = _loaded_after(module)
    assert "numpy" in loaded and "numpy.random" in loaded


def test_every_path_runs_without_numpy(tmp_path):
    path = tmp_path / "iot.jsonl.gz"
    trace = iot_fleet(7)
    write_trace(path, trace)
    read = read_trace(path)
    without = _run(f"""
        import json, sys
        sys.modules["numpy"] = None
        from repro._optional import numpy_or_none
        from repro import CloudProvider
        from repro.apps.chat import ChatClient, ChatService, chat_manifest
        from repro.core.deployment import Deployer
        from repro.sim.replay import read_trace
        from repro.sim.shard import FleetConfig, run_fleet_sharded

        app = Deployer(CloudProvider(seed=1)).deploy(chat_manifest(), owner="alice")
        service = ChatService(app)
        service.create_room("room", ["alice@diy", "bob@diy"])
        alice, bob = ChatClient(service, "alice@diy"), ChatClient(service, "bob@diy")
        for client in (alice, bob):
            client.join("room")
            client.connect()
        alice.send("room", "hello")
        fleet = run_fleet_sharded(FleetConfig(**{SMALL_FLEET!r}), workers=1)
        read = read_trace({str(path)!r})
        print(json.dumps({{
            "switch": repr(numpy_or_none()),
            "received": [message.body for message in bob.poll()],
            "fleet": fleet.determinism_digest(),
            "trace": [read.digest(), len(read)],
            "numpy": "numpy" in sys.modules and sys.modules["numpy"] is not None,
        }}))
    """)
    assert without["switch"] == "None" and not without["numpy"]
    assert without["received"] == ["hello"]
    with_numpy = run_fleet_sharded(FleetConfig(**SMALL_FLEET), workers=1)
    assert without["fleet"] == json.loads(json.dumps(with_numpy.determinism_digest()))
    assert without["trace"] == [read.digest(), len(trace)]
