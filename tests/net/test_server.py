"""``repro serve`` at its control surface.

The ``status`` directive is asked of a real ``python -m repro serve``
process over its unix socket; the per-encounter knowledge guard is
exercised between two servers in one event loop, so the test can reach
in and regress a vector mid-encounter.
"""

import asyncio
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

import repro
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario
from repro.net.connection import ReconnectDialer
from repro.net.server import PROTOCOL_VERSION, NodeServer, ServeConfig
from repro.replication.errors import SyncProtocolError
from repro.replication.ids import ReplicaId, Version
from repro.replication.versions import VersionVector

EXPERIMENT = ExperimentConfig(scale=0.25, policy="epidemic")

#: The ``summary`` block of the status document (docs/protocol.md §9.4).
STATUS_SUMMARY_KEYS = {
    "node",
    "sim_now",
    "stored_items",
    "delivered_messages",
    "encounters",
    "evictions",
    "protocol",
}


async def _control(name, address):
    """Dial a node's control channel and exchange hellos."""
    # The dialer's own paced retries (~35 s in all) cover interpreter
    # start-up of the process under test.
    dialer = ReconnectDialer(max_attempts=60, read_timeout=10.0)
    control = await dialer.dial(name, address)
    await control.send(
        {"type": "hello", "node": "test", "protocol": PROTOCOL_VERSION}
    )
    hello = await control.receive()
    assert hello == {
        "type": "hello", "node": name, "protocol": PROTOCOL_VERSION,
    }
    return control


def test_status_directive_of_a_live_serve_process():
    name = sorted(build_scenario(EXPERIMENT).nodes)[0]
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        config_path = pathlib.Path(tmp) / "experiment.json"
        config_path.write_text(json.dumps(EXPERIMENT.to_dict()))
        address = f"unix:{pathlib.Path(tmp) / 'node.sock'}"
        package_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--node", name,
                "--listen", address,
                "--config", str(config_path),
            ],
            env={**os.environ, "PYTHONPATH": package_root},
            stderr=subprocess.DEVNULL,
        )

        async def scenario():
            control = await _control(name, address)
            try:
                await control.send({"type": "status"})
                status = await control.receive()
                await control.send({"type": "shutdown", "persist": False})
                await control.receive()
            finally:
                await control.close()
            return status

        try:
            status = asyncio.run(scenario())
            assert process.wait(timeout=10.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

    assert status["type"] == "status-ok", status
    document = status["document"]
    assert document["kind"] == "serve"
    assert document["label"] == EXPERIMENT.label()
    summary = document["summary"]
    assert set(summary) == STATUS_SUMMARY_KEYS
    assert summary["node"] == name
    assert summary["protocol"] == PROTOCOL_VERSION
    assert summary["delivered_messages"] == 0
    assert summary["stored_items"] == 0


def test_regressed_knowledge_fails_a_live_encounter(monkeypatch):
    first, second = sorted(build_scenario(EXPERIMENT).nodes)[:2]

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            servers = {}
            for name in (first, second):
                servers[name] = NodeServer(
                    ServeConfig(
                        node=name,
                        listen=f"unix:{pathlib.Path(tmp) / (name + '.sock')}",
                        experiment=EXPERIMENT,
                    )
                )
                await servers[name].start()
            initiator = servers[first]
            # A version nobody stores: the peer cannot sync it back, so
            # forgetting it mid-encounter stays a regression.
            initiator.node.replica.knowledge.add(
                Version(ReplicaId("elsewhere"), 3)
            )

            def forget_everything(context):
                initiator.node.replica.knowledge = VersionVector.empty()

            monkeypatch.setattr(
                initiator.node.policy, "on_encounter_start", forget_everything
            )
            try:
                with pytest.raises(
                    SyncProtocolError,
                    match=f"{first!r} regressed during a live encounter",
                ):
                    await initiator._coordinate_encounter(
                        peer=second,
                        address=servers[second].config.listen,
                        time=1.0,
                        budget=None,
                    )
                assert initiator.encounters == 0
            finally:
                for server in servers.values():
                    server._server.close()
                    await server._server.wait_closed()

    asyncio.run(scenario())
