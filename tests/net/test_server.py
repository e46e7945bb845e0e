"""``repro serve`` at its control surface.

The ``status`` directive is asked of a real ``python -m repro serve``
process over its unix socket; the per-encounter knowledge guard is
exercised between two servers in one event loop, so the test can reach
in and regress a vector mid-encounter. The same two-server fixture pins
the reply shapes the frozen bench driver and ``docs/protocol.md`` §9
rely on, and a fake peer that closes or stalls mid-encounter checks the
failure stays on the dialed link.
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
from repro.net.framing import FrameDecoder, encode_frame
from repro.replication.codec import decode_item_id
from repro.net.server import PROTOCOL_VERSION, NodeServer, ServeConfig
from repro.replication.errors import SyncProtocolError
from repro.replication.ids import ReplicaId, Version
from repro.replication.integrity import ProtocolViolation
from repro.replication.sync import SyncStats
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


async def _start_server(tmp, name, **options):
    server = NodeServer(
        ServeConfig(
            node=name,
            listen=f"unix:{pathlib.Path(tmp) / (name + '.sock')}",
            experiment=EXPERIMENT,
            **options,
        )
    )
    await server.start()
    return server


async def _stop_listening(*servers):
    for server in servers:
        server.close()
        await server.wait_closed()


def test_regressed_knowledge_fails_a_live_encounter(monkeypatch):
    first, second = sorted(build_scenario(EXPERIMENT).nodes)[:2]

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            servers = {
                name: await _start_server(tmp, name) for name in (first, second)
            }
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
                await _stop_listening(*(s._server for s in servers.values()))

    asyncio.run(scenario())


def test_reply_shapes_the_bench_driver_and_protocol_doc_rely_on():
    """docs/protocol.md §9.2–9.4, as the frozen ``bench/`` reads them."""
    first, second = sorted(build_scenario(EXPERIMENT).nodes)[:2]

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            servers = [await _start_server(tmp, n) for n in (first, second)]
            # ``_control`` asserts the hello echo: type, node, protocol.
            control = await _control(first, servers[0].config.listen)
            try:
                await control.send(
                    {
                        "type": "inject", "time": 1.0, "source": first,
                        "destination": second, "body": "m0",
                    }
                )
                injected = await control.receive()
                await control.send(
                    {
                        "type": "encounter", "time": 2.0, "peer": second,
                        "address": servers[1].config.listen, "budget": None,
                    }
                )
                return injected, await control.receive()
            finally:
                await control.close()
                await _stop_listening(*(s._server for s in servers))

    injected, encounter = asyncio.run(scenario())
    assert injected["type"] == "inject-ok", injected
    assert decode_item_id(injected["message_id"]).origin.name == first
    assert injected["deliveries"] == []
    assert encounter["type"] == "encounter-ok", encounter
    assert {"syncs", "deliveries"} <= set(encounter)
    wire_fields = {"source", "target", "violations", *SyncStats._COUNTER_FIELDS}
    assert [set(sync) for sync in encounter["syncs"]] == [wire_fields] * 2
    to_peer, from_peer = encounter["syncs"]
    assert (to_peer["source"], to_peer["target"]) == (first, second)
    assert (from_peer["source"], from_peer["target"]) == (second, first)
    # The item moved (and was counted), yet did not ride back in the stats;
    # a sync that moved nothing still spells out its zeros.
    assert to_peer["sent_total"] == to_peer["received_total"] == 1
    assert from_peer["sent_total"] == 0 and from_peer["violations"] == []


def test_sync_stats_round_trip_on_every_wire_field():
    stats = SyncStats(
        source=ReplicaId("a"),
        target=ReplicaId("b"),
        interrupted=True,
        violations=[
            ProtocolViolation(
                kind="checksum-mismatch", peer="a", observer="b", detail="x"
            )
        ],
    )
    for number, name in enumerate(SyncStats._COUNTER_FIELDS):
        if not isinstance(getattr(stats, name), bool):
            setattr(stats, name, number + 1)
    wire = stats.to_dict()
    restored = SyncStats.from_dict(wire)
    assert restored.to_dict() == wire
    assert restored.source == stats.source and restored.target == stats.target
    assert restored.violations == stats.violations
    for name in SyncStats._COUNTER_FIELDS:
        assert getattr(restored, name) == getattr(stats, name), name


@pytest.mark.parametrize("fate", ["closes", "stalls"])
def test_peer_failing_mid_encounter_leaves_the_control_channel_up(fate):
    """A peer that answers ``hello``, takes ``encounter-open`` and then
    closes cleanly — or goes silent past ``read_timeout`` — fails the
    *dialed* link. The initiator owes its orchestrator an ``error``
    reply, not a hang-up."""
    first, second = sorted(build_scenario(EXPERIMENT).nodes)[:2]

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            released = asyncio.Event()

            async def fake_peer(reader, writer):
                decoder = FrameDecoder()
                for reply in (
                    {"type": "hello", "node": second, "protocol": 1}, None,
                ):
                    while not decoder.feed(await reader.read(65536)):
                        pass
                    if reply is not None:
                        writer.write(encode_frame(reply))
                if fate == "stalls":
                    await released.wait()
                writer.close()

            peer_path = str(pathlib.Path(tmp) / "peer.sock")
            peer = await asyncio.start_unix_server(fake_peer, path=peer_path)
            server = await _start_server(tmp, first, read_timeout=0.2)
            control = await _control(first, server.config.listen)
            try:
                await control.send(
                    {
                        "type": "encounter", "time": 1.0, "peer": second,
                        "address": f"unix:{peer_path}", "budget": None,
                    }
                )
                reply = await control.receive()
                await control.send({"type": "status"})
                return reply, await control.receive()
            finally:
                released.set()
                await control.close()
                await _stop_listening(server._server, peer)

    reply, status = asyncio.run(scenario())
    assert reply["type"] == "error", reply
    expected = "ConnectionClosed" if fate == "closes" else "TimeoutError"
    assert expected in reply["error"]
    assert status["type"] == "status-ok", status
    assert status["document"]["summary"]["encounters"] == 0


def test_a_hello_of_another_protocol_is_refused_by_both_ends():
    """docs/protocol.md §9.2: ``protocol`` is compared. The listening side
    answers a typed error and drops that connection only; the dialing
    side fails the ``encounter`` directive with ``SyncProtocolError``."""
    first, second = sorted(build_scenario(EXPERIMENT).nodes)[:2]
    newer = PROTOCOL_VERSION + 1

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:

            async def newer_peer(reader, writer):
                decoder = FrameDecoder()
                while not decoder.feed(await reader.read(65536)):
                    pass
                writer.write(
                    encode_frame(
                        {"type": "hello", "node": second, "protocol": newer}
                    )
                )
                await reader.read(65536)  # the dialer hangs up
                writer.close()

            peer_path = str(pathlib.Path(tmp) / "peer.sock")
            peer = await asyncio.start_unix_server(newer_peer, path=peer_path)
            server = await _start_server(tmp, first)
            address = server.config.listen
            stranger = await ReconnectDialer(read_timeout=10.0).dial(first, address)
            try:
                await stranger.send(
                    {"type": "hello", "node": "test", "protocol": newer}
                )
                refused = await stranger.receive()
                with pytest.raises(ConnectionError):
                    await stranger.receive()
            finally:
                await stranger.close()
            # The server keeps serving: a correct hello on a new connection.
            control = await _control(first, address)
            try:
                await control.send(
                    {
                        "type": "encounter", "time": 1.0, "peer": second,
                        "address": f"unix:{peer_path}", "budget": None,
                    }
                )
                dialed = await control.receive()
                await control.send({"type": "status"})
                return refused, dialed, await control.receive()
            finally:
                await control.close()
                await _stop_listening(server._server, peer)

    refused, dialed, status = asyncio.run(scenario())
    assert refused["type"] == "error", refused
    assert f"protocol {newer}" in refused["error"]
    assert dialed["type"] == "error", dialed
    assert "SyncProtocolError" in dialed["error"]
    assert f"protocol {newer}" in dialed["error"]
    assert status["type"] == "status-ok", status
    assert status["document"]["summary"]["encounters"] == 0
