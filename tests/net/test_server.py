"""``repro serve`` at its control surface.

The ``status`` directive is asked of a real ``python -m repro serve``
process over its unix socket; the per-encounter knowledge guard is
exercised between two servers in one event loop, so the test can reach
in and regress a vector mid-encounter. The same two-server fixture pins
the reply shapes the frozen bench driver and ``docs/protocol.md`` §9
rely on, the order each node's policy hooks fire in against the
emulator's, and the life of the links a node keeps to the peers it
dialed: one dial per peer, a spare for an encounter that overlaps
another, a fresh one after the peer was replaced or an encounter failed
— a fake peer that closes, stalls or answers ``error`` mid-encounter
checks the failure stays on the dialed link — and none left open at
shutdown. A ``snapshot`` many socket writes long decodes to the node's
fixed point — the one cut before its first byte, even when a copy is
stored while its write waits on backpressure — and answering it costs a
fraction of its frame in heap.
"""

import asyncio
import gc
import json
import os
import pathlib
import socket
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import pytest

import repro
from repro.experiments.config import ExperimentConfig
from repro.experiments.parity import replica_fixed_point
from repro.experiments.scenario import build_scenario
from repro.net.connection import PeerConnection, open_connection
from repro.net.framing import (
    HEADER_SIZE,
    PIECE_BYTES,
    FrameDecoder,
    encode_frame,
    frame_text,
)
from repro.replication.codec import decode_item_id
from repro.net.server import PROTOCOL_VERSION, NodeServer, ServeConfig
from repro.replication.errors import SyncProtocolError
from repro.replication.session import EncounterSession
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
    "peer_links",
    "dials",
    "peak_rss_mb",
}


async def _dial(address):
    """Dial ``address``, waiting up to 35 s for the node to bind it: that
    covers interpreter start-up of a process under test."""
    deadline = asyncio.get_running_loop().time() + 35.0
    while True:
        try:
            return await open_connection(address, read_timeout=10.0)
        except OSError:
            if asyncio.get_running_loop().time() > deadline:
                raise
            await asyncio.sleep(0.05)


async def _control(name, address):
    """Dial a node's control channel and exchange hellos."""
    control = await _dial(address)
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
    # What the node weighs, from inside: an interpreter is tens of MB.
    assert 10.0 < summary["peak_rss_mb"] < 10_000.0


async def _start_server(tmp, name, **options):
    options.setdefault("experiment", EXPERIMENT)
    server = NodeServer(
        ServeConfig(
            node=name,
            listen=f"unix:{pathlib.Path(tmp) / (name + '.sock')}",
            **options,
        )
    )
    await server.start()
    return server


def _spawn_serve(tmp, name, *interpreter_flags):
    """A real ``python -m repro serve`` for ``name``, listening under ``tmp``."""
    config_path = pathlib.Path(tmp) / "experiment.json"
    config_path.write_text(json.dumps(EXPERIMENT.to_dict()))
    socket_path = pathlib.Path(tmp) / f"{name}.sock"
    socket_path.unlink(missing_ok=True)  # a killed process leaves it behind
    package_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    return subprocess.Popen(
        [
            sys.executable, *interpreter_flags, "-m", "repro", "serve",
            "--node", name,
            "--listen", f"unix:{socket_path}",
            "--config", str(config_path),
        ],
        env={**os.environ, "PYTHONPATH": package_root},
        stderr=subprocess.PIPE,
    )


async def _directive(control, **message):
    await control.send(message)
    return await control.receive()


async def _encounter(control, peer, address, time):
    return await _directive(
        control, type="encounter", time=time, peer=peer, address=address,
        budget=None,
    )


async def _summary(control):
    status = await _directive(control, type="status")
    assert status["type"] == "status-ok", status
    return status["document"]["summary"]


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
                for server in servers.values():
                    await server.close()

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
                for server in servers:
                    await server.close()

    injected, encounter = asyncio.run(scenario())
    assert injected["type"] == "inject-ok", injected
    assert decode_item_id(injected["message_id"]).origin.name == first
    assert injected["deliveries"] == []
    # No storage limit: nothing evicted, and the count says so.
    assert injected["evictions"] == 0
    assert encounter["type"] == "encounter-ok", encounter
    assert {"syncs", "deliveries", "evictions"} <= set(encounter)
    assert encounter["evictions"] == 0
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


@pytest.mark.parametrize("fate", ["closes", "stalls", "errors"])
def test_peer_failing_mid_encounter_leaves_the_control_channel_up(fate):
    """A peer that answers ``hello``, takes ``encounter-open`` and then
    closes cleanly — or goes silent past ``read_timeout``, or answers
    ``error`` and stays — fails the *dialed* link. The initiator owes its
    orchestrator an ``error`` reply, not a hang-up, and the failure costs
    the link: the next encounter dials again."""
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
                if fate == "errors":
                    writer.write(encode_frame({"type": "error", "error": "no"}))
                if fate != "closes":
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
                status = await control.receive()
                await _encounter(control, second, f"unix:{peer_path}", 2.0)
                return reply, status, await _summary(control)
            finally:
                released.set()
                await control.close()
                await server.close()
                await _stop_listening(peer)

    reply, status, later = asyncio.run(scenario())
    assert reply["type"] == "error", reply
    expected = {
        "closes": "ConnectionClosed",
        "stalls": "TimeoutError",
        "errors": "SyncProtocolError: peer reported: 'no'",
    }[fate]
    assert expected in reply["error"]
    assert status["type"] == "status-ok", status
    summary = status["document"]["summary"]
    assert summary["encounters"] == 0
    assert (summary["dials"], summary["peer_links"]) == (1, 0)
    assert (later["dials"], later["peer_links"], later["encounters"]) == (2, 0, 0)


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
            stranger = await _dial(address)
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
                await server.close()
                await _stop_listening(peer)

    refused, dialed, status = asyncio.run(scenario())
    assert refused["type"] == "error", refused
    assert f"protocol {newer}" in refused["error"]
    assert dialed["type"] == "error", dialed
    assert "SyncProtocolError" in dialed["error"]
    assert f"protocol {newer}" in dialed["error"]
    assert status["type"] == "status-ok", status
    assert status["document"]["summary"]["encounters"] == 0


HOOKS = (
    "on_encounter_start", "generate_req", "process_req", "to_send",
    "prepare_outgoing", "on_items_sent",
)


def _record_hooks(node, log):
    """Append ``(node, hook)`` to ``log`` whenever the sync flow calls one."""
    for hook in HOOKS:
        def recording(*args, _inner=getattr(node.policy, hook), _hook=hook):
            log.append((node.name, _hook))
            return _inner(*args)

        setattr(node.policy, hook, recording)


def test_each_node_fires_its_hooks_in_the_emulators_order():
    """docs/protocol.md §9.3: the six-frame sequence fires every hook at
    the same point relative to every other hook *of the same node* as
    ``EncounterSession.run()`` — with one transposition, the initiator's
    ``generate_req`` ahead of its own ``on_items_sent``. PROPHET moves
    routing state in ``process_req`` and ships it from ``generate_req``:
    a sequence that builds the second request before the first sync's
    ``process_req`` (on ``encounter-open``, say) diverges from the
    emulator, and fails here."""
    experiment = ExperimentConfig(scale=0.25, policy="prophet")
    first, second, third = sorted(build_scenario(experiment).nodes)[:3]

    def prepare(nodes):
        """Load both stores, then log the two nodes' hooks into one list."""
        log = []
        for node, peer in ((nodes[first], second), (nodes[second], first)):
            # Per sync one item the target's filter matches and one it
            # does not, so every per-item hook has something to fire on.
            node.send(node.name, peer, "m", now=1.0)
            node.send(node.name, third, "m", now=1.0)
            _record_hooks(node, log)
        return log

    nodes = build_scenario(experiment).nodes
    emulated = prepare(nodes)
    EncounterSession(
        first=nodes[first].endpoint, second=nodes[second].endpoint, now=2.0
    ).run()

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            servers = {
                name: await _start_server(tmp, name, experiment=experiment)
                for name in (first, second)
            }
            log = prepare({name: s.node for name, s in servers.items()})
            try:
                await servers[first]._coordinate_encounter(
                    peer=second, address=servers[second].config.listen,
                    time=2.0, budget=None,
                )
            finally:
                for server in servers.values():
                    await server.close()
            return log

    def hooks_of(log, name):
        return [hook for node, hook in log if node == name]

    live = asyncio.run(scenario())
    for name in (first, second):
        assert set(hooks_of(emulated, name)) == set(HOOKS)
    assert hooks_of(live, second) == hooks_of(emulated, second)
    expected = hooks_of(emulated, first)
    assert expected[-2:] == ["on_items_sent", "generate_req"]
    expected[-2:] = ["generate_req", "on_items_sent"]
    assert hooks_of(live, first) == expected


def test_encounters_with_one_peer_share_one_dial_per_direction():
    first, second = sorted(build_scenario(EXPERIMENT).nodes)[:2]

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            servers = [await _start_server(tmp, n) for n in (first, second)]
            addresses = [server.config.listen for server in servers]
            controls = [
                await _control(name, address)
                for name, address in zip((first, second), addresses)
            ]
            try:
                plan = [(controls[0], second, addresses[1])] * 5
                plan += [(controls[1], first, addresses[0])] * 2
                for step, (control, peer, address) in enumerate(plan):
                    reply = await _encounter(control, peer, address, float(step))
                    assert reply["type"] == "encounter-ok", reply
                return [await _summary(control) for control in controls]
            finally:
                for closing in (*controls, *servers):
                    await closing.close()

    for summary in asyncio.run(scenario()):
        # A→B and B→A are two links: each node dialed once, for all of its.
        assert (summary["dials"], summary["peer_links"]) == (1, 1)
        assert summary["encounters"] == 7


def test_overlapping_encounters_with_one_peer_never_share_a_link():
    """A link carries one §9.3 sequence at a time. Two ``encounter``
    directives for one peer, in flight at once over two control channels,
    each get a link of their own — as when every encounter dialed — and
    one of the two is kept for the encounters that follow."""
    first, second = sorted(build_scenario(EXPERIMENT).nodes)[:2]

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            servers = [await _start_server(tmp, n) for n in (first, second)]
            address = servers[1].config.listen
            controls = [
                await _control(first, servers[0].config.listen) for _ in range(2)
            ]
            try:
                replies = [await _encounter(controls[0], second, address, 0.0)]
                # With a link kept: both directives are written before either
                # is answered, so both encounters want it at once.
                replies += await asyncio.wait_for(
                    asyncio.gather(
                        *(_encounter(c, second, address, 1.0) for c in controls)
                    ),
                    timeout=10.0,
                )
                overlapped = await _summary(controls[0])
                replies.append(await _encounter(controls[1], second, address, 2.0))
                return replies, overlapped, await _summary(controls[0])
            finally:
                for closing in (*controls, *servers):
                    await closing.close()

    replies, overlapped, later = asyncio.run(scenario())
    assert [reply["type"] for reply in replies] == ["encounter-ok"] * 4, replies
    # One took the kept link, the other dialed; one of the two was kept.
    assert (overlapped["dials"], overlapped["peer_links"]) == (2, 1)
    assert (later["dials"], later["peer_links"], later["encounters"]) == (2, 1, 4)


def test_a_peer_killed_and_replaced_on_its_address_is_redialed():
    first, second = sorted(build_scenario(EXPERIMENT).nodes)[:2]

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            server = await _start_server(tmp, first)
            address = f"unix:{pathlib.Path(tmp) / (second + '.sock')}"
            control = await _control(first, server.config.listen)
            process = None
            try:
                for incarnation in range(2):
                    process = _spawn_serve(tmp, second)
                    # Up once it greets; the dialer rides out its start-up.
                    await (await _control(second, address)).close()
                    for step in range(3):
                        reply = await _encounter(
                            control, second, address, float(3 * incarnation + step)
                        )
                        assert reply["type"] == "encounter-ok", reply
                    process.kill()
                    process.communicate()
                    # One loop pass reads the dead link's EOF before ``status``
                    # (or the next dial) is even written, whatever order the
                    # selector reports ready descriptors in.
                    await asyncio.sleep(0)
                return await _summary(control)
            finally:
                if process is not None and process.poll() is None:
                    process.kill()
                    process.communicate()
                await control.close()
                await server.close()

    summary = asyncio.run(scenario())
    assert summary["encounters"] == 6
    # One dial per incarnation; the second one's link died with it.
    assert (summary["dials"], summary["peer_links"]) == (2, 0)


def test_shutdown_with_links_open_in_both_directions_is_clean():
    """Each process holds a link it dialed and one the other dialed. Both
    exit 0 on ``shutdown`` and, in dev mode, report nothing unclosed."""
    first, second = sorted(build_scenario(EXPERIMENT).nodes)[:2]
    flags = ("-X", "dev", "-W", "error::ResourceWarning")

    async def scenario(tmp):
        addresses = {
            name: f"unix:{pathlib.Path(tmp) / (name + '.sock')}"
            for name in (first, second)
        }
        controls = {
            name: await _control(name, address)
            for name, address in addresses.items()
        }
        try:
            for name, peer in ((first, second), (second, first)):
                reply = await _encounter(controls[name], peer, addresses[peer], 1.0)
                assert reply["type"] == "encounter-ok", reply
                assert (await _summary(controls[name]))["peer_links"] == 1
            for control in controls.values():
                reply = await _directive(control, type="shutdown", persist=False)
                assert reply["type"] == "shutdown-ok", reply
        finally:
            for control in controls.values():
                await control.close()

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        processes = [_spawn_serve(tmp, name, *flags) for name in (first, second)]
        try:
            asyncio.run(scenario(tmp))
            outcomes = [process.communicate(timeout=10.0) for process in processes]
        finally:
            for process in processes:
                if process.poll() is None:
                    process.kill()
                    process.communicate()
    for process, (_, stderr) in zip(processes, outcomes):
        assert process.returncode == 0
        assert b"Warning" not in stderr and b"Exception" not in stderr, stderr


# -- the snapshot reply ---------------------------------------------------------


async def _stored_server(tmp, copies):
    """A node holding ``copies`` messages it authored for a peer."""
    first, second = sorted(build_scenario(EXPERIMENT).nodes)[:2]
    server = await _start_server(tmp, first)
    for serial in range(copies):
        reply = server._handle_directive(
            "inject",
            {
                "time": float(serial), "source": first,
                "destination": second, "body": f"message {serial} " * 4,
            },
        )
        assert reply["type"] == "inject-ok", reply
    return server


def _snapshot_of(replica):
    """The ``snapshot-ok`` reply for ``replica``: its fixed point, and the
    ids of its non-deleted copies in item-id order."""
    return {
        "type": "snapshot-ok",
        "fixed_point": replica_fixed_point(replica),
        "held": [
            str(item_id)
            for item_id in sorted(
                item.item_id for item in replica.stored_items() if not item.deleted
            )
        ],
    }


def test_a_snapshot_over_a_socket_is_the_fixed_point_and_held_ids():
    """Large enough to be written in many pieces and to back the
    transport up: the reply still decodes to what the node holds."""

    async def scenario(tmp):
        server = await _stored_server(tmp, 2_000)
        control = await _control(server.name, server.config.listen)
        try:
            await control.send({"type": "snapshot"})
            reply = await control.receive()
            await control.send({"type": "status"})
            status = await control.receive()  # the link is still in step
        finally:
            await control.close()
            await server.close()
        joined = b"".join(frame_text(server._snapshot()))
        return reply, status, _snapshot_of(server.node.replica), joined

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        reply, status, expected, joined = asyncio.run(scenario(tmp))
    assert len(joined) > 4 * PIECE_BYTES
    assert reply == expected
    assert len(reply["held"]) == 2_000
    assert status["type"] == "status-ok"
    # The written frame is the one-shot frame of what it decodes to.
    assert FrameDecoder().feed(joined) == [reply]
    assert joined == encode_frame(reply)


def _read_exactly(raw, size):
    data = bytearray()
    while len(data) < size:
        read = raw.recv(size - len(data))
        assert read, "the node closed mid-reply"
        data += read
    return bytes(data)


def _snapshot_across(address, started, injected):
    """Ask for a ``snapshot`` on a raw socket, read its header, signal
    ``started``; read the rest only once ``injected`` is set."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
        raw.settimeout(30.0)
        raw.connect(address)
        raw.sendall(encode_frame({"type": "hello", "protocol": PROTOCOL_VERSION}))
        decoder = FrameDecoder()
        while not decoder.feed(raw.recv(4096)):
            pass
        raw.sendall(encode_frame({"type": "snapshot"}))
        header = _read_exactly(raw, HEADER_SIZE)
        started.set()
        assert injected.wait(30.0)
        length = int.from_bytes(header[-4:], "big")
        return FrameDecoder().feed(header + _read_exactly(raw, length))


def test_a_copy_stored_while_a_snapshot_waits_is_not_in_it(monkeypatch):
    """The reply is the cut taken before its first byte: an ``inject``
    answered on a second link while the write waits on backpressure
    neither tears the frame nor changes its length or content."""
    paused = []
    pause = PeerConnection.pause_writing

    def recorded_pause(connection):
        paused.append(True)
        pause(connection)

    monkeypatch.setattr(PeerConnection, "pause_writing", recorded_pause)

    async def scenario(tmp):
        server = await _stored_server(tmp, 3_000)
        before = _snapshot_of(server.node.replica)
        started, injected = threading.Event(), threading.Event()
        loop = asyncio.get_running_loop()
        reader = loop.run_in_executor(
            None, _snapshot_across, server.config.listen[len("unix:"):],
            started, injected,
        )
        control = await _control(server.name, server.config.listen)
        try:
            assert await loop.run_in_executor(None, started.wait, 30.0)
            while not paused:  # the writer is waiting on the transport
                await asyncio.sleep(0.01)
            reply = await _directive(
                control, type="inject", time=1e6, source=server.name,
                destination=sorted(build_scenario(EXPERIMENT).nodes)[1],
                body="stored mid-reply",
            )
            assert reply["type"] == "inject-ok", reply
            injected.set()
            messages = await reader
        finally:
            injected.set()
            await control.close()
            await server.close()
        return before, messages, _snapshot_of(server.node.replica)

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        before, messages, after = asyncio.run(scenario(tmp))
    assert messages == [before]
    assert len(after["held"]) == len(before["held"]) + 1
    assert after["fixed_point"] != before["fixed_point"]


def _drain(address, request, length):
    """Send ``request`` on a raw socket after the hello; read ``length``
    reply bytes into one reused buffer, allocating nothing per read."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
        raw.settimeout(30.0)
        raw.connect(address)
        raw.sendall(encode_frame({"type": "hello", "protocol": PROTOCOL_VERSION}))
        decoder = FrameDecoder()
        while not decoder.feed(raw.recv(4096)):
            pass
        raw.sendall(encode_frame(request))
        buffer = bytearray(64 * 1024)
        while length:
            read = raw.recv_into(buffer)
            assert read, "the node closed mid-reply"
            length -= read


def test_answering_a_snapshot_holds_no_whole_frame():
    """The whole heap peak of a node answering ``snapshot``, as a share
    of the frame it writes (about 1 s)."""

    async def scenario(tmp):
        server = await _stored_server(tmp, 3_000)
        try:
            length = len(encode_frame(_snapshot_of(server.node.replica)))
            gc.collect()
            tracemalloc.start(1)
            try:
                before = tracemalloc.get_traced_memory()[0]
                await asyncio.get_running_loop().run_in_executor(
                    None, _drain, server.config.listen[len("unix:"):],
                    {"type": "snapshot"}, length,
                )
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        finally:
            await server.close()
        return peak / length, length

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        share, length = asyncio.run(scenario(tmp))
    assert length > 4 * PIECE_BYTES
    # About 0.5: the cut's sorted lists, the piece being encoded, the one
    # before it and what the transport buffers up to its high-water mark.
    # A fixed point built whole before it is written reads 1.8
    # (docs/performance.md §19).
    assert share <= 0.75, share
