"""Integration tests for framed connections over real unix sockets.

Everything here runs an actual asyncio server in-process and talks to it
through the kernel's socket layer — no mocked transports — so partial
writes, torn frames, and connection cuts exercise the same code paths a
live swarm does. Framed peers come from ``listen``; a peer that must
misbehave below the framing (dribble, junk, a cut) is a raw stream server.
"""

import asyncio
import pathlib
import sys
import tempfile

import pytest

from repro.experiments.config import ExperimentConfig
from repro.net.connection import (
    ConnectionClosed,
    PeerConnection,
    listen,
    open_connection,
    parse_address,
)
from repro.net.framing import encode_frame
from repro.net.swarm import SwarmConfig, _Node, _Swarm


def test_parse_address_unix():
    assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")


def test_parse_address_tcp():
    assert parse_address("tcp:127.0.0.1:9000") == ("tcp", ("127.0.0.1", 9000))


@pytest.mark.parametrize("bad", ["", "udp:1:2", "unix:", "tcp:9000", "tcp:h"])
def test_parse_address_rejects(bad):
    with pytest.raises(ValueError):
        parse_address(bad)


def _socket_path(directory):
    return f"unix:{pathlib.Path(directory) / 'peer.sock'}"


async def _raw_server(address, handler):
    """A stream server writing raw bytes: the peer PeerConnection faces."""
    return await asyncio.start_unix_server(
        handler, path=parse_address(address)[1]
    )


async def _closed(server):
    server.close()
    await server.wait_closed()


def test_send_receive_over_unix_socket():
    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)

            async def echo(connection):
                message = await connection.receive()
                await connection.send({"echo": message})

            server = await listen(address, echo)
            client = await open_connection(address)
            await client.send({"type": "ping", "n": 1})
            reply = await client.receive()
            await client.close()
            await _closed(server)
            return reply

    assert asyncio.run(scenario()) == {"echo": {"type": "ping", "n": 1}}


def test_frame_split_across_writes_reassembles():
    """A frame dribbled out a few bytes per write still arrives whole."""

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)
            payload = {"type": "sync-batch", "frame": {"entries": list(range(50))}}

            async def dribble(reader, writer):
                data = encode_frame(payload)
                for i in range(0, len(data), 3):
                    writer.write(data[i:i + 3])
                    await writer.drain()
                    await asyncio.sleep(0)
                writer.close()

            server = await _raw_server(address, dribble)
            client = await open_connection(address)
            message = await client.receive()
            await client.close()
            await _closed(server)
            return message == payload

    assert asyncio.run(scenario())


def test_junk_on_wire_then_frame():
    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)

            async def noisy(reader, writer):
                writer.write(b"\x00garbage\xff" + encode_frame({"ok": True}))
                await writer.drain()
                writer.close()

            server = await _raw_server(address, noisy)
            client = await open_connection(address)
            message = await client.receive()
            junk = client.decoder.junk_bytes
            await client.close()
            await _closed(server)
            return message, junk

    message, junk = asyncio.run(scenario())
    assert message == {"ok": True}
    assert junk == len(b"\x00garbage\xff")


def test_connection_cut_mid_frame_flags_interruption():
    """EOF inside a frame raises ConnectionClosed with mid_frame set."""

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)

            async def cut(reader, writer):
                data = encode_frame({"type": "sync-batch", "big": "x" * 500})
                writer.write(data[: len(data) // 2])
                await writer.drain()
                writer.close()  # crash mid-transfer

            server = await _raw_server(address, cut)
            client = await open_connection(address)
            try:
                await client.receive()
            except ConnectionClosed as error:
                return error.mid_frame
            finally:
                await client.close()
                await _closed(server)
            return None

    assert asyncio.run(scenario()) is True


def test_clean_close_is_not_mid_frame():
    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)

            async def close_cleanly(connection):
                await connection.send({"bye": 1})

            server = await listen(address, close_cleanly)
            client = await open_connection(address)
            first = await client.receive()
            try:
                await client.receive()
            except ConnectionClosed as error:
                # The link is gone for writes too, not silently dropped.
                with pytest.raises(ConnectionClosed):
                    await client.send({"late": 1})
                return first, error.mid_frame
            finally:
                await client.close()
                await _closed(server)
            return first, None

    first, mid_frame = asyncio.run(scenario())
    assert first == {"bye": 1}
    assert mid_frame is False


def test_receive_timeout():
    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)
            release = asyncio.Event()

            async def silent(connection):
                await release.wait()

            server = await listen(address, silent)
            client = await open_connection(address, read_timeout=0.05)
            try:
                await client.receive()
            except asyncio.TimeoutError:
                # The timer is per receive(): the link itself still works.
                with pytest.raises(asyncio.TimeoutError):
                    await client.receive(timeout=0.01)
                return True
            finally:
                release.set()
                await client.close()
                await _closed(server)
            return False

    assert asyncio.run(scenario())


def test_large_frame_to_a_sleeping_reader_takes_the_pause_path(monkeypatch):
    """A multi-megabyte frame outruns the socket buffer: ``send`` must
    park on ``pause_writing`` and the frame must still arrive whole."""
    pauses = []
    pause_writing = PeerConnection.pause_writing

    def counting(connection):
        pauses.append(connection)
        pause_writing(connection)

    monkeypatch.setattr(PeerConnection, "pause_writing", counting)
    big = {"type": "sync-batch", "blob": "x" * (4 * 1024 * 1024)}

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)
            received = asyncio.get_running_loop().create_future()

            async def sleepy(connection):
                await asyncio.sleep(0.1)
                received.set_result(await connection.receive())

            server = await listen(address, sleepy)
            client = await open_connection(address)
            await client.send(big)
            message = await asyncio.wait_for(received, timeout=10.0)
            await client.close()
            await _closed(server)
            return message, client

    message, client = asyncio.run(scenario())
    assert message == big
    assert pauses == [client]


def test_two_frames_in_one_read_need_no_second_wait():
    """Frames that land in one ``data_received`` are handed out in order,
    the second without touching the loop again."""

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)

            async def burst(reader, writer):
                writer.write(encode_frame({"n": 1}) + encode_frame({"n": 2}))
                await writer.drain()
                await reader.read()  # hold the link open until the client goes
                writer.close()

            server = await _raw_server(address, burst)
            client = await open_connection(address)
            first = await client.receive()
            # Stepped by hand: the second receive() must finish without
            # ever suspending, i.e. without a future, a timer or a read.
            with pytest.raises(StopIteration) as finished:
                client.receive().send(None)
            second = finished.value.value
            await client.close()
            await _closed(server)
            return first, second

    assert asyncio.run(scenario()) == ({"n": 1}, {"n": 2})


def test_burst_and_torn_frames_through_the_buffered_reader(monkeypatch):
    """Socket reads land in the connection's kept buffer, which the next
    read overwrites: many frames arriving in one read, then one frame
    torn across three reads, are each handed out once, in order."""
    reads = []
    buffer_updated = PeerConnection.buffer_updated

    def counting(connection, nbytes):
        reads.append(nbytes)
        buffer_updated(connection, nbytes)

    monkeypatch.setattr(PeerConnection, "buffer_updated", counting)
    burst = [{"n": n} for n in range(200)]
    torn = {"type": "sync-batch", "blob": "x" * 1000}
    data = encode_frame(torn)
    pieces = [data[:5], data[5:400], data[400:]]  # mid-header, mid-payload

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)

            async def peer(reader, writer):
                for piece in [b"".join(map(encode_frame, burst)), *pieces]:
                    seen = len(reads)
                    writer.write(piece)
                    while len(reads) == seen:  # one write, one read
                        await asyncio.sleep(0.001)
                await reader.read()  # hold the link open until the client goes
                writer.close()

            server = await _raw_server(address, peer)
            client = await open_connection(address)
            received = [await client.receive() for _ in range(len(burst) + 1)]
            with pytest.raises(asyncio.TimeoutError):
                await client.receive(timeout=0.05)  # nothing arrived twice
            await client.close()
            await _closed(server)
            return received

    assert asyncio.run(scenario()) == [*burst, torn]
    assert reads == [sum(len(encode_frame(m)) for m in burst), *map(len, pieces)]


def test_swarm_fails_fast_on_a_serve_process_that_dies_while_booting(tmp_path):
    """The orchestrator checks the process and its startup deadline
    before every dial, not between runs of a long retry loop."""
    swarm = _Swarm(
        SwarmConfig(
            experiment=ExperimentConfig(scale=0.25),
            runtime_dir=str(tmp_path),
        )
    )

    async def scenario():
        node = _Node("dies", _socket_path(str(tmp_path)))
        node.process = await asyncio.create_subprocess_exec(
            sys.executable, "-c", "raise SystemExit(3)"
        )
        with pytest.raises(RuntimeError, match="exited with 3 during startup"):
            await asyncio.wait_for(swarm._connect(node), 10)
        await node.process.wait()
        never = _Node("never", _socket_path(str(tmp_path)))
        deadline = asyncio.get_running_loop().time() + 0.2
        with pytest.raises(RuntimeError, match="could not reach"):
            await asyncio.wait_for(swarm._connect(never, deadline), 10)

    asyncio.run(scenario())


# -- the read deadline --------------------------------------------------------
#
# A link keeps one read deadline, moved by every ``receive`` and watched
# by one timer handle that is re-armed only when it would fire too early
# or too late. Seen from outside it must time out exactly like a timer per
# receive: at the waiting call's own timeout, never at an earlier one's.


async def _stalling_peer(address, frames):
    """A framed peer that sends ``frames`` messages, then goes silent."""
    release = asyncio.Event()

    async def stall(connection):
        for n in range(frames):
            await connection.send({"n": n})
        await release.wait()

    return await listen(address, stall), release


async def _timed_out_after(client, timeout=None):
    """Seconds from a ``receive`` call to its ``TimeoutError``."""
    loop = asyncio.get_running_loop()
    started = loop.time()
    with pytest.raises(asyncio.TimeoutError):
        await client.receive(timeout)
    return loop.time() - started


def test_a_stalled_peer_times_out_after_read_timeout_from_this_receive():
    """The watchdog armed by an earlier receive fires before this one's
    deadline; it must follow the deadline on, not expire the wait."""

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)
            server, release = await _stalling_peer(address, frames=1)
            client = await open_connection(address, read_timeout=0.3)
            try:
                assert await client.receive() == {"n": 0}
                await asyncio.sleep(0.15)  # the old deadline is 0.15 s away
                return await _timed_out_after(client)
            finally:
                release.set()
                await client.close()
                await _closed(server)

    elapsed = asyncio.run(scenario())
    assert 0.3 - 0.01 <= elapsed < 1.0


def test_a_shorter_timeout_fires_on_time_under_a_longer_deadline():
    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)
            server, release = await _stalling_peer(address, frames=1)
            client = await open_connection(address, read_timeout=30.0)
            try:
                assert await client.receive() == {"n": 0}  # arms 30 s out
                short = await _timed_out_after(client, timeout=0.05)
                # And a longer one after it is not cut short by it.
                longer = await _timed_out_after(client, timeout=0.2)
                return short, longer
            finally:
                release.set()
                await client.close()
                await _closed(server)

    short, longer = asyncio.run(scenario())
    assert 0.05 - 0.01 <= short < 1.0
    assert 0.2 - 0.01 <= longer < 1.0


def test_receives_on_one_link_schedule_a_constant_number_of_timers():
    """10 000 waited-for frames, ping-pong on one link: one watchdog per
    link end, where a timer per receive scheduled 20 000."""
    rounds = 10_000

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)

            async def echo(connection):
                for _ in range(rounds):
                    await connection.send(await connection.receive())

            server = await listen(address, echo)
            client = await open_connection(address)
            loop = asyncio.get_running_loop()
            scheduled = []
            call_at = loop.call_at

            def counting(when, callback, *args, **kwargs):
                scheduled.append(callback)
                return call_at(when, callback, *args, **kwargs)

            loop.call_at = counting
            try:
                for n in range(rounds):
                    await client.send({"n": n})
                    assert await client.receive() == {"n": n}
            finally:
                del loop.call_at
            await client.close()
            await _closed(server)
            return scheduled

    scheduled = asyncio.run(scenario())
    assert len(scheduled) <= 2
