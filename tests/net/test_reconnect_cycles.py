"""ReconnectDialer across repeated server crash-restart cycles.

The live-swarm analogue of the crash/rejoin lifecycle: a ``repro serve``
process dies, its unix socket vanishes, the process respawns on the same
path. The dialer must ride through any number of such cycles — absorbing
the refused dials while the peer is down, reconnecting as soon as it is
back — with the shared peer-health tracker keeping score the whole time.
"""

import asyncio
import pathlib
import tempfile

import pytest

from repro.net.connection import ReconnectDialer, listen
from repro.replication.peer_health import PeerHealthTracker


class CrashRestartServer:
    """An echo server that can be killed and respawned on one socket path."""

    def __init__(self, path):
        self.path = path
        self.server = None
        self.accepted = 0

    async def _handle(self, connection):
        self.accepted += 1
        message = await connection.receive()
        await connection.send({"echo": message})

    async def start(self):
        # A respawned process rebinds the same path; stale socket files
        # from the crashed incarnation must not block it.
        pathlib.Path(self.path).unlink(missing_ok=True)
        self.server = await listen(f"unix:{self.path}", self._handle)

    async def crash(self):
        """Die abruptly: stop accepting and leave the socket file behind."""
        self.server.close()
        await self.server.wait_closed()
        self.server = None


async def roundtrip(dialer, address, n):
    connection = await dialer.dial("peer", address)
    await connection.send({"n": n})
    reply = await connection.receive()
    await connection.close()
    return reply


def test_dialer_survives_repeated_crash_restart_cycles():
    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            path = str(pathlib.Path(tmp) / "peer.sock")
            address = f"unix:{path}"
            server = CrashRestartServer(path)
            dialer = ReconnectDialer(max_attempts=20)
            replies = []
            for cycle in range(3):
                await server.start()
                replies.append(await roundtrip(dialer, address, cycle))
                await server.crash()
                # While the peer is down every dial fails; the tracker
                # absorbs the strikes instead of the caller crashing.
                with pytest.raises(ConnectionError):
                    await ReconnectDialer(max_attempts=2).dial(
                        "peer", address
                    )
            await server.start()
            replies.append(await roundtrip(dialer, address, 99))
            await server.crash()
            return server.accepted, replies

    accepted, replies = asyncio.run(scenario())
    assert accepted == 4
    assert replies == [{"echo": {"n": n}} for n in (0, 1, 2, 99)]


def test_dialer_redials_through_a_down_window():
    """Dials started while the peer is down succeed once it returns."""

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            path = str(pathlib.Path(tmp) / "peer.sock")
            address = f"unix:{path}"
            server = CrashRestartServer(path)
            dialer = ReconnectDialer(max_attempts=30)

            async def restart_later():
                await asyncio.sleep(0.15)
                await server.start()

            restart = asyncio.ensure_future(restart_later())
            reply = await roundtrip(dialer, address, 7)
            await restart
            await server.crash()
            return reply, dialer.redials

    reply, redials = asyncio.run(scenario())
    assert reply == {"echo": {"n": 7}}
    assert redials > 0


def test_tracker_scores_every_cycle():
    """One shared tracker sees the strikes from every down window."""

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            path = str(pathlib.Path(tmp) / "peer.sock")
            address = f"unix:{path}"
            tracker = PeerHealthTracker(
                suspect_threshold=100, quarantine_threshold=200
            )
            server = CrashRestartServer(path)
            dialer = ReconnectDialer(tracker=tracker, max_attempts=10)
            for cycle in range(2):
                with pytest.raises(ConnectionError):
                    await dialer.dial("peer", address)
                await server.start()
                await roundtrip(dialer, address, cycle)
                await server.crash()
            return tracker.record("peer"), dialer.attempts

    record, attempts = asyncio.run(scenario())
    # 10 failed dials per down window, one strike each; successes in
    # between keep resetting the clean streak without erasing strikes.
    assert record.strikes == 20
    assert attempts == 22


def test_quarantined_peer_delays_but_does_not_block_dials():
    """Even a quarantined peer is eventually probed (with a capped sleep),
    so a long-crashed node that finally rejoins is still reachable."""

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            path = str(pathlib.Path(tmp) / "peer.sock")
            address = f"unix:{path}"
            tracker = PeerHealthTracker(
                suspect_threshold=1, quarantine_threshold=2, jitter=0.0
            )
            server = CrashRestartServer(path)
            dialer = ReconnectDialer(tracker=tracker, max_attempts=6)
            with pytest.raises(ConnectionError):
                await dialer.dial("peer", address)
            assert tracker.state("peer") == "quarantined"
            await server.start()
            reply = await roundtrip(dialer, address, 1)
            await server.crash()
            return reply

    assert asyncio.run(scenario()) == {"echo": {"n": 1}}
