"""Framed connections on an asyncio transport.

One :class:`PeerConnection` is an :class:`asyncio.BufferedProtocol` on the
:mod:`repro.net.framing` codec: ``buffer_updated`` feeds the decoder and
wakes the one waiting ``receive``, whose per-read timeout (so a stalled
peer cannot wedge the process) is one read deadline per link, watched by
one timer handle that outlives the frames; ``send`` writes one frame, or
``send_pieces`` one frame's pieces, waiting only while the transport is
backed up. EOF raises :class:`ConnectionClosed`, whose ``mid_frame``
flag distinguishes a clean close from a connection cut mid-frame — the
live analogue of the truncation fault, and what the parity tests lean
on.

Addresses are strings — ``unix:/path/to.sock`` or ``tcp:host:port`` — so
the CLI, config files, and wire messages all name endpoints the same way.
"""

from __future__ import annotations

import asyncio
from collections import deque
from functools import partial
from typing import Any, Awaitable, Callable, Deque, Dict, Iterable, Optional, Set, Tuple

from .framing import FrameDecoder, encode_frame

#: Default per-receive timeout (seconds). Generous — control directives
#: can legitimately take a while when the peer is mid-encounter.
DEFAULT_READ_TIMEOUT = 30.0
#: Bytes per socket read. A plain ``asyncio.Protocol`` is read with
#: ``recv(256 KiB)``, a 256 KiB ``bytes`` allocated and shrunk per frame
#: (docs/performance.md §8); larger frames assemble in the decoder.
READ_BUFFER_BYTES = 32 * 1024


class ConnectionClosed(ConnectionError):
    """The peer closed (or the network cut) the connection.

    ``mid_frame`` is True when the stream ended with a partial frame
    buffered — the transfer was interrupted, not completed.
    """

    def __init__(self, message: str, mid_frame: bool = False) -> None:
        super().__init__(message)
        self.mid_frame = mid_frame


def parse_address(address: str) -> Tuple[str, Any]:
    """Parse ``unix:/path`` or ``tcp:host:port`` into (scheme, operand)."""
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ValueError(f"empty unix socket path in {address!r}")
        return "unix", path
    if address.startswith("tcp:"):
        rest = address[len("tcp:"):]
        host, separator, port = rest.rpartition(":")
        if not separator or not host:
            raise ValueError(
                f"tcp address must be tcp:host:port, got {address!r}"
            )
        return "tcp", (host, int(port))
    raise ValueError(
        f"unsupported address {address!r}; expected unix:/path or "
        f"tcp:host:port"
    )


def _settle(future: Optional[asyncio.Future], error=None) -> None:
    """Wake whoever parked on ``future``; stale (done) ones are skipped."""
    if future is not None and not future.done():
        if error is None:
            future.set_result(None)
        else:
            future.set_exception(error)


class PeerConnection(asyncio.BufferedProtocol):
    """One framed, timeout-guarded connection to a peer process.

    Built only by :func:`open_connection` and :func:`listen` (``accepted``
    is its per-accept hook). One task receives and one sends at a time.
    """

    def __init__(self, read_timeout: float, accepted=None) -> None:
        self.read_timeout = read_timeout
        self._accepted = accepted
        #: The framing decoder (its counters are diagnostics).
        self.decoder = FrameDecoder()
        self._buffer = bytearray(READ_BUFFER_BYTES)
        self._inbox: Deque[Dict[str, Any]] = deque()
        self._loop = asyncio.get_running_loop()
        self._transport: Optional[asyncio.Transport] = None
        self._lost = self._loop.create_future()
        self._receiver: Optional[asyncio.Future] = None
        #: The waiting ``receive``'s deadline (loop time) and its timeout.
        self._deadline = 0.0
        self._timeout = read_timeout
        #: The one timer handle watching ``_deadline``: a receive moves the
        #: deadline and re-arms it only to fire earlier than it would.
        self._watchdog: Optional[asyncio.TimerHandle] = None
        self._paused = False
        self._sender: Optional[asyncio.Future] = None

    def connection_made(self, transport) -> None:
        self._transport = transport
        if self._accepted is not None:
            self._accepted(self)

    def get_buffer(self, sizehint: int) -> bytearray:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        # The slice is a copy, so the next read may overwrite the kept buffer.
        messages = self.decoder.feed(self._buffer[:nbytes])
        if messages:
            self._inbox.extend(messages)
            _settle(self._receiver)

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        _settle(self._sender)

    def connection_lost(self, error: Optional[Exception]) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        _settle(self._lost)
        _settle(self._receiver, self._closed_error())
        _settle(self._sender, self._closed_error())

    def _arm(self, when: float) -> None:
        self._watchdog = self._loop.call_at(when, self._watch, when)

    def _watch(self, when: float) -> None:
        """The watchdog fired at ``when``: expire the wait or follow it."""
        if self._deadline > when:  # receives moved the deadline on
            self._arm(self._deadline)
            return
        self._watchdog = None
        error = asyncio.TimeoutError(f"no frame within {self._timeout:.1f}s")
        _settle(self._receiver, error)

    def _closed_error(self) -> ConnectionClosed:
        return ConnectionClosed(
            "peer closed the connection", mid_frame=self.decoder.pending > 0
        )

    @property
    def closed(self) -> bool:
        """True once the link is gone, whichever end let go of it."""
        return self._lost.done()

    async def send(self, message: Dict[str, Any]) -> None:
        """Write one frame; waits only while the transport is backed up."""
        await self.send_pieces((encode_frame(message),))

    async def send_pieces(self, pieces: Iterable[bytes]) -> None:
        """Write a frame's pieces (:func:`~.framing.frame_text`), each
        only once the transport has drained below its high-water mark."""
        for piece in pieces:
            if self.closed:
                raise self._closed_error()
            self._transport.write(piece)
            if self._paused:
                self._sender = self._loop.create_future()
                await self._sender

    async def receive(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Return the next message, waiting at most ``timeout`` seconds.

        Raises :class:`asyncio.TimeoutError` on expiry and
        :class:`ConnectionClosed` on EOF (``mid_frame`` set when the
        stream died inside a frame).
        """
        if not self._inbox:
            if self.closed:
                raise self._closed_error()
            if timeout is None:
                timeout = self.read_timeout
            self._deadline = deadline = self._loop.time() + timeout
            self._timeout = timeout
            watchdog = self._watchdog
            if watchdog is None or watchdog.when() > deadline:
                if watchdog is not None:
                    watchdog.cancel()
                self._arm(deadline)
            self._receiver = self._loop.create_future()
            await self._receiver
        return self._inbox.popleft()

    async def close(self) -> None:
        self._transport.close()
        await self._lost


async def open_connection(
    address: str, read_timeout: float = DEFAULT_READ_TIMEOUT
) -> PeerConnection:
    """Dial ``address`` once; raises ``OSError`` on failure."""
    scheme, operand = parse_address(address)
    loop = asyncio.get_running_loop()
    factory = partial(PeerConnection, read_timeout)
    if scheme == "unix":
        _, connection = await loop.create_unix_connection(factory, operand)
    else:
        _, connection = await loop.create_connection(factory, *operand)
    return connection


async def listen(
    address: str,
    handler: Callable[[PeerConnection], Awaitable[None]],
    read_timeout: float = DEFAULT_READ_TIMEOUT,
) -> asyncio.AbstractServer:
    """Bind ``address``; run ``handler(connection)`` in a task per accept.

    The connection is closed when the handler returns; a link that dies
    under the handler ends it quietly.
    """
    scheme, operand = parse_address(address)
    loop = asyncio.get_running_loop()
    tasks: Set[asyncio.Task] = set()  # the loop holds tasks only weakly

    async def serve(connection: PeerConnection) -> None:
        try:
            await handler(connection)
        except (ConnectionError, asyncio.TimeoutError):
            pass
        finally:
            await connection.close()

    def accepted(connection: PeerConnection) -> None:
        task = loop.create_task(serve(connection))
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    factory = partial(PeerConnection, read_timeout, accepted)
    if scheme == "unix":
        return await loop.create_unix_server(factory, operand)
    return await loop.create_server(factory, *operand)

