"""Live deployment mode: replicas as real networked processes.

The discrete-event emulator squeezes a multi-day DTN deployment into one
process; this package runs the same protocol for real. Each replica is an
OS process (:mod:`repro.net.server`, started by ``repro serve``) speaking
length-prefixed JSON frames (:mod:`repro.net.framing`) over TCP or unix
sockets (:mod:`repro.net.connection`), and a swarm orchestrator
(:mod:`repro.net.swarm`, ``repro swarm``) spawns N of them and replays the
run's schedule (:func:`repro.emulation.engine.build_schedule`, the list
the emulator walks) as timed directives over a control channel.

The sync flow itself is the transport-agnostic
:class:`~repro.replication.session.SyncSession` — the same object the
emulator drives — which is what makes convergence parity
(:mod:`repro.experiments.parity`) a meaningful assertion rather than a
second implementation agreeing with itself.

See ``docs/deployment.md`` for usage and ``docs/protocol.md`` §9 for the
wire format.
"""

from .connection import (
    ConnectionClosed,
    PeerConnection,
    open_connection,
    parse_address,
)
from .framing import MAX_FRAME_BYTES, FrameDecoder, FramingError, encode_frame
from .server import NodeServer, ServeConfig
from .swarm import SwarmConfig, SwarmReport, run_swarm

__all__ = [
    "ConnectionClosed",
    "FrameDecoder",
    "FramingError",
    "MAX_FRAME_BYTES",
    "NodeServer",
    "PeerConnection",
    "ServeConfig",
    "SwarmConfig",
    "SwarmReport",
    "encode_frame",
    "open_connection",
    "parse_address",
    "run_swarm",
]
