"""One replica as a networked daemon: the ``repro serve`` process.

A :class:`NodeServer` owns exactly one emulated node — replica, routing
policy, messaging app — and builds nothing else: the run's inputs
(:func:`~repro.experiments.scenario.build_inputs`) and, from them, its
own node (:func:`~repro.experiments.scenario.build_node`), the function
the emulator builds every node with. A swarm of N servers therefore
starts from state identical to an N-node emulation.

It listens on one address for two kinds of framed connections:

* **control** — the swarm orchestrator's channel: timed directives
  (``assign``, ``inject``, ``encounter``, ``snapshot``, ``status``,
  ``shutdown``) that replay a trace schedule against the live node;
* **peer** — another node dialing in, once, to run the encounters it
  initiates with this one. The sync flow is the transport-agnostic
  :class:`~repro.replication.session.SyncSession`, driven stepwise: the
  request, batch frame, and stats travel as
  :mod:`repro.replication.codec` encodings inside
  :mod:`repro.net.framing` frames.

Simulated time is carried *on the directives* (the live swarm replays a
multi-day trace in wall-clock seconds); the node tracks the high-water
mark and stamps it on policy hooks and delivery records, which is what
keeps time-dependent routing state (PROPHET aging, MaxProp estimates)
bit-equal to the emulator's.

Protocol framing and the message sequence are specified in
``docs/protocol.md`` §9; operational usage in ``docs/deployment.md``.
"""

from __future__ import annotations

import asyncio
import heapq
import pathlib
import signal
from dataclasses import dataclass
from resource import RUSAGE_SELF, getrusage
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.parity import fixed_point_cut, fixed_point_text, json_list_text
from repro.experiments.report import run_summary_document
from repro.experiments.scenario import build_inputs, build_node
from repro.replication.codec import (
    CodecError,
    decode_batch_frame,
    decode_sync_request,
    encode_batch_frame,
    encode_item_id,
    encode_sync_request,
)
from repro.replication.errors import SyncProtocolError
from repro.replication.events import EvictionCounter
from repro.replication.ids import ReplicaId
from repro.replication.persistence import load_identity, load_replica, save_replica
from repro.replication.routing import SyncContext
from repro.replication.session import SyncSession, monotone_knowledge
from repro.replication.sync import BatchEntry, SyncStats

from .connection import (
    DEFAULT_READ_TIMEOUT,
    ConnectionClosed,
    PeerConnection,
    listen,
    open_connection,
    parse_address,
)
from .framing import frame_text

PROTOCOL_VERSION = 1


@dataclass(kw_only=True)
class ServeConfig:
    """Configuration of one ``repro serve`` daemon."""

    node: str
    listen: str
    experiment: ExperimentConfig
    state_dir: Optional[str] = None
    read_timeout: float = DEFAULT_READ_TIMEOUT
    #: Rejoin after losing everything but identity: read only the head
    #: line of any on-disk checkpoint, ignore its stores, knowledge and
    #: policy state, and restore the id-factory counters (see
    #: :func:`~repro.replication.persistence.load_identity`).
    amnesiac: bool = False

    def __post_init__(self) -> None:
        if not self.node:
            raise ValueError("a serve daemon needs a node name")
        parse_address(self.listen)  # validate early
        faults = self.experiment.faults
        if faults is not None and faults.enabled:
            raise ValueError(
                "live mode runs over real channels; fault injection is a "
                "simulation-only feature (run the emulator for faults)"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "node": self.node,
            "listen": self.listen,
            "experiment": self.experiment.to_dict(),
            "state_dir": self.state_dir,
            "read_timeout": self.read_timeout,
            "amnesiac": self.amnesiac,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServeConfig":
        payload = dict(data)
        payload["experiment"] = ExperimentConfig.from_dict(payload["experiment"])
        return cls(**payload)


def _protocol_mismatch(hello: Dict[str, Any]) -> str:
    return (
        f"{hello.get('node')!r} speaks protocol {hello.get('protocol')!r}, "
        f"this node speaks {PROTOCOL_VERSION}"
    )


def _error_reply(error: Exception) -> Dict[str, Any]:
    return {"type": "error", "error": f"{type(error).__name__}: {error}"}


def _respond(
    session: SyncSession, message: Dict[str, Any], max_items: Optional[int]
) -> Tuple[List[BatchEntry], Dict[str, Any]]:
    """The source half of one §9.3 sync: answer ``message["request"]``.

    Returns the stamped entries, for ``confirm_sent`` once the peer's ack is
    in (the ack proves the whole checksummed frame was applied intact: the
    confirmed set is the full batch), and the ``sync-batch`` carrying them.
    """
    batch, stats = session.build_response(
        decode_sync_request(message["request"]), max_items=max_items
    )
    stamped = session.stamp(batch)
    return stamped, {
        "type": "sync-batch",
        "frame": encode_batch_frame(stamped),
        "stats": stats.to_dict(),
    }


def _apply(session: SyncSession, delivery: Dict[str, Any]) -> SyncStats:
    """The target half: store what a ``sync-batch`` delivered; final stats."""
    return session.apply(
        decode_batch_frame(delivery["frame"]),
        stats=SyncStats.from_dict(delivery["stats"]),
    )


class NodeServer:
    """One live replica process, serving control and peer connections."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        inputs = build_inputs(config.experiment)
        if config.node not in inputs.trace.hosts:
            raise ValueError(
                f"node {config.node!r} is not in the trace "
                f"(hosts: {list(inputs.trace.host_names)})"
            )
        self.node = build_node(config.experiment, inputs, config.node)
        self.name = config.node
        #: Simulated-time high-water mark, advanced by directive times.
        self.sim_now = 0.0
        self.encounters = 0
        self._deliveries: List[Dict[str, Any]] = []
        self._evictions = EvictionCounter()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        #: Idle links this node dialed, by (peer, address); dials so far.
        self._links: Dict[Tuple[str, str], PeerConnection] = {}
        self.dials = 0
        self._restore_checkpoint()
        self._wire_node()

    # -- state plumbing -------------------------------------------------------

    @property
    def checkpoint_path(self) -> Optional[pathlib.Path]:
        if self.config.state_dir is None:
            return None
        return pathlib.Path(self.config.state_dir) / f"{self.name}.json"

    def _restore_checkpoint(self) -> None:
        path = self.checkpoint_path
        if path is None or not path.exists():
            return
        if self.config.amnesiac:
            # The node lost everything but its identity: of the
            # checkpoint only the head line's name, filter, relay
            # configuration and id-factory counters survive (reusing
            # version serials after forgetting the items they named would
            # collide with still-circulating copies). The policy is the
            # fresh one this node was built with.
            replica, policy_state = load_identity(path), None
        else:
            replica, policy_state = load_replica(path)
        if replica.replica_id.name != self.name:
            raise ValueError(
                f"checkpoint {path} belongs to "
                f"{replica.replica_id.name!r}, not {self.name!r}"
            )
        try:
            self.node.adopt(replica, policy_state)
        except CodecError as error:  # a policy state its policy never wrote
            raise CodecError(f"{path}: {error}") from error

    def _wire_node(self) -> None:
        self.node.replica.register_observer(self._evictions)
        self.node.app.on_delivery(self._on_delivery)

    def _on_delivery(self, message) -> None:
        self._deliveries.append(
            {
                "message_id": encode_item_id(message.message_id),
                "time": self.sim_now,
                "node": self.name,
            }
        )

    def _drain_deliveries(self) -> List[Dict[str, Any]]:
        drained, self._deliveries = self._deliveries, []
        return drained

    def _advance(self, time: Any) -> float:
        if isinstance(time, (int, float)):
            self.sim_now = max(self.sim_now, float(time))
        return self.sim_now

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self._server = await listen(
            self.config.listen, self._on_connection, self.config.read_timeout
        )
        self._stopped = asyncio.Event()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        await self._stopped.wait()
        await self.close()

    async def close(self) -> None:
        """Stop listening and close every link this node dialed."""
        # No ``wait_closed()``: from Python 3.12 it waits for the links peers
        # dialed here, and those are theirs, ending with their handler tasks.
        self._server.close()
        while self._links:
            await self._links.popitem()[1].close()

    def _write_checkpoint(self) -> Optional[str]:
        """Persist replica and policy state; the path written, if any."""
        path = self.checkpoint_path
        if path is None:
            return None
        path.parent.mkdir(parents=True, exist_ok=True)
        save_replica(
            self.node.replica,
            path,
            policy_state=self.node.policy.persistent_state(),
        )
        return str(path)

    def request_shutdown(self, persist: bool = True) -> Optional[str]:
        """Persist (optionally) and arrange for ``serve_forever`` to return."""
        checkpoint = self._write_checkpoint() if persist else None
        if self._stopped is not None:
            self._stopped.set()
        return checkpoint

    # -- connection handling --------------------------------------------------

    async def _on_connection(self, connection: PeerConnection) -> None:
        hello = await connection.receive()
        if hello.get("type") != "hello":
            await connection.send({"type": "error", "error": "expected hello"})
            return
        if hello.get("protocol") != PROTOCOL_VERSION:
            await connection.send(
                {"type": "error", "error": _protocol_mismatch(hello)}
            )
            return
        await connection.send(self._hello())
        await self._serve_connection(connection)

    def _hello(self) -> Dict[str, Any]:
        return {"type": "hello", "node": self.name, "protocol": PROTOCOL_VERSION}

    async def _serve_connection(self, connection: PeerConnection) -> None:
        while True:
            try:
                message = await connection.receive()
            except asyncio.TimeoutError:
                continue  # idle control channel; keep listening
            kind = message.get("type")
            try:
                if kind == "encounter-open":
                    await self._serve_encounter(connection, message)
                elif kind == "shutdown":
                    checkpoint = self.request_shutdown(
                        persist=bool(message.get("persist", True))
                    )
                    await connection.send(
                        {"type": "shutdown-ok", "checkpoint": checkpoint}
                    )
                    return
                elif kind == "encounter":
                    await connection.send(await self._handle_encounter(message))
                elif kind == "snapshot":
                    # The one reply that grows with the whole store, not a
                    # batch: written copy by copy, never held whole.
                    await connection.send_pieces(frame_text(self._snapshot()))
                else:
                    await connection.send(self._handle_directive(kind, message))
            except (ConnectionClosed, asyncio.TimeoutError):
                raise
            except Exception as error:  # report, don't die mid-swarm
                await connection.send(_error_reply(error))

    # -- control directives ---------------------------------------------------

    def _handle_directive(
        self, kind: Optional[str], message: Dict[str, Any]
    ) -> Dict[str, Any]:
        if kind == "status":
            return {"type": "status-ok", "document": self.status_document()}
        if kind == "assign":
            self._advance(message.get("time"))
            self.node.assign_addresses(message.get("addresses", ()))
            return {
                "type": "assign-ok",
                "deliveries": self._drain_deliveries(),
                "evictions": self._evictions.drain(),
            }
        if kind == "inject":
            self._advance(message.get("time"))
            sent = self.node.send(
                message["source"],
                message["destination"],
                message.get("body"),
                now=self.sim_now,
            )
            return {
                "type": "inject-ok",
                "message_id": encode_item_id(sent.message_id),
                "deliveries": self._drain_deliveries(),
                "evictions": self._evictions.drain(),
            }
        if kind == "checkpoint":
            # Persist without stopping: the orchestrator images a node's
            # durable state the instant before it kills the process, which
            # is what "only what reached disk survives the crash" means
            # for a continuously-checkpointing replica.
            checkpoint = self._write_checkpoint()
            if checkpoint is None:
                return {
                    "type": "error",
                    "error": "no state_dir configured; cannot checkpoint",
                }
            return {"type": "checkpoint-ok", "checkpoint": checkpoint}
        return {"type": "error", "error": f"unknown directive {kind!r}"}

    def _snapshot(self) -> Callable[[], Iterator[str]]:
        """The canonical JSON of the ``snapshot-ok`` reply, as a source
        :func:`~.framing.frame_text` iterates twice: the fixed point and
        the ``held`` ids (non-deleted copies, in item-id order) of the
        cut taken now, whatever is stored while the reply is written."""
        cut = fixed_point_cut(self.node.replica)

        def text() -> Iterator[str]:
            # Merged from the cut's sorted stores: no list of ids is held.
            held = heapq.merge(*cut[1].values(), key=lambda item: item.item_id)
            yield '{"fixed_point":'
            yield from fixed_point_text(cut)
            yield ',"held":'
            yield from json_list_text(
                str(item.item_id) for item in held if not item.deleted
            )
            yield ',"type":"snapshot-ok"}'

        return text

    async def _handle_encounter(self, message: Dict[str, Any]) -> Dict[str, Any]:
        try:
            stats, deliveries, evictions = await self._coordinate_encounter(
                peer=message["peer"],
                address=message["address"],
                time=float(message.get("time", self.sim_now)),
                budget=message.get("budget"),
            )
        except (ConnectionError, asyncio.TimeoutError) as error:
            # The *dialed* link closed or stalled; the control channel is
            # fine, and its own failures are ``_serve_connection``'s to raise.
            return _error_reply(error)
        return {
            "type": "encounter-ok",
            "syncs": [record.to_dict() for record in stats],
            "deliveries": deliveries,
            "evictions": evictions,
        }

    def status_document(self) -> Dict[str, Any]:
        experiment = self.config.experiment
        return run_summary_document(
            kind="serve",
            label=experiment.label(),
            scale=experiment.scale,
            summary={
                "node": self.name,
                "sim_now": self.sim_now,
                "stored_items": self.node.replica.stored_count,
                "delivered_messages": len(self.node.app.delivered_messages),
                "encounters": self.encounters,
                "evictions": self._evictions.count,
                "protocol": PROTOCOL_VERSION,
                "peer_links": sum(not link.closed for link in self._links.values()),
                "dials": self.dials,
                "peak_rss_mb": round(getrusage(RUSAGE_SELF).ru_maxrss / 1024.0, 1),
            },
        )

    # -- encounters -----------------------------------------------------------

    async def _coordinate_encounter(
        self,
        peer: str,
        address: str,
        time: float,
        budget: Optional[int],
    ) -> Tuple[List[SyncStats], List[Dict[str, Any]], int]:
        """Run one encounter as the initiating side (first sync's source).

        This is :class:`~repro.replication.session.EncounterSession`'s
        flow with the second endpoint living in another process: both
        sides fire ``on_encounter_start`` once, sync 1 flows this → peer,
        sync 2 peer → this, and the peer's second-sync budget is what
        remains of the shared per-encounter cap.
        """
        self._advance(time)
        with monotone_knowledge(
            self.node.replica, during="a live encounter"
        ):
            remote = ReplicaId(peer)
            # The kept link, out of the table while in use (an overlapping
            # directive dials its own); redialed if the peer let go of it idle.
            link = self._links.pop((peer, address), None)
            try:
                if link is None or link.closed:
                    link = await open_connection(
                        address, read_timeout=self.config.read_timeout
                    )
                    self.dials += 1
                    await link.send(self._hello())
                    hello = await link.receive()
                    if hello.get("type") != "hello" or hello.get("node") != peer:
                        raise SyncProtocolError(
                            f"dialed {peer!r} at {address} but got {hello!r}"
                        )
                    if hello.get("protocol") != PROTOCOL_VERSION:
                        raise SyncProtocolError(_protocol_mismatch(hello))
                self.node.policy.on_encounter_start(
                    SyncContext(local=ReplicaId(self.name), remote=remote, now=time)
                )
                await link.send(
                    {
                        "type": "encounter-open",
                        "initiator": self.name,
                        "time": time,
                        "budget": budget,
                    }
                )
                # Sync 1: we are the source, and cap the batch ourselves.
                opening = await self._expect(link, "sync-request")
                outbound = SyncSession(source=self.node.endpoint, peer=remote, now=time)
                stamped, batch = _respond(outbound, opening, budget)
                # Sync 2: roles swap; its request rides on sync 1's batch.
                # Built only now: ``process_req`` (inside ``build_response``)
                # moves the routing state ``generate_req`` ships, so a request
                # built earlier, on ``encounter-open``, leaves the emulator's.
                inbound = SyncSession(target=self.node.endpoint, peer=remote, now=time)
                batch["request"] = encode_sync_request(inbound.build_request())
                if budget is not None:
                    # Sync 2 spends what is left of the shared budget.
                    budget = max(0, budget - batch["stats"]["sent_total"])
                batch["budget"] = budget
                await link.send(batch)
                delivery = await self._expect(link, "sync-batch")
                stats_a = SyncStats.from_dict(delivery["ack"])
                outbound.confirm_sent(stamped)
                stats_b = _apply(inbound, delivery)
                await link.send({"type": "sync-ack", "stats": stats_b.to_dict()})
                done = await self._expect(link, "encounter-done")
            except BaseException:
                # The two ends no longer agree on which frame comes next:
                # the link is spent, and the next encounter dials afresh.
                if link is not None:
                    await link.close()
                raise
            if self._links.setdefault((peer, address), link) is not link:
                await link.close()  # an overlapping encounter parked its own
        self.encounters += 1
        deliveries = self._drain_deliveries() + list(
            done.get("deliveries", ())
        )
        evictions = self._evictions.drain() + int(done.get("evictions", 0))
        return [stats_a, stats_b], deliveries, evictions

    async def _serve_encounter(
        self, connection: PeerConnection, opening: Dict[str, Any]
    ) -> None:
        """Run one encounter as the dialed side (first sync's target)."""
        time = float(opening.get("time", self.sim_now))
        self._advance(time)
        with monotone_knowledge(
            self.node.replica, during="a live encounter"
        ):
            initiator = ReplicaId(str(opening["initiator"]))
            self.node.policy.on_encounter_start(
                SyncContext(local=ReplicaId(self.name), remote=initiator, now=time)
            )
            # Sync 1: we are the target. Sync 2: we are the source, under the
            # initiator's remaining budget; our batch carries sync 1's ack.
            inbound = SyncSession(target=self.node.endpoint, peer=initiator, now=time)
            request = encode_sync_request(inbound.build_request())
            await connection.send({"type": "sync-request", "request": request})
            delivery = await self._expect(connection, "sync-batch")
            stats_a = _apply(inbound, delivery)
            outbound = SyncSession(source=self.node.endpoint, peer=initiator, now=time)
            stamped, batch = _respond(outbound, delivery, delivery.get("budget"))
            batch["ack"] = stats_a.to_dict()
            await connection.send(batch)
            await self._expect(connection, "sync-ack")
            outbound.confirm_sent(stamped)
        self.encounters += 1
        await connection.send(
            {
                "type": "encounter-done",
                "deliveries": self._drain_deliveries(),
                "evictions": self._evictions.drain(),
            }
        )

    async def _expect(
        self, connection: PeerConnection, expected: str
    ) -> Dict[str, Any]:
        message = await connection.receive()
        kind = message.get("type")
        if kind == "error":
            raise SyncProtocolError(
                f"peer reported: {message.get('error')!r}"
            )
        if kind != expected:
            raise SyncProtocolError(
                f"expected {expected!r} from peer, got {kind!r}"
            )
        return message


async def run_server(config: ServeConfig) -> None:
    """Build the node, bind the listener, and serve until shutdown.

    SIGINT/SIGTERM trigger the same graceful path as a ``shutdown``
    directive: checkpoint (when a state dir is configured), then stop.
    """
    server = NodeServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, server.request_shutdown)
        except (NotImplementedError, RuntimeError):
            pass  # platforms without signal support in the loop
    await server.serve_forever()
