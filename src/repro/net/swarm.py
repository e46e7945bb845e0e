"""Live swarm orchestration: one OS process per trace host.

:func:`run_swarm` takes the exact :class:`ExperimentConfig` the emulator
runs, spawns one ``repro serve`` subprocess per host in the scaled trace,
and performs the run's schedule
(:func:`repro.emulation.engine.build_schedule` — the list the emulator
walks) as directives over control channels: day-boundary address
reassignments, lifecycle events, message injections, and encounters.
Encounters happen as real peer-to-peer sync sessions over unix or TCP
sockets between the server processes; the orchestrator only tells the
initiating side whom to dial.

Every decision and every booking is the run's
:class:`~repro.emulation.engine.RunDirector`'s, as in the emulator; the
orchestrator performs the physical act between its calls and feeds it
from directive replies: sync stats travel back serialized, deliveries
and evictions are reported by the node that made them with the reply to
the directive that caused them, and end-of-run copy counts come from
snapshot directives. One deliberate difference from the emulator's
collector is documented where it occurs: ``copies_at_delivery`` is
unknowable without a global view. The replication *state* — what the
parity harness in :mod:`repro.experiments.parity` compares — is
bit-identical.

Replay is sequential (one directive completes before the next begins).
That is what makes a live run deterministic and parity-comparable: the
trace's encounters are instantaneous points in simulated time, so nothing
is lost by not overlapping them in wall-clock time.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import repro
from repro.churn import LifecycleEvent
from repro.emulation.encounters import Encounter
from repro.emulation.engine import (
    ASSIGN,
    ENCOUNTER,
    INJECT,
    LIFECYCLE,
    RunDirector,
    build_schedule,
)
from repro.emulation.metrics import MetricsCollector
from repro.emulation.network import Injection
from repro.experiments.config import ExperimentConfig
from repro.experiments.parity import replica_fixed_point
from repro.experiments.report import run_summary_document
from repro.experiments.scenario import build_inputs
from repro.experiments.store import canonical_json, run_id_for
from repro.replication.codec import decode_item_id
from repro.replication.ids import ItemId
from repro.replication.persistence import load_replica
from repro.replication.sync import SyncStats

from .connection import PeerConnection, open_connection
from .server import PROTOCOL_VERSION

#: Base port for ``transport="tcp"`` swarms; node i listens on base + i.
DEFAULT_BASE_PORT = 42640

#: The interface ``transport="tcp"`` nodes listen on.
TCP_HOST = "127.0.0.1"

#: Seconds a serve process has to start answering its control dial.
STARTUP_TIMEOUT = 30.0


@dataclass(kw_only=True)
class SwarmConfig:
    """Configuration of one live swarm run."""

    experiment: ExperimentConfig
    transport: str = "unix"
    base_port: int = DEFAULT_BASE_PORT
    runtime_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.transport not in ("unix", "tcp"):
            raise ValueError(
                f"transport must be 'unix' or 'tcp', got {self.transport!r}"
            )
        faults = self.experiment.faults
        if faults is not None and faults.enabled:
            raise ValueError(
                "fault injection is simulation-only; a live swarm runs "
                "over real channels (use the emulator for fault studies)"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment.to_dict(),
            "transport": self.transport,
            "base_port": self.base_port,
            "runtime_dir": self.runtime_dir,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SwarmConfig":
        payload = dict(data)
        payload["experiment"] = ExperimentConfig.from_dict(
            payload["experiment"]
        )
        return cls(**payload)


@dataclass
class SwarmReport:
    """Everything a finished swarm run produced."""

    run_id: str
    fixed_points: Dict[str, Dict[str, Any]]
    metrics: MetricsCollector
    document: Dict[str, Any]
    checkpoints: Dict[str, Optional[str]] = field(default_factory=dict)
    skipped_injections: int = 0
    output_path: Optional[str] = None

    def artifact(self) -> Dict[str, Any]:
        """The on-disk artifact: summary document + full per-run detail.

        Shaped like a RunStore artifact (run id, config, metrics dump)
        but written wherever the caller asks, *not* into a RunStore
        directory — swarm run ids carry a ``swarm-`` prefix precisely so
        they can never collide with (or masquerade as) the emulator
        artifacts that sweeps resume from.
        """
        return {
            "run_id": self.run_id,
            "document": self.document,
            "metrics": self.metrics.to_dict(),
            "fixed_points": self.fixed_points,
        }


class _Node:
    """Orchestrator-side handle on one serve subprocess."""

    def __init__(self, name: str, address: str) -> None:
        self.name = name
        self.address = address
        self.process: Optional[asyncio.subprocess.Process] = None
        self.control: Optional[PeerConnection] = None


class _Swarm:
    def __init__(self, config: SwarmConfig) -> None:
        self.config = config
        experiment = config.experiment
        inputs = build_inputs(experiment)
        self.steps, self.end_time = build_schedule(
            inputs.trace,
            inputs.injections,
            inputs.reassignments,
            inputs.churn_schedule,
        )
        names = inputs.trace.host_names
        # The emulator's director, over the same inputs: gating, lost
        # injections, reciprocity admission and every counter are
        # identical by construction, while the processes underneath are
        # genuinely spawned, killed and respawned.
        self.director = RunDirector(
            names,
            inputs.reassignments,
            experiment.churn,
            inputs.churn_schedule,
            seed=experiment.encounter_order_seed,
        )
        self.metrics = self.director.metrics
        self._owns_runtime_dir = config.runtime_dir is None
        # Unix socket paths must stay short (the kernel caps sun_path at
        # ~100 bytes), hence a fresh short tempdir rather than anything
        # under the repo or a deep CWD.
        self.runtime_dir = pathlib.Path(
            config.runtime_dir or tempfile.mkdtemp(prefix="repro-swarm-")
        )
        self.nodes: Dict[str, _Node] = {}
        for index, name in enumerate(names):
            if config.transport == "unix":
                address = f"unix:{self.runtime_dir / (name + '.sock')}"
            else:
                address = f"tcp:{TCP_HOST}:{config.base_port + index}"
            self.nodes[name] = _Node(name, address)

    # -- process management ---------------------------------------------------

    async def start(self) -> None:
        self.runtime_dir.mkdir(parents=True, exist_ok=True)
        self._config_path = self.runtime_dir / "experiment.json"
        self._config_path.write_text(
            json.dumps(self.config.experiment.to_dict(), indent=2)
        )
        self._state_dir = self.runtime_dir / "state"
        self._env = dict(os.environ)
        package_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        existing = self._env.get("PYTHONPATH")
        self._env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        for node in self.nodes.values():
            await self._spawn(node)
        await self._connect_all()

    async def _spawn(self, node: _Node, amnesiac: bool = False) -> None:
        argv = [
            "-m",
            "repro",
            "serve",
            "--config",
            str(self._config_path),
            "--node",
            node.name,
            "--listen",
            node.address,
            "--state-dir",
            str(self._state_dir),
        ]
        if amnesiac:
            argv.append("--amnesiac")
        if node.address.startswith("unix:"):
            # A killed process leaves its socket file behind; the respawn
            # must bind the same path.
            pathlib.Path(node.address[len("unix:"):]).unlink(missing_ok=True)
        node.process = await asyncio.create_subprocess_exec(
            sys.executable, *argv, env=self._env
        )

    async def _connect_all(self) -> None:
        deadline = asyncio.get_running_loop().time() + STARTUP_TIMEOUT
        for node in self.nodes.values():
            await self._connect(node, deadline)

    async def _connect(
        self, node: _Node, deadline: Optional[float] = None
    ) -> None:
        # The process and the deadline are checked before every dial, so
        # a serve process that dies while booting (a rejoin from a torn
        # checkpoint) fails the run at once.
        loop = asyncio.get_running_loop()
        if deadline is None:
            deadline = loop.time() + STARTUP_TIMEOUT
        while True:
            if node.process is not None and node.process.returncode is not None:
                raise RuntimeError(
                    f"serve process for {node.name!r} exited with "
                    f"{node.process.returncode} during startup"
                )
            if loop.time() > deadline:
                raise RuntimeError(
                    f"could not reach {node.name!r} at {node.address} "
                    f"within {STARTUP_TIMEOUT:.0f}s"
                )
            try:
                node.control = await open_connection(node.address)
                break
            except OSError:
                await asyncio.sleep(0.05)
        await node.control.send(
            {
                "type": "hello",
                "node": "orchestrator",
                "protocol": PROTOCOL_VERSION,
            }
        )
        hello = await node.control.receive()
        if hello.get("type") != "hello" or hello.get("node") != node.name:
            raise RuntimeError(
                f"unexpected greeting from {node.name!r}: {hello!r}"
            )

    async def stop(self, persist: bool = True) -> Dict[str, Optional[str]]:
        checkpoints: Dict[str, Optional[str]] = {}
        for node in self.nodes.values():
            if node.control is None:
                # Departed mid-run: its checkpoint (if any) was written
                # on the way down.
                path = getattr(self, "_state_dir", None)
                if path is not None:
                    candidate = path / f"{node.name}.json"
                    checkpoints[node.name] = (
                        str(candidate) if candidate.exists() else None
                    )
            elif node.control is not None:
                try:
                    await node.control.send(
                        {"type": "shutdown", "persist": persist}
                    )
                    reply = await node.control.receive()
                    checkpoints[node.name] = reply.get("checkpoint")
                except (ConnectionError, asyncio.TimeoutError, OSError):
                    checkpoints[node.name] = None
                await node.control.close()
                node.control = None
        for node in self.nodes.values():
            if node.process is None:
                continue
            exiting = asyncio.ensure_future(node.process.wait())
            exited, _ = await asyncio.wait({exiting}, timeout=10.0)
            if not exited:
                node.process.kill()
            await exiting
            node.process = None
        return checkpoints

    async def kill(self) -> None:
        """Hard cleanup after a failure: close channels, kill processes."""
        for node in self.nodes.values():
            if node.control is not None:
                await node.control.close()
                node.control = None
            if node.process is not None and node.process.returncode is None:
                node.process.kill()
                await node.process.wait()
                node.process = None

    def cleanup_runtime_dir(self) -> None:
        if self._owns_runtime_dir:
            shutil.rmtree(self.runtime_dir, ignore_errors=True)

    # -- directive replay -----------------------------------------------------

    async def _command(
        self, node: _Node, message: Dict[str, Any], expected: str
    ) -> Dict[str, Any]:
        assert node.control is not None
        await node.control.send(message)
        reply = await node.control.receive()
        if reply.get("type") == "error":
            raise RuntimeError(
                f"{node.name} rejected {message.get('type')!r}: "
                f"{reply.get('error')}"
            )
        if reply.get("type") != expected:
            raise RuntimeError(
                f"{node.name} answered {reply.get('type')!r} to "
                f"{message.get('type')!r}"
            )
        return reply

    def _book_reply(self, reply: Dict[str, Any]) -> None:
        """Book the deliveries and evictions a node reports in a reply."""
        # ``copies_at_delivery`` stays None on the live path: counting
        # live copies network-wide at the instant of delivery needs the
        # emulator's global view. The summary's mean-copies figure
        # ignores None records; every other per-message metric (delay,
        # delivery ratio) is exact.
        for event in reply.get("deliveries") or ():
            self.metrics.record_delivery(
                decode_item_id(event["message_id"]),
                float(event["time"]),
                event["node"],
                None,
            )
        self.metrics.record_evictions(int(reply.get("evictions", 0)))

    async def _assign(self, name: str, users, now: float) -> None:
        reply = await self._command(
            self.nodes[name],
            {"type": "assign", "time": now, "addresses": sorted(users)},
            "assign-ok",
        )
        self._book_reply(reply)

    async def _apply_assignment(self, day: int, now: float) -> None:
        for name, users in self.director.begin_day(day).items():
            await self._assign(name, users, now)

    async def _inject(self, injection: Injection, now: float) -> None:
        node_name = self.director.sender_of(injection)
        if node_name is None:
            return
        reply = await self._command(
            self.nodes[node_name],
            {
                "type": "inject",
                "time": now,
                "source": injection.source,
                "destination": injection.destination,
                "body": injection.body,
            },
            "inject-ok",
        )
        self.metrics.record_injection(
            decode_item_id(reply["message_id"]),
            injection.source,
            injection.destination,
            now,
            node_name,
        )
        self._book_reply(reply)

    async def _encounter(
        self,
        first: str,
        second: str,
        now: float,
        budget: Optional[int],
        handoff: bool = False,
    ) -> None:
        """Have ``first`` dial ``second`` for two syncs; book the result."""
        reply = await self._command(
            self.nodes[first],
            {
                "type": "encounter",
                "time": now,
                "peer": second,
                "address": self.nodes[second].address,
                "budget": budget,
            },
            "encounter-ok",
        )
        stats = [SyncStats.from_dict(raw) for raw in reply["syncs"]]
        self.director.book_encounter(first, second, stats, now, handoff=handoff)
        self._book_reply(reply)

    async def _run_encounter(self, encounter: Encounter, now: float) -> None:
        roles = self.director.encounter_roles(encounter)
        if roles is not None:
            # The per-encounter budget is the flat Figure 9 cap.
            await self._encounter(
                *roles, now, self.config.experiment.bandwidth_limit
            )

    async def _apply_lifecycle(self, event: LifecycleEvent, now: float) -> None:
        """Perform one churn event against the real process fleet.

        The state transitions are physical: a graceful leaver hands off,
        checkpoints and exits, a crash is an image of durable state
        followed by SIGKILL, and a rejoin is a fresh ``repro serve``
        process booting from (all of, or — amnesiac — only the id
        counters of) that checkpoint.
        """
        node = self.nodes[event.node]
        if event.kind == "leave":
            if event.partner is not None:
                # The leaver's final, unbudgeted sync pair: leaver first.
                await self._encounter(
                    event.node, event.partner, now, None, handoff=True
                )
            assert node.control is not None
            await node.control.send({"type": "shutdown", "persist": True})
            await node.control.receive()  # shutdown-ok (checkpoint path)
            await node.control.close()
            node.control = None
            if node.process is not None:
                await node.process.wait()
                node.process = None
        elif event.kind == "crash":
            # Checkpoint-then-SIGKILL is what "only what reached disk
            # survives" means for a continuously-checkpointing replica;
            # the emulator's frozen-in-place node is the same state.
            await self._command(node, {"type": "checkpoint"}, "checkpoint-ok")
            assert node.control is not None
            await node.control.close()
            node.control = None
            if node.process is not None:
                node.process.kill()
                await node.process.wait()
                node.process = None
        elif event.kind == "rejoin":
            await self._spawn(node, amnesiac=event.amnesiac)
            await self._connect(node)
        users = self.director.apply_lifecycle(event, now)
        if users is not None:
            await self._assign(event.node, users, now)

    async def replay(self) -> None:
        perform = {
            ASSIGN: self._apply_assignment,
            LIFECYCLE: self._apply_lifecycle,
            INJECT: self._inject,
            ENCOUNTER: self._run_encounter,
        }
        for step in self.steps:
            if step.time > self.end_time:
                break
            await perform[step.kind](step.event, step.time)

    # -- end of run -----------------------------------------------------------

    async def collect(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot every node; finalise metrics from the global view."""
        fixed_points: Dict[str, Dict[str, Any]] = {}
        held: Dict[str, set] = {}
        for name in sorted(self.nodes):
            node = self.nodes[name]
            if node.control is None:
                # Departed (left or crashed-without-rejoining) node: its
                # process is gone, so snapshot the checkpoint it wrote on
                # the way down — exactly the state the emulator's frozen
                # node holds at end of run.
                replica, _ = load_replica(self._state_dir / f"{name}.json")
                fixed_points[name] = replica_fixed_point(replica)
                held[name] = {
                    str(item.item_id)
                    for item in replica.stored_items()
                    if not item.deleted
                }
                continue
            reply = await self._command(
                node, {"type": "snapshot"}, "snapshot-ok"
            )
            fixed_points[name] = reply["fixed_point"]
            held[name] = set(reply["held"])

        def copies(item_id: ItemId) -> int:
            key = str(item_id)
            return sum(1 for ids in held.values() if key in ids)

        self.director.finalize(self.end_time, copies)
        return fixed_points


async def _run_swarm(
    config: SwarmConfig, output: Optional[str]
) -> SwarmReport:
    swarm = _Swarm(config)
    try:
        await swarm.start()
        await swarm.replay()
        fixed_points = await swarm.collect()
        checkpoints = await swarm.stop(persist=True)
    except BaseException:
        await swarm.kill()
        raise
    finally:
        swarm.cleanup_runtime_dir()

    experiment = config.experiment
    skipped_injections = len(swarm.director.skipped_injections)
    run_id = f"swarm-{run_id_for(experiment)}"
    document = run_summary_document(
        kind="swarm",
        label=experiment.label(),
        scale=experiment.scale,
        summary=swarm.metrics.summary(),
        extra={
            "run_id": run_id,
            "transport": config.transport,
            "nodes": len(swarm.nodes),
            "skipped_injections": skipped_injections,
            "churn": swarm.director.lifecycle is not None,
        },
    )
    report = SwarmReport(
        run_id=run_id,
        fixed_points=fixed_points,
        metrics=swarm.metrics,
        document=document,
        checkpoints=checkpoints,
        skipped_injections=skipped_injections,
    )
    if output:
        path = pathlib.Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(canonical_json(report.artifact()) + "\n")
        report.output_path = str(path)
    return report


def run_swarm(
    config: SwarmConfig, output: Optional[str] = None
) -> SwarmReport:
    """Run a live swarm to completion; optionally write the artifact.

    Synchronous wrapper (spawning, replay, and teardown all happen on a
    private event loop) so callers — the CLI, the parity harness, tests —
    need no asyncio plumbing of their own.
    """
    return asyncio.run(_run_swarm(config, output))
