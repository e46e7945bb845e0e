"""Live swarm orchestration: one OS process per trace host.

:func:`run_swarm` takes the exact :class:`ExperimentConfig` the emulator
runs, spawns one ``repro serve`` subprocess per host in the scaled trace,
and replays the scenario's directive schedule (:mod:`repro.net.schedule`)
over control channels — day-boundary address reassignments, message
injections, and encounters, in the emulator's event order. Encounters
happen as real peer-to-peer sync sessions over unix or TCP sockets
between the server processes; the orchestrator only tells the initiating
side whom to dial.

The orchestrator owns the experiment's single
:class:`~repro.emulation.metrics.MetricsCollector`, fed from directive
replies: sync stats travel back serialized, deliveries are announced by
the node that made them, and end-of-run copy counts come from snapshot
directives. Two deliberate differences from the emulator's collector are
documented where they occur: ``copies_at_delivery`` is unknowable without
a global view, and traffic counters include live-channel checksum work
the emulator's perfect channel skips. The replication *state* — what the
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
from typing import Any, Dict, List, Mapping, Optional

import repro
from repro._compat import keyword_only_dataclass
from repro.churn import LifecycleEvent, LifecycleTracker, ReciprocityLedger
from repro.emulation.metrics import MetricsCollector
from repro.experiments.config import ExperimentConfig
from repro.experiments.parity import replica_fixed_point
from repro.experiments.report import run_summary_document
from repro.experiments.scenario import build_scenario
from repro.experiments.store import canonical_json, run_id_for
from repro.replication.codec import decode_item_id
from repro.replication.persistence import load_replica
from repro.replication.sync import SyncStats

from .connection import (
    DEFAULT_READ_TIMEOUT,
    PeerConnection,
    ReconnectDialer,
)
from .schedule import ScheduleStep, build_schedule
from .server import PROTOCOL_VERSION

#: Base port for ``transport="tcp"`` swarms; node i listens on base + i.
DEFAULT_BASE_PORT = 42640


@keyword_only_dataclass
@dataclass
class SwarmConfig:
    """Configuration of one live swarm run."""

    experiment: ExperimentConfig
    transport: str = "unix"
    host: str = "127.0.0.1"
    base_port: int = DEFAULT_BASE_PORT
    runtime_dir: Optional[str] = None
    startup_timeout: float = 30.0
    read_timeout: float = DEFAULT_READ_TIMEOUT
    extra_days: int = 0

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
            "host": self.host,
            "base_port": self.base_port,
            "runtime_dir": self.runtime_dir,
            "startup_timeout": self.startup_timeout,
            "read_timeout": self.read_timeout,
            "extra_days": self.extra_days,
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
        self.scenario = build_scenario(config.experiment)
        self.steps, self.end_time = build_schedule(
            self.scenario, extra_days=config.extra_days
        )
        self.metrics = MetricsCollector()
        self.skipped_injections = 0
        self._user_location: Dict[str, str] = {}
        self._current_day_map: Mapping[str, List[str]] = {}
        # Churn: the orchestrator runs the *same* lifecycle/reciprocity
        # trackers the emulator does, against the schedule the scenario
        # derived — so encounter gating, lost injections, and reciprocity
        # admission are identical by construction, while the processes
        # underneath are genuinely killed and respawned.
        self.churn_schedule = self.scenario.churn_schedule
        self.lifecycle: Optional[LifecycleTracker] = None
        self.reciprocity: Optional[ReciprocityLedger] = None
        if self.churn_schedule is not None:
            churn = self.scenario.config.churn
            assert churn is not None
            names = sorted(self.scenario.nodes)
            self.lifecycle = LifecycleTracker(names, self.churn_schedule)
            self.reciprocity = ReciprocityLedger(
                names,
                threshold=churn.reciprocity_threshold,
                min_taken=churn.reciprocity_min_taken,
            )
            self.metrics.arm_churn()
        self._owns_runtime_dir = config.runtime_dir is None
        # Unix socket paths must stay short (the kernel caps sun_path at
        # ~100 bytes), hence a fresh short tempdir rather than anything
        # under the repo or a deep CWD.
        self.runtime_dir = pathlib.Path(
            config.runtime_dir or tempfile.mkdtemp(prefix="repro-swarm-")
        )
        self.nodes: Dict[str, _Node] = {}
        for index, name in enumerate(sorted(self.scenario.nodes)):
            if config.transport == "unix":
                address = f"unix:{self.runtime_dir / (name + '.sock')}"
            else:
                address = f"tcp:{config.host}:{config.base_port + index}"
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
        deadline = (
            asyncio.get_running_loop().time() + self.config.startup_timeout
        )
        for node in self.nodes.values():
            await self._connect(node, deadline)

    async def _connect(
        self, node: _Node, deadline: Optional[float] = None
    ) -> None:
        # The dialer drives redial pacing through the peer-health state
        # machine; generous attempts because N interpreters are cold-
        # starting concurrently.
        if deadline is None:
            deadline = (
                asyncio.get_running_loop().time()
                + self.config.startup_timeout
            )
        dialer = ReconnectDialer(
            max_attempts=200, read_timeout=self.config.read_timeout
        )
        while True:
            if node.process is not None and node.process.returncode is not None:
                raise RuntimeError(
                    f"serve process for {node.name!r} exited with "
                    f"{node.process.returncode} during startup"
                )
            try:
                node.control = await dialer.dial(node.name, node.address)
                break
            except (ConnectionError, OSError):
                if asyncio.get_running_loop().time() > deadline:
                    raise RuntimeError(
                        f"could not reach {node.name!r} at "
                        f"{node.address} within "
                        f"{self.config.startup_timeout:.0f}s"
                    )
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

    def _record_deliveries(self, deliveries: Any) -> None:
        # ``copies_at_delivery`` stays None on the live path: counting
        # live copies network-wide at the instant of delivery needs the
        # emulator's global view. The summary's mean-copies figure
        # ignores None records; every other per-message metric (delay,
        # delivery ratio) is exact.
        for event in deliveries or ():
            self.metrics.record_delivery(
                decode_item_id(event["message_id"]),
                float(event["time"]),
                event["node"],
                None,
            )

    def _online(self, name: str) -> bool:
        return self.lifecycle is None or self.lifecycle.online(name)

    def _observe_syncs(
        self, a: str, b: str, stats: List[SyncStats], now: float
    ) -> None:
        """Feed one completed encounter into the churn bookkeeping."""
        if self.lifecycle is None:
            return
        self.lifecycle.note_encounter(a, b, now, self.metrics)
        assert self.reciprocity is not None
        for sync_stats in stats:
            self.reciprocity.observe_sync(
                sync_stats.source.name, sync_stats.target.name,
                sync_stats.sent_total,
            )

    async def _replay_step(self, step: ScheduleStep) -> None:
        if step.kind == "assign":
            day_map = step.payload["addresses"]
            self._current_day_map = day_map
            # Mirror Emulator._apply_assignment: every *online* node gets
            # its (or an empty) user set, offline nodes keep their
            # crash-time filter until rejoin, and the user->node view is
            # rebuilt over online nodes only.
            for name, node in self.nodes.items():
                if not self._online(name):
                    continue
                reply = await self._command(
                    node,
                    {
                        "type": "assign",
                        "time": step.time,
                        "addresses": day_map.get(name, []),
                    },
                    "assign-ok",
                )
                self._record_deliveries(reply.get("deliveries"))
            self._user_location = {
                user: name
                for name, users in day_map.items()
                for user in users
                if self._online(name)
            }
        elif step.kind == "inject":
            source = step.payload["source"]
            if source in self.nodes:
                node_name: Optional[str] = source
            else:
                node_name = self._user_location.get(source)
            if node_name is None:
                self.skipped_injections += 1
                return
            if not self._online(node_name):
                # Mirror Emulator._inject: the sending node is down, the
                # message is never born — a counted churn cost.
                self.metrics.record_churn_lost_injection()
                return
            node = self.nodes[node_name]
            reply = await self._command(
                node,
                {
                    "type": "inject",
                    "time": step.time,
                    "source": source,
                    "destination": step.payload["destination"],
                    "body": step.payload["body"],
                },
                "inject-ok",
            )
            self.metrics.record_injection(
                decode_item_id(reply["message_id"]),
                source,
                step.payload["destination"],
                step.time,
                node_name,
            )
            self._record_deliveries(reply.get("deliveries"))
        elif step.kind == "encounter":
            assert step.first is not None and step.second is not None
            if self.lifecycle is not None:
                # Same gate order as Emulator._run_encounter (the role
                # coin was already consumed when the schedule was built).
                if not (
                    self._online(step.first) and self._online(step.second)
                ):
                    self.metrics.record_churn_skip()
                    return
                assert self.reciprocity is not None
                if not self.reciprocity.admit(step.first, step.second):
                    self.metrics.record_reciprocity_refusal()
                    return
            first = self.nodes[step.first]
            second = self.nodes[step.second]
            reply = await self._command(
                first,
                {
                    "type": "encounter",
                    "time": step.time,
                    "peer": second.name,
                    "address": second.address,
                    "budget": step.budget,
                },
                "encounter-ok",
            )
            stats = [SyncStats.from_dict(raw) for raw in reply["syncs"]]
            self.metrics.record_encounter()
            self._observe_syncs(step.first, step.second, stats, step.time)
            for sync_stats in stats:
                self.metrics.record_sync(sync_stats)
            self._record_deliveries(reply.get("deliveries"))
        elif step.kind == "lifecycle":
            await self._apply_lifecycle(step)
        else:
            raise ValueError(f"unknown schedule step kind {step.kind!r}")

    async def _apply_lifecycle(self, step: ScheduleStep) -> None:
        """Apply one churn event against the real process fleet.

        Mirrors ``Emulator._apply_lifecycle``, except the state
        transitions are physical: a graceful leaver checkpoints and exits,
        a crash is an image of durable state followed by SIGKILL, and a
        rejoin is a fresh ``repro serve`` process booting from (all of,
        or — amnesiac — only the id counters of) that checkpoint.
        """
        assert self.lifecycle is not None
        payload = step.payload
        kind = str(payload["kind"])
        name = str(payload["node"])
        node = self.nodes[name]
        now = step.time
        if kind == "leave" and payload.get("partner"):
            await self._run_handoff(name, str(payload["partner"]), now)
        if kind in ("leave", "crash"):
            for user in self._current_day_map.get(name, []):
                if self._user_location.get(user) == name:
                    del self._user_location[user]
        if kind == "leave":
            assert node.control is not None
            await node.control.send({"type": "shutdown", "persist": True})
            await node.control.receive()  # shutdown-ok (checkpoint path)
            await node.control.close()
            node.control = None
            if node.process is not None:
                await node.process.wait()
                node.process = None
        elif kind == "crash":
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
        elif kind == "rejoin":
            await self._spawn(node, amnesiac=bool(payload.get("amnesiac")))
            await self._connect(node)
        self.lifecycle.apply(
            LifecycleEvent(
                time=step.time,
                kind=kind,
                node=name,
                partner=payload.get("partner"),
                amnesiac=bool(payload.get("amnesiac")),
            ),
            now,
            self.metrics,
        )
        if kind in ("arrive", "rejoin"):
            users = list(self._current_day_map.get(name, []))
            reply = await self._command(
                node,
                {"type": "assign", "time": now, "addresses": users},
                "assign-ok",
            )
            self._record_deliveries(reply.get("deliveries"))
            for user in users:
                self._user_location[user] = name

    async def _run_handoff(self, leaver: str, partner: str, now: float) -> None:
        """The graceful leaver's final, unbudgeted sync pair."""
        second = self.nodes[partner]
        reply = await self._command(
            self.nodes[leaver],
            {
                "type": "encounter",
                "time": now,
                "peer": partner,
                "address": second.address,
                "budget": None,
            },
            "encounter-ok",
        )
        stats = [SyncStats.from_dict(raw) for raw in reply["syncs"]]
        self.metrics.record_encounter()
        self.metrics.record_churn_handoff()
        self._observe_syncs(leaver, partner, stats, now)
        for sync_stats in stats:
            self.metrics.record_sync(sync_stats)
        self._record_deliveries(reply.get("deliveries"))

    async def replay(self) -> None:
        for step in self.steps:
            await self._replay_step(step)

    # -- end of run -----------------------------------------------------------

    async def collect(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot every node; finalise metrics from the global view."""
        fixed_points: Dict[str, Dict[str, Any]] = {}
        held: Dict[str, set] = {}
        evictions = 0
        for name in sorted(self.nodes):
            node = self.nodes[name]
            if node.control is None:
                # Departed (left or crashed-without-rejoining) node: its
                # process is gone, so snapshot the checkpoint it wrote on
                # the way down — exactly the state the emulator's frozen
                # node holds at end of run. Its eviction counter died
                # with the process; pre-departure evictions on such
                # nodes are the one counter the live path undercounts.
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
            evictions += int(reply.get("evictions", 0))
        self.metrics.evictions = evictions
        self.metrics.end_time = self.end_time
        for record in self.metrics.records.values():
            key = str(record.message_id)
            record.copies_at_end = sum(
                1 for ids in held.values() if key in ids
            )
        if self.lifecycle is not None:
            assert self.reciprocity is not None
            node_seconds = self.lifecycle.finalize(self.end_time)
            self.metrics.finalize_churn(
                node_seconds,
                self.lifecycle.departed,
                self.reciprocity.scores(),
            )
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
            "skipped_injections": swarm.skipped_injections,
            "churn": swarm.lifecycle is not None,
        },
    )
    report = SwarmReport(
        run_id=run_id,
        fixed_points=fixed_points,
        metrics=swarm.metrics,
        document=document,
        checkpoints=checkpoints,
        skipped_injections=swarm.skipped_injections,
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
