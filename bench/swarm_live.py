"""``swarm_live`` — real ``repro serve`` processes over unix sockets.

One client with one outstanding directive (closed loop) drives 4 nodes
over their control channels through 1 200 cycles of (8 messages injected
at seeded-random authors, then one seeded-random pair meets, seeded
initiator): 9 600 messages, every encounter directive timed, then two
drain sweeps over all 6 pairs, then snapshot-and-compare with an
in-process replay of the same tape (couchdyno's n→n continuous
replication, compared at the end). Items moved per encounter are spread
smoothly around their mean of 24 (p50 23, p99 ≈ 70, the same for every
seed), so p50 is half fixed floor and half per-item cost, and p99 is
batch-size driven.

Only here do ``net.framing``, sockets, ``replication.codec``, per-entry
checksums and process hops do work. Unix-socket loop-back is not a
link: the latencies are this host's, not a network's.

The driver and every server are pinned to one CPU. The directive flow is
a strict ping-pong — one process runs at a time — so a second CPU buys
nothing but cross-CPU wake-ups, and the box's two vCPUs change speed
independently: the speed meter's ticks (made here between directives,
while the servers are idle) must see the CPU the servers run on. Pinned,
ten runs spread 2 % on ``wall_s`` and p50; unpinned, 6–8 %.

The traced run adds the *replay* phase — ``run_swarm`` at ``scale=0.6``
under epidemic (21 processes, 1 172 encounters), fixed points compared
with the emulator's — as a per-layer probe. It cannot be an end-to-end
metric on the reference box: the orchestrator owns that loop, the speed
meter cannot tick inside it without reading the servers' own load as a
slow machine, and raw its wall time spreads over 13–28 %.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.api import (
    EncounterSession,
    ExperimentConfig,
    SwarmConfig,
    compare_fixed_points,
    replica_fixed_point,
    run_swarm,
)
from repro.experiments import build_scenario, run_scenario
from repro.net import FrameDecoder, encode_frame

from harness import (
    OUT_DIR,
    SRC,
    Recorder,
    SpeedMeter,
    Tracer,
    passes,
    percentile,
    slope,
    span,
)

SIZES = {
    "full": dict(cycles=1200, inject=8, replay_scale=0.6),
    "tiny": dict(cycles=60, inject=8, replay_scale=0.3),
}
NODES = 4
#: The scenario the directed nodes are built from; only its first NODES
#: hosts are spawned, and the tape below replaces its schedule.
DIRECTED_SCALE = 0.25
SET_UPS = 3
RUNTIME = OUT_DIR / "swarm"
STATUS_PROBES = 1000
FLOOR_PROBES = 200
STARTUP_TIMEOUT_S = 60.0
#: run.py lets the speed meter tick by signal unless a workload says
#: this. Here a tick by signal would overlap the servers' work, so the
#: driver ticks the meter itself while they are idle: every
#: TICK_EVERY_CYCLES cycles (~0.4 s of directives).
TICKS_ITSELF = True
TICK_EVERY_CYCLES = 50

Step = Tuple[Any, ...]


class Control:
    """A blocking control channel to one node (docs/protocol.md §9)."""

    def __init__(self, path: str, node: str) -> None:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while True:
            self.sock = socket.socket(socket.AF_UNIX)
            try:
                self.sock.connect(path)
                break
            except OSError:
                self.sock.close()
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        self.sock.settimeout(STARTUP_TIMEOUT_S)
        self._decoder = FrameDecoder()
        self._inbox: List[Dict[str, Any]] = []
        hello = self.call({"type": "hello", "node": "bench", "protocol": 1})
        if hello.get("type") != "hello" or hello.get("node") != node:
            raise RuntimeError(f"unexpected greeting from {node}: {hello!r}")

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.sock.sendall(encode_frame(message))
        while not self._inbox:
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("node closed its control channel")
            self._inbox.extend(self._decoder.feed(data))
        return self._inbox.pop(0)

    def expect(self, message: Dict[str, Any], reply_type: str) -> Dict[str, Any]:
        reply = self.call(message)
        if reply.get("type") != reply_type:
            raise RuntimeError(f"{message['type']!r} answered {reply!r}")
        return reply


class Fleet:
    """The directed phase's ``repro serve`` processes and their channels."""

    def __init__(self, config: ExperimentConfig, names: List[str]) -> None:
        self.names = names
        self.processes: Dict[str, subprocess.Popen] = {}
        self.controls: Dict[str, Control] = {}
        RUNTIME.mkdir(parents=True, exist_ok=True)
        self._config_path = RUNTIME / "experiment.json"
        self._config_path.write_text(json.dumps(config.to_dict()))
        existing = os.environ.get("PYTHONPATH")
        self._env = dict(
            os.environ,
            PYTHONPATH=str(SRC) + (os.pathsep + existing if existing else ""),
        )

    def address(self, name: str) -> str:
        return f"unix:{RUNTIME / (name + '.sock')}"

    def spawn(self, name: str) -> None:
        (RUNTIME / f"{name}.sock").unlink(missing_ok=True)
        with (RUNTIME / f"{name}.log").open("ab") as log:
            self.processes[name] = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--config", str(self._config_path),
                    "--node", name,
                    "--listen", self.address(name),
                    "--state-dir", str(RUNTIME / "state"),
                ],
                env=self._env,
                stderr=log,
            )

    def connect(self, name: str) -> None:
        self.controls[name] = Control(str(RUNTIME / f"{name}.sock"), name)

    def start(self) -> Tuple[float, float]:
        """Spawn every node; stamps of the first fork and the last hello."""
        shutil.rmtree(RUNTIME / "state", ignore_errors=True)
        started = time.perf_counter()
        for name in self.names:
            self.spawn(name)
        for name in self.names:
            self.connect(name)
        return started, time.perf_counter()

    def cpu_seconds(self) -> float:
        """User + system CPU the live server processes have used so far."""
        ticks = 0
        for process in self.processes.values():
            with open(f"/proc/{process.pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rpartition(")")[2].split()
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def kill(self, name: str) -> None:
        self.controls.pop(name).sock.close()
        process = self.processes.pop(name)
        process.send_signal(signal.SIGKILL)
        process.wait()

    def stop(self) -> None:
        """Shut every node down and wait for it; kill what will not go."""
        for control in self.controls.values():
            try:
                control.call({"type": "shutdown", "persist": False})
            except OSError:
                pass
            control.sock.close()
        self.controls.clear()
        for process in self.processes.values():
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.processes.clear()


def build_tape(
    size: Dict[str, Any], names: List[str], seed: int
) -> Tuple[List[List[Step]], List[Step]]:
    """``(cycles, drain)``. Steps are ("inject", t, author, to, body) and
    ("encounter", t, initiator, peer), t in simulated seconds.

    A rotating author and an all-pairs sweep per cycle would converge
    the fleet every cycle: half the encounters would move a whole batch
    and half nothing, and p50 would sit on the cliff between the two.
    Random authors and one random pair per cycle spread the sizes.
    """
    rng = random.Random(seed)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    now = 0.0
    cycles: List[List[Step]] = []
    for cycle in range(size["cycles"]):
        steps: List[Step] = []
        for serial in range(size["inject"]):
            writer = rng.choice(names)
            others = [name for name in names if name != writer]
            now += 1.0
            steps.append(
                ("inject", now, writer, rng.choice(others), f"m{cycle}.{serial}")
            )
        a, b = rng.choice(pairs)
        now += 1.0
        steps.append(
            ("encounter", now, a, b) if rng.random() < 0.5
            else ("encounter", now, b, a)
        )
        cycles.append(steps)
    drain: List[Step] = []
    for _ in range(2):
        for a, b in pairs:
            now += 1.0
            drain.append(("encounter", now, a, b))
    return cycles, drain


class Driven:
    """Per-encounter samples of the directives :func:`drive` sent."""

    def __init__(self) -> None:
        self.stamps: List[Tuple[float, float]] = []
        self.moved: List[int] = []

    def latencies_ms(self, meter: SpeedMeter) -> List[float]:
        return [meter.seconds(a, b) * 1000.0 for a, b in self.stamps]


def drive(
    fleet: Fleet, steps: List[Step], tracer: Optional[Tracer], driven: Driven
) -> None:
    """Send each step and wait for its reply; time the encounters."""
    clock = time.perf_counter
    for step in steps:
        control = fleet.controls[step[2]]
        with span(tracer, step[0]):
            if step[0] == "inject":
                _, now, writer, destination, body = step
                control.expect(
                    {
                        "type": "inject", "time": now, "source": writer,
                        "destination": destination, "body": body,
                    },
                    "inject-ok",
                )
                continue
            _, now, _initiator, peer = step
            opened = clock()
            reply = control.expect(
                {
                    "type": "encounter", "time": now, "peer": peer,
                    "address": fleet.address(peer), "budget": None,
                },
                "encounter-ok",
            )
            driven.stamps.append((opened, clock()))
            driven.moved.append(sum(sync["sent_total"] for sync in reply["syncs"]))


def replay_in_process(
    config: ExperimentConfig, names: List[str], steps: List[Step], meter: SpeedMeter
) -> Tuple[float, Dict[str, Any]]:
    """The reference: the same tape through in-process sessions.

    Returns the tape's wall seconds and the nodes' fixed points.
    """
    nodes = build_scenario(config).nodes
    with meter:  # no server is running: ticking by signal is safe here
        started = time.perf_counter()
        for step in steps:
            if step[0] == "inject":
                _, now, writer, destination, body = step
                nodes[writer].send(writer, destination, body, now=now)
            else:
                _, now, initiator, peer = step
                EncounterSession(
                    first=nodes[initiator].endpoint,
                    second=nodes[peer].endpoint,
                    now=now,
                ).run()
        wall_s = meter.seconds(started, time.perf_counter())
    return wall_s, {
        name: replica_fixed_point(nodes[name].replica) for name in names
    }


def snapshots(fleet: Fleet) -> Dict[str, Any]:
    return {
        name: control.expect({"type": "snapshot"}, "snapshot-ok")["fixed_point"]
        for name, control in fleet.controls.items()
    }


def check_parity(
    recorder: Recorder, phase: str, reference: Dict[str, Any], live: Dict[str, Any]
) -> None:
    report = compare_fixed_points(reference, live)
    recorder.check(
        report.equal,
        f"{phase}: live fixed points differ from the in-process reference "
        f"on {report.mismatched_nodes}",
    )


def probe_floor(
    fleet: Fleet, meter: SpeedMeter, layers: Dict[str, Optional[float]]
) -> None:
    """Fixed costs, on the converged (drained) fleet: nothing moves."""
    first, second = fleet.names[0], fleet.names[1]
    clock = time.perf_counter
    stamps = []
    for _ in range(STATUS_PROBES):
        opened = clock()
        # Any reply is a round trip; whether ``status`` itself succeeds
        # is not this probe's business.
        fleet.controls[first].call({"type": "status"})
        stamps.append((opened, clock()))
    layers["net.directive_rtt_ms_p50"] = 1000.0 * percentile(
        [meter.seconds(a, b) for a, b in stamps], 50
    )
    floor = Driven()
    drive(fleet, [("encounter", 0.0, first, second)] * FLOOR_PROBES, None, floor)
    layers["net.encounter_floor_ms_p50"] = percentile(floor.latencies_ms(meter), 50)


def probe_persistence(
    fleet: Fleet, recorder: Recorder, layers: Dict[str, Optional[float]]
) -> None:
    """Checkpoint a full node, kill -9 it, respawn it from the file."""
    name = fleet.names[0]
    before = fleet.controls[name].expect({"type": "snapshot"}, "snapshot-ok")
    seconds, _ = recorder.meter.timed(
        lambda: fleet.controls[name].expect({"type": "checkpoint"}, "checkpoint-ok")
    )
    layers["persistence.checkpoint_ms"] = seconds * 1000.0
    fleet.kill(name)

    def respawn() -> None:
        fleet.spawn(name)
        fleet.connect(name)

    layers["persistence.restore_s"] = recorder.meter.timed(respawn)[0]
    after = fleet.controls[name].expect({"type": "snapshot"}, "snapshot-ok")
    recorder.check(
        after["fixed_point"] == before["fixed_point"],
        f"{name} restored a different state than it checkpointed",
    )


def directed_phase(
    size: Dict[str, Any],
    seed: int,
    tracer: Optional[Tracer],
    recorder: Recorder,
) -> Tuple[float, Driven]:
    """Returns the cycles' wall seconds and their per-encounter samples."""
    config = ExperimentConfig(scale=DIRECTED_SCALE, policy="epidemic")
    names = sorted(build_scenario(config).nodes)[:NODES]
    cycles, drain = build_tape(size, names, seed)
    layers = recorder.layers
    meter = recorder.meter
    fleet = Fleet(config, names)
    driven = Driven()
    try:
        # One discarded warm-up spawn, then SET_UPS timed ones; the last
        # fleet stays up for the tape.
        for attempt in range(SET_UPS + 1):
            if attempt:
                fleet.stop()
            meter.tick()
            stamps = fleet.start()
            meter.tick()
            if attempt:
                recorder.setup_s.append(meter.seconds(*stamps))
        servers_cpu = fleet.cpu_seconds()
        driver_cpu = time.process_time()
        started = time.perf_counter()
        for number, steps in enumerate(cycles):
            if number % TICK_EVERY_CYCLES == 0:
                meter.tick()
            with span(tracer, "cycle"):
                drive(fleet, steps, tracer, driven)
        wall_s = meter.seconds(started, time.perf_counter())
        meter.tick()
        driver_cpu = time.process_time() - driver_cpu
        servers_cpu = fleet.cpu_seconds() - servers_cpu
        drive(fleet, drain, tracer, Driven())
        live = snapshots(fleet)
        if tracer is not None:
            probe_floor(fleet, meter, layers)
            probe_persistence(fleet, recorder, layers)
    finally:
        fleet.stop()
    recorder.operations(sum(len(steps) for steps in cycles) + len(drain))

    tape = [step for steps in cycles for step in steps]
    inproc_s, reference = replay_in_process(config, names, tape + drain, meter)
    check_parity(recorder, "directed", reference, live)
    if tracer is not None:
        layers["net.ms_per_item"] = slope(driven.moved, driven.latencies_ms(meter))
        layers["net.inproc_wall_s"] = inproc_s
        layers["net.live_overhead_share"] = 1.0 - inproc_s / wall_s
        layers["net.server_cpu_s"] = servers_cpu
        layers["net.driver_cpu_s"] = driver_cpu
        layers["net.spawn_s_per_node"] = recorder.setup_s[-1] / len(names)
    return wall_s, driven


def replay_phase(
    size: Dict[str, Any],
    seed: int,
    tracer: Tracer,
    recorder: Recorder,
) -> Dict[str, Any]:
    """The traced run's probe of the orchestrator; returns its summary."""
    config = ExperimentConfig(
        scale=size["replay_scale"],
        policy="epidemic",
        email_seed=seed,
        assignment_seed=seed + 1,
        workload_seed=seed + 2,
        encounter_order_seed=seed + 3,
    )
    # A stale runtime dir would hand the servers an old checkpoint.
    shutil.rmtree(RUNTIME / "replay", ignore_errors=True)
    swarm = SwarmConfig(experiment=config, runtime_dir=str(RUNTIME / "replay"))
    recorder.meter.tick()
    with span(tracer, "replay"):
        wall_s, report = recorder.meter.timed(lambda: run_swarm(swarm))
    recorder.meter.tick()
    summary = report.metrics.summary()
    recorder.operations(int(summary["encounters"]))

    scenario = build_scenario(config)
    emulated = run_scenario(scenario).summary()
    check_parity(
        recorder,
        "replay",
        {
            name: replica_fixed_point(node.replica)
            for name, node in scenario.nodes.items()
        },
        report.fixed_points,
    )
    recorder.check(
        (summary["injected"], summary["delivered"], summary["transmissions"])
        == (emulated["injected"], emulated["delivered"], emulated["transmissions"]),
        "replay: swarm and emulator disagree on injected/delivered/transmissions",
    )
    recorder.layers["net.replay_ms_per_encounter"] = (
        wall_s / summary["encounters"] * 1000.0
    )
    return summary


def run(
    size_name: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    recorder: Recorder,
    expected: Optional[Dict[str, Any]],
) -> None:
    size = SIZES[size_name]
    recorder.rss_who = resource.RUSAGE_CHILDREN
    # Every process of the swarm inherits this: one CPU for all of them,
    # the one the speed meter ticks on (see the module docstring).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for _ in passes(seconds if tracer is None else 0.0):
        wall_s, driven = directed_phase(size, seed, tracer, recorder)
        recorder.add_timed_encounters(
            wall_s, sum(driven.moved), driven.latencies_ms(recorder.meter)
        )
    recorder.simulated = {"items_moved": sum(driven.moved)}
    if tracer is not None:
        summary = replay_phase(size, seed, tracer, recorder)
        recorder.simulated.update(
            (f"replay.{key}", summary[key])
            for key in ("injected", "delivered", "transmissions", "mean_delay_hours")
        )
    recorder.check_pinned(expected)
