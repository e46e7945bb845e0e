"""Command-line interface: run experiments and regenerate figures.

Usage (installed as ``python -m repro``):

    python -m repro trace [--scale S] [--seed N] [--export PATH]
    python -m repro run [SCENARIO] [--fault-drop P] [--fault-truncation P]
                        [--fault-duplication P] [--fault-crash P]
                        [--fault-corruption P] [--fault-replay P]
                        [--fault-fabrication P] [--fault-malformed P]
                        [--fault-seed N] [--json PATH]
    python -m repro serve --node NAME --listen ADDR --config PATH
                          [--state-dir DIR] [--read-timeout S] [--amnesiac]
    python -m repro swarm [SCENARIO] [--transport unix|tcp] [--base-port N]
                          [--output PATH] [--parity]
    python -m repro sweep [--policies P ...] [--seeds N ...]
                          [--bandwidth-limits N|none ...]
                          [--storage-limits N|none ...]
                          [--scale S] [--workers N] [--no-resume]
                          [--timeout SECONDS] [--report]
                          [--filter LABEL] [--results-dir DIR]
    python -m repro figure {5,6,7,8,9,10,all} [--scale S]
                           [--output-dir DIR] [--results-dir DIR]
    python -m repro tables

``SCENARIO`` is the flag set ``run`` and ``swarm`` share:

    [--policy P] [--scale S] [--bandwidth-limit N] [--storage-limit N]
    [--filter-strategy self|random|selected] [--filter-k K]
    [--addressing bus|user]
    [--churn-arrivals F] [--churn-departures F] [--churn-crashes F]
    [--churn-amnesia P] [--churn-free-riders F]
    [--reciprocity-threshold R] [--churn-seed N]

Every command prints paper-style rows; ``figure`` also honours
``--output-dir`` to persist them, and ``sweep`` materializes every run as
a JSON artifact in the content-addressed store (see ``docs/sweeps.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
from typing import Optional, Sequence

from repro.dtn.registry import PAPER_POLICY_ORDER, available_policies
from repro.experiments.config import ExperimentConfig, configured_scale
from repro.experiments.figures import (
    FIGURE_TITLES,
    figure_5,
    figure_6,
    figure_7,
    figure_8,
    figure_9,
    figure_10,
)
from repro.experiments.report import (
    render_figure_8,
    render_series_table,
    render_summary_rows,
    render_table_1,
    render_table_2,
    run_summary_document,
)
from repro.churn import ChurnConfig
from repro.experiments.runner import run_experiment
from repro.experiments.store import RunStore
from repro.faults import FaultConfig
from repro.traces.dieselnet import (
    DieselNetConfig,
    format_trace_text,
    generate_dieselnet_trace,
)
from repro.traces.workload import WorkloadError


def _add_scenario_arguments(
    command: argparse.ArgumentParser, default_policy: str
) -> None:
    """The scenario flags ``run`` and ``swarm`` share."""
    command.add_argument(
        "--policy", default=default_policy,
        choices=sorted(available_policies()),
    )
    command.add_argument("--scale", type=float, default=None)
    command.add_argument("--bandwidth-limit", type=int, default=None)
    command.add_argument("--storage-limit", type=int, default=None)
    command.add_argument(
        "--filter-strategy", choices=("self", "random", "selected"), default="self"
    )
    command.add_argument("--filter-k", type=int, default=0)
    command.add_argument(
        "--addressing", choices=("bus", "user"), default="bus",
        help="bus = the paper's model; user = dynamic-filter extension",
    )


#: ``repro run``'s fault flags: flag → (``FaultConfig`` field, metavar, help).
FAULT_FLAGS = {
    "--fault-drop": ("encounter_drop_probability", "P",
        "probability an encounter is dropped entirely"),
    "--fault-truncation": ("truncation_probability", "P",
        "probability a sync batch is cut mid-transfer"),
    "--fault-duplication": ("duplication_probability", "P",
        "probability a delivered batch entry arrives twice"),
    "--fault-crash": ("crash_probability", "P",
        "probability an encounter participant crash-restarts"),
    "--fault-corruption": ("corruption_probability", "P",
        "probability a delivered entry's payload is corrupted"),
    "--fault-replay": ("replay_probability", "P",
        "probability a sync session replays earlier frames"),
    "--fault-fabrication": ("fabrication_probability", "P",
        "probability a sync request's knowledge is inflated in transit"),
    "--fault-malformed": ("malformed_probability", "P",
        "probability a delivered entry becomes an undecodable frame"),
}

#: The churn flags ``run`` and ``swarm`` share, in the same shape.
CHURN_FLAGS = {
    "--churn-arrivals": ("arrival_fraction", "F",
        "fraction of hosts that arrive late instead of at t=0"),
    "--churn-departures": ("departure_fraction", "F",
        "fraction of hosts that leave gracefully (with a handoff sync)"),
    "--churn-crashes": ("crash_fraction", "F",
        "fraction of hosts that crash abruptly and later rejoin"),
    "--churn-amnesia": ("amnesia_probability", "P",
        "probability a crashed host rejoins amnesiac (lost its "
        "checkpoint) rather than from durable state (default 0.5)"),
    "--churn-free-riders": ("free_rider_fraction", "F",
        "fraction of hosts that receive but never send"),
    "--reciprocity-threshold": ("reciprocity_threshold", "R",
        "refuse encounters with peers whose taken/given ratio "
        "exceeds R (0 disables the gate)"),
    "--churn-seed": ("seed", None,
        "seed for the lifecycle schedule RNG (default 0)"),
}


def _add_config_flags(group, cls, flags) -> None:
    """One flag per table row; its type and default are the field's."""
    defaults = cls()
    for flag, (field, metavar, help_text) in flags.items():
        default = getattr(defaults, field)
        group.add_argument(
            flag, type=type(default), default=default, metavar=metavar,
            help=help_text,
        )


def _add_churn_arguments(command: argparse.ArgumentParser) -> None:
    churn = command.add_argument_group(
        "node churn", "seeded lifecycle model (see docs/churn.md)"
    )
    _add_config_flags(churn, ChurnConfig, CHURN_FLAGS)


def _config_from_flags(cls, flags, args: argparse.Namespace):
    """The config the flags describe, or None when it is not enabled.

    Every value is validated, so an out-of-range one is refused even
    when nothing else in its group is set.
    """
    config = cls(**{
        field: getattr(args, flag[2:].replace("-", "_"))
        for flag, (field, _, _) in flags.items()
    })
    return config if config.enabled else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Peer-to-peer Data Replication Meets Delay "
            "Tolerant Networking' (ICDCS 2011)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    trace = subparsers.add_parser(
        "trace", help="generate the synthetic DieselNet trace and print stats"
    )
    trace.add_argument("--scale", type=float, default=None)
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument(
        "--export", type=pathlib.Path, default=None,
        help="write the trace in the text interchange format",
    )

    run = subparsers.add_parser("run", help="run one experiment configuration")
    _add_scenario_arguments(run, default_policy="cimbiosys")
    faults = run.add_argument_group(
        "fault injection", "seeded fault models (see docs/faults.md)"
    )
    _add_config_flags(faults, FaultConfig, FAULT_FLAGS)
    faults.add_argument(
        "--fault-seed", type=int, default=23,
        help="seed for the fault injector's RNG (default 23)",
    )
    _add_churn_arguments(run)
    run.add_argument(
        "--json", type=pathlib.Path, default=None, metavar="PATH",
        help="also write the run summary (and fault counters, when armed) "
             "as a JSON document",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run one replica as a live networked daemon "
             "(see docs/deployment.md)",
    )
    serve.add_argument(
        "--node", required=True, metavar="NAME",
        help="which trace host this process embodies",
    )
    serve.add_argument(
        "--listen", required=True, metavar="ADDR",
        help="listen address: unix:/path/to.sock or tcp:host:port",
    )
    serve.add_argument(
        "--config", required=True, type=pathlib.Path, metavar="PATH",
        help="experiment config JSON (the ExperimentConfig.to_dict() shape)",
    )
    serve.add_argument(
        "--state-dir", type=pathlib.Path, default=None, metavar="DIR",
        help="directory for checkpoint save/restore (enables persistence)",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-read socket timeout (default 30)",
    )
    serve.add_argument(
        "--amnesiac", action="store_true",
        help="rejoin having lost everything but identity: ignore any "
             "checkpoint except its id-factory counters",
    )

    swarm = subparsers.add_parser(
        "swarm",
        help="spawn a live N-process swarm and replay the trace schedule",
    )
    _add_scenario_arguments(swarm, default_policy="epidemic")
    swarm.add_argument(
        "--transport", choices=("unix", "tcp"), default="unix",
        help="peer channel flavour (default unix sockets)",
    )
    swarm.add_argument(
        "--base-port", type=int, default=42640,
        help="first TCP port when --transport tcp (node i gets base+i)",
    )
    swarm.add_argument(
        "--output", type=pathlib.Path, default=None, metavar="PATH",
        help="metrics artifact path (default swarm-<run-id>.json)",
    )
    _add_churn_arguments(swarm)
    swarm.add_argument(
        "--parity", action="store_true",
        help="also run the discrete-event emulator on the same config and "
             "fail unless both reach the same per-node fixed point",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="run a config grid across worker processes into the run store",
    )
    sweep.add_argument(
        "--policies", nargs="+", default=list(PAPER_POLICY_ORDER),
        metavar="POLICY",
        help="policies on the grid (default: the paper's five)",
    )
    sweep.add_argument(
        "--seeds", nargs="+", type=int, default=[0], metavar="N",
        help="replicate seeds; each offsets every determinism knob",
    )
    sweep.add_argument(
        "--bandwidth-limits", nargs="+", default=None, metavar="N|none",
        help="bandwidth caps on the grid ('none' = unconstrained)",
    )
    sweep.add_argument(
        "--storage-limits", nargs="+", default=None, metavar="N|none",
        help="storage caps on the grid ('none' = unconstrained)",
    )
    sweep.add_argument("--scale", type=float, default=None)
    sweep.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: the machine's CPU count)",
    )
    sweep.add_argument(
        "--no-resume", action="store_true",
        help="re-run cells whose artifacts already exist (overwrites them)",
    )
    sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget; overdue workers are killed and "
             "the run is recorded as failed (retried on resume)",
    )
    sweep.add_argument(
        "--filter", default=None, metavar="LABEL",
        help="only run grid cells whose label contains this substring",
    )
    sweep.add_argument(
        "--results-dir", type=pathlib.Path,
        default=pathlib.Path("results") / "runs",
        help="artifact store root (default results/runs)",
    )
    sweep.add_argument(
        "--report", action="store_true",
        help="after the sweep, print summary tables read back from the "
             "artifact store",
    )

    figure = subparsers.add_parser(
        "figure", help="regenerate a figure of the paper's evaluation"
    )
    figure.add_argument(
        "which", choices=("5", "6", "7", "8", "9", "10", "all")
    )
    figure.add_argument("--scale", type=float, default=None)
    figure.add_argument("--output-dir", type=pathlib.Path, default=None)
    figure.add_argument(
        "--results-dir", type=pathlib.Path, default=None, metavar="DIR",
        help="read/write run artifacts in this store instead of a "
             "temporary one (e.g. results/runs)",
    )

    subparsers.add_parser("tables", help="print Tables I and II")
    return parser


def _usage_error(reason: object) -> int:
    print(f"error: {reason}", file=sys.stderr)
    return 2


def _scale(value: Optional[float]) -> float:
    """``--scale``, else ``REPRO_SCALE``, else the default; in (0, 1]."""
    scale = value if value is not None else configured_scale()
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    return scale


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.contacts import TraceProfile

    config = DieselNetConfig(seed=args.seed, scale=args.scale)
    trace = generate_dieselnet_trace(config)
    print(TraceProfile.of(trace).render())
    if args.export is not None:
        with open(args.export, "w") as stream:
            for line in format_trace_text(trace):
                stream.write(line + "\n")
        print(f"exported {len(trace)} encounters to {args.export}")
    return 0


#: Fault counters appended to ``repro run`` output when faults are armed.
FAULT_COUNTER_KEYS = (
    "dropped_encounters",
    "backoff_skips",
    "interrupted_syncs",
    "resumed_pairs",
    "crashes",
    "lost_transmissions",
    "redundant_transmissions",
    "quarantined_entries",
    "rejected_knowledge",
    "quarantine_skips",
    "protocol_violations",
    "peer_health_transitions",
)


def _experiment_config(args: argparse.Namespace, **extra) -> ExperimentConfig:
    """The config the scenario (and churn) flags describe.

    ``extra`` carries what only one command has (``run``'s fault knobs).
    """
    return ExperimentConfig(
        scale=args.scale,
        policy=args.policy,
        addressing=args.addressing,
        filter_strategy=args.filter_strategy,
        filter_k=args.filter_k,
        bandwidth_limit=args.bandwidth_limit,
        storage_limit=args.storage_limit,
        churn=_config_from_flags(ChurnConfig, CHURN_FLAGS, args),
        **extra,
    )


def cmd_run(args: argparse.Namespace) -> int:
    try:
        faults = _config_from_flags(FaultConfig, FAULT_FLAGS, args)
        config = _experiment_config(
            args, faults=faults, fault_seed=args.fault_seed
        )
    except ValueError as exc:
        return _usage_error(exc)
    result = run_experiment(config)
    summary = result.summary()
    print(f"experiment: {config.label()}  (scale {config.scale})")
    print(render_summary_rows({config.label(): summary}))
    if faults is not None:
        print()
        print(f"fault counters (fault seed {config.fault_seed}):")
        for key in FAULT_COUNTER_KEYS:
            print(f"{key:>24} | {summary[key]:>11.0f}")
    if result.metrics.churn is not None:
        print()
        print(f"churn counters (churn seed {config.churn.seed}):")
        counts = result.metrics.churn.summary()
        scores = counts.pop("reciprocity_scores")
        for key, value in counts.items():
            print(f"{key:>26} | {value:>11.2f}")
        if scores:
            print(f"{'reciprocity scores':>26} | " + ", ".join(
                f"{name}={value:.2f}" for name, value in sorted(scores.items())
            ))
    if args.json is not None:
        document = run_summary_document(
            kind="run",
            label=config.label(),
            scale=config.scale,
            fault_seed=config.fault_seed if faults is not None else None,
            summary=summary,
        )
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote summary to {args.json}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.net.server import ServeConfig, run_server

    try:
        raw = json.loads(args.config.read_text(encoding="utf-8"))
        config = ServeConfig(
            node=args.node,
            listen=args.listen,
            experiment=ExperimentConfig.from_dict(raw),
            state_dir=str(args.state_dir) if args.state_dir else None,
            read_timeout=args.read_timeout,
            amnesiac=args.amnesiac,
        )
    except (OSError, ValueError, KeyError) as exc:
        return _usage_error(exc)
    print(
        f"serving node {config.node} on {config.listen} "
        f"({config.experiment.label()})",
        file=sys.stderr,
    )
    asyncio.run(run_server(config))
    return 0


def cmd_swarm(args: argparse.Namespace) -> int:
    from repro.experiments.parity import (
        compare_fixed_points,
        emulator_fixed_points,
    )
    from repro.experiments.store import run_id_for
    from repro.net.swarm import SwarmConfig, run_swarm

    try:
        config = _experiment_config(args)
        swarm_config = SwarmConfig(
            experiment=config,
            transport=args.transport,
            base_port=args.base_port,
        )
    except ValueError as exc:
        return _usage_error(exc)
    output = args.output or pathlib.Path(f"swarm-{run_id_for(config)}.json")
    print(
        f"swarm: {config.label()}  (scale {config.scale}, "
        f"{args.transport} transport)"
    )
    report = run_swarm(swarm_config, output=str(output))
    print(render_summary_rows({config.label(): report.metrics.summary()}))
    print(f"wrote metrics artifact to {report.output_path}")
    if args.parity:
        parity = compare_fixed_points(
            emulator_fixed_points(config), report.fixed_points
        )
        if parity.equal:
            print(
                f"parity: OK — live swarm matches the emulator on all "
                f"{len(report.fixed_points)} nodes"
            )
        else:
            print(
                f"parity: MISMATCH on {sorted(parity.mismatched_nodes)}",
                file=sys.stderr,
            )
            for name, detail in sorted(parity.detail.items()):
                print(f"  {name}: {detail}", file=sys.stderr)
            return 1
    return 0


def _parse_limits(raw: Optional[Sequence[str]]) -> Sequence[Optional[int]]:
    """``["none", "1", "8"] → [None, 1, 8]`` for the sweep grid axes."""
    if raw is None:
        return ()
    limits = []
    for token in raw:
        limits.append(None if token.lower() == "none" else int(token))
    return limits


def _print_sweep_event(event) -> None:
    position = f"[{event.completed}/{event.total}]"
    if event.kind == "started":
        print(f"{position} start    {event.label}  ({event.run_id})")
    elif event.kind == "reused":
        print(f"{position} reused   {event.label}  ({event.run_id})")
    elif event.kind == "finished":
        telemetry = event.telemetry or {}
        counters = " ".join(
            f"{key}={telemetry[key]:g}"
            for key in ("delivered", "injected", "syncs", "transmissions")
            if key in telemetry
        )
        print(f"{position} finished {event.label}  {counters}")
    elif event.kind == "failed":
        print(f"{position} FAILED   {event.label}  ({event.run_id})")


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import expand_grid, filter_by_label, run_sweep

    try:
        for policy in args.policies:
            if policy.lower() not in available_policies():
                raise KeyError(
                    f"unknown policy {policy!r}; registered policies: "
                    f"{', '.join(available_policies())}"
                )
        base = ExperimentConfig(scale=args.scale)
        grid = expand_grid(
            base,
            policies=args.policies,
            bandwidth_limits=_parse_limits(args.bandwidth_limits),
            storage_limits=_parse_limits(args.storage_limits),
            seeds=args.seeds,
        )
    except (KeyError, TypeError, ValueError) as exc:
        return _usage_error(exc)
    if args.filter:
        grid = filter_by_label(grid, args.filter)
    if not grid:
        return _usage_error("the grid is empty after filtering")
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    store = RunStore(args.results_dir)
    try:
        report = run_sweep(
            grid,
            store=store,
            workers=workers,
            resume=not args.no_resume,
            progress=_print_sweep_event,
            timeout_s=args.timeout,
        )
    except ValueError as exc:
        return _usage_error(exc)
    print(
        f"sweep: {len(report.outcomes)} runs — "
        f"{report.completed} completed, {report.reused} reused, "
        f"{report.failed} failed "
        f"(wall {report.wall_clock_s:.1f}s, workers {workers})"
    )
    for outcome in report.outcomes:
        if outcome.status == "failed":
            print(f"--- {outcome.run_id} failed ---", file=sys.stderr)
            print(outcome.error, file=sys.stderr)
    if args.report:
        from repro.experiments.report import (
            render_measured_table,
            render_store_summary,
        )

        print()
        print(render_store_summary(store, label_filter=args.filter))
        print()
        print(render_measured_table(store))
    return 1 if report.failed else 0


def _emit(text: str, name: str, output_dir: Optional[pathlib.Path]) -> None:
    print(text)
    print()
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
        (output_dir / f"{name}.txt").write_text(text + "\n")


def cmd_figure(args: argparse.Namespace) -> int:
    """Run the figure's legs into ``--results-dir``'s store, or into one
    in a temporary directory that goes with the command."""
    try:
        if args.results_dir is not None:
            _figures(args, RunStore(args.results_dir))
        else:
            with tempfile.TemporaryDirectory(prefix="repro-figure-") as root:
                _figures(args, RunStore(root))
    except RuntimeError as exc:  # a failed leg
        return _usage_error(exc)
    return 0


def _figures(args: argparse.Namespace, store: RunStore) -> None:
    which = args.which
    scale = args.scale
    out = args.output_dir

    def series(name: str, axis: str, data) -> None:
        _emit(render_series_table(FIGURE_TITLES[name], axis, data), name, out)

    if which in ("5", "all"):
        series("fig5", "k", figure_5(scale, store))
    if which in ("6", "all"):
        series("fig6", "k", figure_6(scale, store))
    if which in ("7", "all"):
        curves = figure_7(scale, store)
        for name, axis in (("fig7a", "hours"), ("fig7b", "days")):
            series(name, axis, {p: curves[p][axis] for p in PAPER_POLICY_ORDER})
    if which in ("8", "all"):
        _emit(render_figure_8(figure_8(scale, store)), "fig8", out)
    if which in ("9", "all"):
        series("fig9", "hours", figure_9(scale, store))
    if which in ("10", "all"):
        series("fig10", "hours", figure_10(scale, store))


def cmd_tables(args: argparse.Namespace) -> int:
    print(render_table_1())
    print()
    print(render_table_2())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "trace": cmd_trace,
        "run": cmd_run,
        "serve": cmd_serve,
        "swarm": cmd_swarm,
        "sweep": cmd_sweep,
        "figure": cmd_figure,
        "tables": cmd_tables,
    }
    # A bad scale, or one too small to generate a workload at, is a
    # usage error on every command that takes one.
    try:
        if "scale" in args:
            args.scale = _scale(args.scale)
    except ValueError as exc:
        return _usage_error(exc)
    try:
        return handlers[args.command](args)
    except WorkloadError as exc:
        return _usage_error(exc)


if __name__ == "__main__":
    sys.exit(main())
