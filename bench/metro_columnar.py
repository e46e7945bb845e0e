"""``metro_columnar`` — the city-scale claim on the columnar engine.

``generate_metro_trace`` for 50 000 buses on 1 000 routes over 3 days
(0.69 M encounters), then one unsharded epidemic ``run_experiment`` on
the columnar core with 1 000 users and 2 000 messages. Trace generation
and world build are most of what the user waits for here, and the object
engine's ``replication`` and ``dtn`` layers do nothing: a change to them
predicts no change on this workload.

No sharded rung is run: the reference box has 2 cores, so a 4-worker
speedup is a number this hardware cannot produce (see README.md).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.api import (
    ExperimentConfig,
    MetroConfig,
    generate_metro_trace,
    run_experiment,
)

from harness import (
    SAMPLED_LAYERS,
    Recorder,
    StackSampler,
    Tracer,
    passes,
    pinned_view,
    repeat_setup,
    soft_import,
)

SIZES = {
    "full": dict(
        n_buses=50000, n_routes=1000, days=3, n_users=1000, target_messages=2000
    ),
    "tiny": dict(
        n_buses=600, n_routes=12, days=4, n_users=60, target_messages=120
    ),
}


def soft_world(config: ExperimentConfig, trace: Any, tracer: Tracer) -> Any:
    """The built columnar world, or None when the soft probe is gone.

    ``build_world`` and ``world.run()`` are what ``run_experiment`` calls
    for this config, but they are not part of the supported surface: if
    a later PR removes or reshapes them, world build goes unmeasured and
    the supported entry point makes the traced pass instead.
    """
    build_world = soft_import("repro.emulation.columnar", "build_world")
    if build_world is None:
        return None
    try:
        world, _ = tracer.call(
            "columnar.build_world", build_world, config, trace=trace
        )
    except TypeError:
        return None
    return world if callable(getattr(world, "run", None)) else None


def run(
    size_name: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    recorder: Recorder,
    expected: Optional[Dict[str, Any]],
) -> None:
    size = SIZES[size_name]
    metro = MetroConfig(
        seed=seed,
        n_buses=size["n_buses"],
        n_routes=size["n_routes"],
        days=size["days"],
    )
    config = ExperimentConfig(
        engine="columnar",
        policy="epidemic",
        n_users=size["n_users"],
        target_messages=size["target_messages"],
        injection_days=max(1, size["days"] // 2),
        email_seed=seed,
        assignment_seed=seed + 1,
        workload_seed=seed + 2,
        encounter_order_seed=seed + 3,
    )
    sampler = StackSampler()
    meter = recorder.meter

    for _ in passes(seconds if tracer is None else 0.0):
        if tracer is None:
            setup_s, trace = meter.timed(lambda: generate_metro_trace(metro))
            recorder.setup_s.append(setup_s)
        else:
            with sampler:
                trace = tracer.call("traces.metro", generate_metro_trace, metro)
        wall_s, result = meter.timed(lambda: run_experiment(config, trace=trace))
        summary = result.summary()
        del result
        mean_ms = wall_s / summary["encounters"] * 1000.0
        recorder.add_pass(wall_s, int(summary["transmissions"]), mean_ms, mean_ms, 1)
        recorder.operations(1)

    recorder.check(
        summary["encounters"] == len(trace)
        and 0 < summary["delivered"] <= summary["injected"] <= size["target_messages"]
        and summary["transmissions"] > 0,
        f"implausible statistics: {len(trace)} trace encounters, "
        f"{summary['encounters']} run, {pinned_view(summary)}",
    )
    recorder.simulated = dict(pinned_view(summary), encounters=summary["encounters"])
    recorder.check_pinned(expected)

    if tracer is None:
        del trace
        repeat_setup(
            recorder.setup_s,
            lambda: meter.timed(lambda: generate_metro_trace(metro))[0],
        )
        return

    layers = recorder.layers
    with sampler:
        run_span = tracer.begin("workload")
        world = soft_world(config, trace, tracer)
        if world is None:
            layers["columnar.build_world_s"] = None
            traced = tracer.call(
                "emulation.run", run_experiment, config, trace=trace
            ).metrics
        else:
            layers["columnar.build_world_s"] = tracer.totals()["columnar.build_world"]
            traced = tracer.call("emulation.run", world.run)
        tracer.end(run_span)
    traced_wall_s = tracer.seconds(run_span)
    recorder.check(
        pinned_view(traced.summary()) == pinned_view(summary),
        "traced pass simulated different statistics than the untraced pass",
    )
    layers["traces.metro_s"] = tracer.totals()["traces.metro"]
    layers["columnar.us_per_encounter"] = wall_s / summary["encounters"] * 1e6
    layers.update(sampler.self_shares(SAMPLED_LAYERS))
    layers["trace_overhead_share"] = (traced_wall_s - wall_s) / wall_s
