"""``paper_object`` — the paper's own evaluation on the object engine.

Nine legs of Section VI at ``scale=0.75`` (26 buses, 2 980 encounters,
368 messages each), every one ``build_scenario`` then ``run_scenario``.
Stores are small, so candidate enumeration, filter matching and policy
priority dominate while applying items is a few per cent (Spray and Wait
enumerates two orders of magnitude more candidates than it sends): a
gain for enumeration shows here and should leave ``substrate_flood``
unchanged. ``scale=1.0`` costs 3× as long per run, more than the
driver's time cap leaves room for on the reference box.

The mobility trace is the paper's fixed dataset (the DieselNet stand-in,
``trace_seed=42``): its encounter count varies ±20 % with the seed, which
would drown every timing. ``--seed`` draws everything else — the e-mail
model, the user→bus assignment, the injection schedule, the
encounter-order coin, the relay-filter draw and the fault stream.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from repro.api import (
    ExperimentConfig,
    FaultConfig,
    comparable_metrics,
    run_experiment,
)
from repro.experiments import build_scenario, run_scenario
from repro.traces import (
    DieselNetConfig,
    generate_dieselnet_trace,
    generate_enron_model,
)

from harness import (
    SAMPLED_LAYERS,
    Recorder,
    SpeedMeter,
    StackSampler,
    Tracer,
    cache_layers,
    passes,
    pinned_view,
    repeat_setup,
    share,
)

SIZES = {"full": {"scale": 0.75}, "tiny": {"scale": 0.3}}

LEGS: Dict[str, Dict[str, Any]] = {
    "fig7.cimbiosys": dict(policy="cimbiosys"),
    "fig7.epidemic": dict(policy="epidemic"),
    "fig7.spray": dict(policy="spray"),
    "fig7.prophet": dict(policy="prophet"),
    "fig7.maxprop": dict(policy="maxprop"),
    "fig9.maxprop": dict(policy="maxprop", bandwidth_limit=1),
    "fig10.maxprop": dict(policy="maxprop", storage_limit=2),
    "fig5.selected4": dict(
        policy="cimbiosys", filter_strategy="selected", filter_k=4
    ),
    "faults.epidemic": dict(
        policy="epidemic",
        faults=FaultConfig(
            encounter_drop_probability=0.1,
            truncation_probability=0.2,
            duplication_probability=0.1,
        ),
    ),
}

#: The fig7 legs inside the columnar engine's verified subset.
COLUMNAR_LEGS = ("fig7.cimbiosys", "fig7.epidemic", "fig7.spray")


def leg_configs(scale: float, seed: int) -> Dict[str, ExperimentConfig]:
    return {
        leg: ExperimentConfig(
            scale=scale,
            email_seed=seed,
            assignment_seed=seed + 1,
            workload_seed=seed + 2,
            encounter_order_seed=seed + 3,
            filter_seed=seed + 4,
            fault_seed=seed + 5,
            **knobs,
        )
        for leg, knobs in LEGS.items()
    }


def _untraced_pass(
    configs: Dict[str, ExperimentConfig], meter: SpeedMeter
) -> Dict[str, Any]:
    build_s: Dict[str, float] = {}
    run_s: Dict[str, float] = {}
    results = {}
    for leg, config in configs.items():
        build_s[leg], scenario = meter.timed(lambda: build_scenario(config))
        run_s[leg], results[leg] = meter.timed(lambda: run_scenario(scenario))
    return {"build_s": build_s, "run_s": run_s, "results": results}


def _traced_pass(
    configs: Dict[str, ExperimentConfig], tracer: Tracer
) -> Dict[str, Any]:
    """The same nine legs with a span around every call into a layer.

    The generators are called from here (with the seeds ``build_scenario``
    would use) so that trace generation gets its own span; the scenario
    and its results are identical to the untraced pass's.
    """
    run_s: Dict[str, float] = {}
    results = {}
    workload = tracer.begin("workload")
    for leg, config in configs.items():
        leg_span = tracer.begin(f"leg.{leg}")
        trace = tracer.call(
            "traces.dieselnet",
            generate_dieselnet_trace,
            DieselNetConfig(seed=config.trace_seed, scale=config.scale),
        )
        model = tracer.call(
            "traces.workload",
            generate_enron_model,
            n_users=config.effective_users,
            seed=config.email_seed,
        )
        scenario = tracer.call(
            "scenario.build", build_scenario, config, trace=trace, model=model
        )
        run_span = tracer.begin("emulation.run")
        results[leg] = run_scenario(scenario)
        tracer.end(run_span)
        run_s[leg] = tracer.seconds(run_span)
        tracer.end(leg_span)
    tracer.end(workload)
    return {"run_s": run_s, "results": results}


def _summaries(results: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {leg: result.summary() for leg, result in results.items()}


def _check(
    recorder: Recorder,
    configs: Dict[str, ExperimentConfig],
    results: Dict[str, Any],
) -> None:
    for leg, summary in _summaries(results).items():
        recorder.check(
            summary["injected"] == configs[leg].effective_messages
            and 0 < summary["delivered"] <= summary["injected"]
            and summary["transmissions"] > 0,
            f"{leg}: implausible statistics {pinned_view(summary)}",
        )
        for key, value in pinned_view(summary).items():
            recorder.simulated[f"{leg}.{key}"] = value
    for leg in COLUMNAR_LEGS:
        columnar = run_experiment(replace(configs[leg], engine="columnar"))
        recorder.check(
            comparable_metrics(columnar.metrics)
            == comparable_metrics(results[leg].metrics),
            f"{leg}: columnar and object engines disagree",
        )


def run(
    size_name: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    recorder: Recorder,
    expected: Optional[Dict[str, Any]],
) -> None:
    configs = leg_configs(SIZES[size_name]["scale"], seed)
    meter = recorder.meter

    def set_up_again() -> float:
        return sum(
            meter.timed(lambda: build_scenario(config))[0]
            for config in configs.values()
        )

    for _ in passes(seconds if tracer is None else 0.0):
        untraced = _untraced_pass(configs, meter)
        summaries = _summaries(untraced["results"])
        recorder.setup_s.append(sum(untraced["build_s"].values()))
        wall_s = sum(untraced["run_s"].values())
        # The emulator owns the loop, so single encounters cannot be
        # timed from here: "p50" is the mean over every encounter of
        # every leg and "p99" the slowest leg's mean. (The median leg
        # changes with the seed; the mean does not.)
        recorder.add_pass(
            wall_s,
            int(sum(s["transmissions"] for s in summaries.values())),
            wall_s / sum(s["encounters"] for s in summaries.values()) * 1000.0,
            max(
                untraced["run_s"][leg] / summaries[leg]["encounters"] * 1000.0
                for leg in configs
            ),
            len(configs),
        )
        recorder.operations(len(configs))
    _check(recorder, configs, untraced["results"])
    recorder.check_pinned(expected)

    if tracer is None:
        repeat_setup(recorder.setup_s, set_up_again)
        return

    with StackSampler() as sampler:
        traced = _traced_pass(configs, tracer)
    recorder.check(
        {leg: pinned_view(s) for leg, s in _summaries(traced["results"]).items()}
        == {leg: pinned_view(s) for leg, s in summaries.items()},
        "traced pass simulated different statistics than the untraced pass",
    )
    layers = recorder.layers
    spans_s = tracer.totals()
    layers["traces.dieselnet_s"] = spans_s["traces.dieselnet"]
    layers["traces.workload_s"] = spans_s["traces.workload"]
    layers["scenario.build_s"] = spans_s["scenario.build"]
    for leg, summary in summaries.items():
        layers[f"emulation.run_s.{leg}"] = traced["run_s"][leg]
        layers[f"sync.candidates_per_sent.{leg}"] = share(
            summary["items_scanned"], summary["transmissions"]
        )
        layers[f"sync.items_per_encounter.{leg}"] = share(
            summary["transmissions"], summary["encounters"]
        )

    def total(key: str) -> float:
        return sum(summary[key] for summary in summaries.values())

    layers.update(
        cache_layers(
            filter_hits=total("filter_cache_hits"),
            filter_misses=total("filter_cache_misses"),
            checksum_hits=total("checksum_cache_hits"),
            checksum_misses=total("checksum_cache_misses"),
            index_skipped=total("index_skipped"),
            store_seen=total("store_items_at_sync"),
            metadata_bytes=total("metadata_bytes"),
            syncs=total("syncs"),
        )
    )
    layers.update(sampler.self_shares(SAMPLED_LAYERS))
    untraced_wall = sum(untraced["run_s"].values())
    layers["trace_overhead_share"] = (
        sum(traced["run_s"].values()) - untraced_wall
    ) / untraced_wall
