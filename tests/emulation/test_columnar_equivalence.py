"""The columnar engine reproduces the object engine draw-for-draw.

These tests are the correctness gate for ``engine="columnar"``: on its
supported subset the flat-array core must produce *identical* results —
every message record, every counter inside the equivalence contract
(:func:`repro.emulation.columnar.comparable_metrics`), and the final
per-node knowledge and holdings — across policies, filter strategies,
bandwidth caps, and the supported fault models. Anything outside the
subset must be rejected loudly, never silently approximated.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.emulation.columnar import (
    ColumnarUnsupportedError,
    _world,
    build_world,
    columnar_unsupported_reason,
    comparable_metrics,
)
from repro.emulation.encounters import SECONDS_PER_DAY, Encounter
from repro.emulation.network import Injection
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenario import build_scenario
from repro.faults import FaultConfig
from repro.traces.dieselnet import MetroConfig, generate_metro_trace

#: Supported faults only: drop + truncation + duplication.
SUPPORTED_FAULTS = FaultConfig(
    encounter_drop_probability=0.1,
    truncation_probability=0.2,
    duplication_probability=0.15,
)


def _config(policy: str, faults=None, **overrides) -> ExperimentConfig:
    base = dict(scale=0.25, policy=policy, faults=faults)
    base.update(overrides)
    return ExperimentConfig(**base)


def _both_engines(config: ExperimentConfig):
    object_result = run_experiment(replace(config, engine="object"))
    columnar_result = run_experiment(replace(config, engine="columnar"))
    return object_result, columnar_result


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize(
    "policy", ["cimbiosys", "epidemic", "spray", "first-contact"]
)
def test_engines_agree(policy, faulted):
    """Identical comparable metrics across policies, faults on and off."""
    config = _config(policy, faults=SUPPORTED_FAULTS if faulted else None)
    object_result, columnar_result = _both_engines(config)
    assert comparable_metrics(object_result.metrics) == comparable_metrics(
        columnar_result.metrics
    )
    assert object_result.trace_summary == columnar_result.trace_summary


@pytest.mark.parametrize(
    "overrides",
    [
        dict(bandwidth_limit=3),
        dict(filter_strategy="selected", filter_k=2),
        dict(filter_strategy="random", filter_k=3, bandwidth_limit=2),
        dict(trace_seed=7, workload_seed=3, encounter_order_seed=101),
        dict(policy_parameters={"initial_copies": 4}),
        dict(policy_parameters={"initial_ttl": 10_000}),
        # No array slot holds 2**64 + 2: the column falls back to a dict.
        dict(policy_parameters={"initial_ttl": 2**64}),
        dict(policy_parameters={"initial_copies": 1_000}),
    ],
    ids=[
        "bandwidth",
        "selected",
        "random+bw",
        "reseeded",
        "spray4",
        "ttl10000",
        "ttl2**64",
        "copies1000",
    ],
)
def test_engines_agree_across_knobs(overrides):
    """Relay filters, bandwidth caps, reseeding, and policy parameters
    wider than a byte all stay equivalent."""
    parameters = overrides.get("policy_parameters", {})
    policy = "spray" if "initial_copies" in parameters else "epidemic"
    config = _config(policy, faults=SUPPORTED_FAULTS, **overrides)
    object_result, columnar_result = _both_engines(config)
    assert comparable_metrics(object_result.metrics) == comparable_metrics(
        columnar_result.metrics
    )


@pytest.mark.parametrize(
    ("policy", "parameters", "slot_bytes"),
    [
        ("epidemic", {}, 1),
        ("epidemic", {"initial_ttl": 10_000}, 2),
        ("spray", {"initial_copies": 1_000}, None),
        ("cimbiosys", {}, None),
        ("first-contact", {}, None),
    ],
    ids=["epidemic", "ttl10000", "copies1000", "cimbiosys", "first-contact"],
)
def test_column_layout_follows_the_policy(policy, parameters, slot_bytes):
    """Epidemic floods, so its column is dense, a slot per injection, of
    the narrowest unsigned type that holds ``initial_ttl + 2``. Every
    other policy keeps a few copies of an item and stores known slots
    only: at the metro run's fill a dense column would cost more."""
    world, _ = build_world(_config(policy, policy_parameters=parameters))
    column = world._new_column()
    assert column is not world._new_column()
    if slot_bytes is None:
        assert isinstance(column, dict) and not column
    else:
        assert memoryview(column).itemsize == slot_bytes
        assert list(column) == [0] * len(world._injections)


def test_final_node_state_matches_object_engine():
    """Beyond metrics: per-node knowledge and holdings are identical."""
    config = _config(
        "epidemic", bandwidth_limit=3, filter_strategy="selected", filter_k=2
    )
    scenario = build_scenario(config)
    scenario.emulator.run()
    world, _trace = build_world(replace(config, engine="columnar"))
    world.run()
    for name, node in scenario.emulator.nodes.items():
        object_knowledge = frozenset(
            f"{version.replica.name}:{version.counter}"
            for version in node.replica.knowledge.versions()
        )
        assert world.knowledge_of(name) == object_knowledge, name
        object_holdings = sorted(
            str(item.item_id) for item in node.replica.stored_items()
        )
        assert sorted(world.holdings_of(name)) == object_holdings, name


@pytest.mark.parametrize(
    ("config", "fragment"),
    [
        (ExperimentConfig(addressing="user"), "bus addressing"),
        (ExperimentConfig(storage_limit=10), "storage"),
        (ExperimentConfig(delete_on_receipt=True), "delete_on_receipt"),
        (ExperimentConfig(policy="prophet"), "Prophet"),
        (ExperimentConfig(policy="maxprop"), "MaxProp"),
        (
            ExperimentConfig(faults=FaultConfig(crash_probability=0.1)),
            "crash",
        ),
    ],
    ids=[
        "user-addressing",
        "storage-limit",
        "delete-on-receipt",
        "prophet",
        "maxprop",
        "crash-faults",
    ],
)
def test_unsupported_configs_are_rejected(config, fragment):
    reason = columnar_unsupported_reason(config)
    assert reason is not None
    assert fragment.lower() in reason.lower()
    with pytest.raises(ColumnarUnsupportedError):
        run_experiment(replace(config, engine="columnar"))


def test_supported_config_reports_no_reason():
    config = _config("epidemic", faults=SUPPORTED_FAULTS, bandwidth_limit=5)
    assert columnar_unsupported_reason(config) is None


def test_truncation_alone_is_supported():
    config = ExperimentConfig(faults=FaultConfig(truncation_probability=0.5))
    assert columnar_unsupported_reason(config) is None


def test_disabled_faults_are_supported():
    """An all-zero FaultConfig is equivalent to None, so it must pass."""
    assert columnar_unsupported_reason(ExperimentConfig(faults=FaultConfig())) is None


def test_columnar_metro_path_builds_no_encounter_objects(monkeypatch):
    """A count, not a stopwatch: from generator to kernel the metro trace
    stays columns. One ``Encounter`` per row here is what "just iterate
    the trace" costs at city scale (685 k objects, each walked by every
    full gc pass during world build). Sizes are ``bench/``'s tiny metro."""
    built = []
    init = Encounter.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Encounter, "__init__", counting_init)
    trace = generate_metro_trace(MetroConfig(seed=42, n_buses=600, n_routes=12, days=4))
    config = ExperimentConfig(
        engine="columnar",
        policy="epidemic",
        n_users=60,
        target_messages=120,
        injection_days=2,
    )
    columnar_result = run_experiment(config, trace=trace)
    assert len(built) == 0
    object_result = run_experiment(replace(config, engine="object"), trace=trace)
    assert len(built) == len(trace) > 0  # the view, built once and kept
    assert comparable_metrics(columnar_result.metrics) == comparable_metrics(
        object_result.metrics
    )
    assert columnar_result.trace_summary == object_result.trace_summary


# -- the sparse regime: most encounters are between buses no item reached ----
#
# Everything above runs the 26-bus DieselNet slice, where every bus holds
# something within hours and ≈ 0 % of encounters are idle. A metro trace
# with a few dozen messages is the other regime — the one the columnar
# loop skips through — so the engines are compared there too.


@pytest.fixture(scope="module")
def metro_trace():
    return generate_metro_trace(
        MetroConfig(seed=7, n_buses=960, n_routes=32, days=3, interchange_rate=0.5)
    )


def _sparse_config(policy: str, **overrides) -> ExperimentConfig:
    return ExperimentConfig(
        policy=policy, n_users=40, target_messages=24, injection_days=3, **overrides
    )


def _run_object(emulator, until=None):
    """``Emulator.run()``, optionally stopped at ``until`` instead."""
    if until is None:
        return emulator.run()
    emulator.advance(until)
    emulator.director.finalize(emulator.now, emulator.count_copies)
    return emulator.metrics


def _assert_same_outcome(emulator, world):
    assert comparable_metrics(emulator.metrics) == comparable_metrics(world.metrics)
    for name, node in emulator.nodes.items():
        assert world.knowledge_of(name) == frozenset(
            f"{version.replica.name}:{version.counter}"
            for version in node.replica.knowledge.versions()
        ), name
        assert sorted(world.holdings_of(name)) == sorted(
            str(item.item_id) for item in node.replica.stored_items()
        ), name


@pytest.mark.parametrize("bandwidth_limit", [None, 2], ids=["uncapped", "bw2"])
@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize(
    "policy", ["cimbiosys", "epidemic", "spray", "first-contact"]
)
def test_engines_agree_where_most_encounters_are_idle(
    metro_trace, policy, faulted, bandwidth_limit
):
    config = _sparse_config(
        policy,
        faults=SUPPORTED_FAULTS if faulted else None,
        bandwidth_limit=bandwidth_limit,
    )
    scenario = build_scenario(config, trace=metro_trace)
    world = _world(config, scenario)
    entered = []
    kernel = world._encounter
    world._encounter = lambda *row: (entered.append(row), kernel(*row))
    _run_object(scenario.emulator)
    world.run()
    _assert_same_outcome(scenario.emulator, world)
    if faulted:
        assert len(entered) == len(metro_trace)
    else:
        assert len(entered) <= 0.1 * len(metro_trace)


@pytest.mark.parametrize(
    ("policy", "parameters"),
    [("epidemic", {"initial_ttl": 10_000}), ("spray", {"initial_copies": 1_000})],
    ids=["ttl10000", "copies1000"],
)
def test_engines_agree_on_wide_policy_parameters_where_most_encounters_are_idle(
    metro_trace, policy, parameters
):
    """A TTL or copy count a byte cannot hold, on the metro trace."""
    config = _sparse_config(policy, policy_parameters=parameters)
    scenario = build_scenario(config, trace=metro_trace)
    world = _world(config, scenario)
    _run_object(scenario.emulator)
    world.run()
    _assert_same_outcome(scenario.emulator, world)


def test_injection_at_an_encounters_instant_precedes_it(metro_trace):
    """The schedule's INJECT < ENCOUNTER band at a segment boundary: a
    message authored on bus a for bus b at the very instant the two meet
    is handed over in that encounter, on both engines."""
    config = _sparse_config("cimbiosys")
    scenario = build_scenario(config, trace=metro_trace)
    row = len(metro_trace) // 2
    moment = metro_trace.times[row]
    hosts = metro_trace.host_names
    source, destination = hosts[metro_trace.a[row]], hosts[metro_trace.b[row]]
    for injections in (scenario.injections, scenario.emulator.injections):
        injections.append(Injection(moment, source, destination))
    world = _world(config, scenario)
    _run_object(scenario.emulator)
    world.run()
    _assert_same_outcome(scenario.emulator, world)
    (record,) = [
        r for r in world.metrics.records.values() if r.injected_at == moment
    ]
    assert record.delivered_at == moment


@pytest.mark.parametrize("policy", ["epidemic", "first-contact"])
def test_end_time_cuts_the_trace_mid_day(metro_trace, policy):
    """Nothing past the end time runs — encounter or injection — and what
    does not run is not counted."""
    config = _sparse_config(policy)
    scenario = build_scenario(config, trace=metro_trace)
    cut = 1.5 * SECONDS_PER_DAY
    assert any(injection.time > cut for injection in scenario.injections)
    world = _world(config, scenario)
    _run_object(scenario.emulator, until=cut)
    world.run(end_time=cut)
    _assert_same_outcome(scenario.emulator, world)
    ran = sum(1 for time in metro_trace.times if time <= cut)
    assert 0 < ran < len(metro_trace)
    assert world.metrics.encounters == ran
