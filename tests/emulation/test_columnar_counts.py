"""What the columnar loop does *not* do, as counts.

The city-scale pass is fast because an encounter between two buses no
item has reached never enters the kernel, and a bus no item has reached
has no state. A stopwatch cannot pin that; these counts can. The metrics
themselves are pinned against the object engine in
``test_columnar_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.emulation.columnar import build_world
from repro.experiments.config import ExperimentConfig
from repro.faults import FaultConfig
from repro.traces.dieselnet import MetroConfig, generate_metro_trace


@pytest.fixture(scope="module")
def trace():
    return generate_metro_trace(
        MetroConfig(seed=7, n_buses=960, n_routes=32, days=3, interchange_rate=0.5)
    )


def _config(**overrides):
    return ExperimentConfig(
        engine="columnar",
        policy="epidemic",
        n_users=40,
        target_messages=24,
        injection_days=3,
        **overrides,
    )


def _world(trace, **overrides):
    world, _ = build_world(_config(**overrides), trace=trace)
    return world


def _count_kernel_entries(world):
    """Wrap the kernel entry point; returns the list it appends
    ``(now, a, b, transmitted)`` to, one per entry."""
    entries = []
    kernel = world._encounter

    def counting(now, a, b, order):
        before = world._c_transmissions
        kernel(now, a, b, order)
        entries.append((now, a, b, world._c_transmissions > before))

    world._encounter = counting
    return entries


def test_only_encounters_that_could_move_something_enter_the_kernel(trace):
    world = _world(trace)
    entries = _count_kernel_entries(world)
    metrics = world.run()

    # Every trace encounter is still an encounter and two syncs.
    assert metrics.encounters == len(trace)
    assert metrics.syncs == 2 * len(trace)

    first_injection = min(r.injected_at for r in metrics.records.values())
    assert min(now for now, _, _, _ in entries) >= first_injection

    hosts = trace.host_names
    reached = {i for i, host in enumerate(hosts) if world.knowledge_of(host)}
    transmitted = sum(1 for entry in entries if entry[3])
    touching_reached = sum(
        1 for a, b in zip(trace.a, trace.b) if a in reached or b in reached
    )
    assert 0 < transmitted <= len(entries) <= touching_reached
    assert touching_reached < 0.1 * len(trace)


def test_only_buses_an_item_reached_have_state(trace):
    world = _world(trace)
    world.run()
    hosts = trace.host_names
    reached = [host for host in hosts if world.knowledge_of(host)]
    assert sum(bus is not None for bus in world._buses) == len(reached)
    assert 0 < len(reached) < 0.2 * len(hosts)
    never = next(host for host in hosts if host not in set(reached))
    assert world.knowledge_of(never) == frozenset()
    assert world.holdings_of(never) == ()


def test_an_armed_injector_sees_every_encounter(trace):
    world = _world(
        trace,
        faults=FaultConfig(encounter_drop_probability=0.1, duplication_probability=0.1),
    )
    entries = _count_kernel_entries(world)
    metrics = world.run()
    assert len(entries) == len(trace)
    assert metrics.encounters + metrics.dropped_encounters == len(trace)
