"""What the columnar loop does *not* do, as counts.

The city-scale pass is fast because an encounter between two buses no
item has reached never enters the kernel, and a bus no item has reached
has no state; it is small because a held copy is a slot in a column. A
stopwatch cannot pin that; these counts can. The metrics
themselves are pinned against the object engine in
``test_columnar_equivalence.py``.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.dtn.epidemic import EpidemicPolicy
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
        before = world.metrics.transmissions
        kernel(now, a, b, order)
        entries.append((now, a, b, world.metrics.transmissions > before))

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


def test_a_held_copy_costs_little_more_than_its_slot():
    """Traced growth of ``world.run()`` per copy held at the end <= 40 B
    (17.3 here; 148 when a copy was a knowledge-set entry, a holdings-dict
    entry and a policy-dict entry). Under epidemic a copy is one slot in
    its bus's dense column and one pointer in a holdings list. One
    per-copy dict entry brought back reads 63 B here, one per-copy set
    entry 69, epidemic on the sparse policies' dict columns 60."""
    trace = generate_metro_trace(
        MetroConfig(seed=42, n_buses=5000, n_routes=100, days=3)
    )
    config = ExperimentConfig(
        engine="columnar",
        policy="epidemic",
        n_users=100,
        target_messages=200,
        injection_days=1,
    )
    world, _ = build_world(config, trace=trace)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        world.run()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    copies = sum(world._holders)
    assert copies > 10_000
    assert grown <= 40 * copies


def test_building_and_running_a_world_costs_little_next_to_the_trace():
    """Traced peak of ``build_world`` plus ``world.run()`` at 5 000 buses,
    over the trace, <= 0.53 x the bytes the trace holds (0.48 under 3.11,
    0.49 under 3.12 and 3.13). Brought back, a name -> id dict over the
    hosts reads 0.64 and the user assignment's per-day name sets 0.60:
    what a run holds next to its trace is the world, not a second copy of
    the host table."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        trace = generate_metro_trace(
            MetroConfig(seed=42, n_buses=5000, n_routes=100, days=3)
        )
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        world, _ = build_world(_config(), trace=trace)
        world.run()
        peak = tracemalloc.get_traced_memory()[1] - before - held
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(trace) == 68778
    assert peak <= 0.53 * held


def test_an_armed_injector_sees_every_encounter(trace):
    world = _world(
        trace,
        faults=FaultConfig(encounter_drop_probability=0.1, duplication_probability=0.1),
    )
    entries = _count_kernel_entries(world)
    metrics = world.run()
    assert len(entries) == len(trace)
    assert metrics.encounters + metrics.dropped_encounters == len(trace)


def test_a_budget_rule_runs_once_per_distinct_column_value(monkeypatch):
    """Column values of a copy budget are 1 (unstamped) and budget + 2
    for budgets 0..initial_ttl, so ``shipped`` is evaluated at most
    ``initial_ttl + 2`` times in a world, however many copies it ships
    (245 860 on the full-size metro run when it ran per copy)."""
    calls = []
    shipped = EpidemicPolicy.shipped

    def counting(self, budget):
        calls.append(budget)
        return shipped(self, budget)

    monkeypatch.setattr(EpidemicPolicy, "shipped", counting)
    config = ExperimentConfig(
        engine="columnar",
        policy="epidemic",
        n_users=200,
        target_messages=400,
        injection_days=1,
        email_seed=42,
        assignment_seed=43,
        workload_seed=44,
        encounter_order_seed=45,
    )
    trace = generate_metro_trace(
        MetroConfig(seed=42, n_buses=5000, n_routes=100, days=3)
    )
    world, _ = build_world(config, trace=trace)
    metrics = world.run()
    assert metrics.transmissions > 10_000
    assert 0 < len(calls) <= world._policy.initial_ttl + 2
