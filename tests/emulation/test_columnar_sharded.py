"""Sharded columnar runs: partition planning and exact equivalence.

The sharded runner may only change *where* encounters execute, never
*what* they compute: a run partitioned across worker processes must be
byte-identical (metrics ``to_dict``) to the same run executed unsharded,
because the shard planner cuts along encounter-graph components and the
encounter-order coin flips are precomputed in global trace order.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.emulation.columnar import (
    ColumnarUnsupportedError,
    merge_metrics,
    plan_shards,
    run_columnar,
    run_columnar_sharded,
    trace_components,
)
from repro.emulation.metrics import MetricsCollector
from repro.experiments.config import ExperimentConfig
from repro.faults import FaultConfig
from repro.traces.dieselnet import MetroConfig, generate_metro_trace


def _metro_trace(n_routes=4, interchange=0.0, n_buses=48, days=3):
    return generate_metro_trace(
        MetroConfig(
            seed=9,
            n_buses=n_buses,
            n_routes=n_routes,
            days=days,
            interchange_rate=interchange,
        )
    )


def _config(**overrides) -> ExperimentConfig:
    base = dict(policy="epidemic", n_users=40, target_messages=60)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_trace_components_follow_routes():
    """With no interchanges, each route is its own component."""
    trace = _metro_trace(n_routes=4, interchange=0.0)
    components = trace_components(trace)
    assert len(components) == 4
    assert sorted(h for comp in components for h in comp) == list(
        range(len(trace.hosts))
    )


def test_interchanges_connect_routes():
    trace = _metro_trace(n_routes=4, interchange=6.0)
    assert len(trace_components(trace)) == 1


def test_plan_shards_partitions_all_hosts():
    trace = _metro_trace(n_routes=6)
    plan = plan_shards(trace, 3)
    assert len(plan) == 3
    seen = [h for host_ids, _weight in plan for h in host_ids]
    assert sorted(seen) == list(range(len(trace.hosts)))
    # Every shard got real work and the weights account for every
    # encounter exactly once.
    assert all(weight > 0 for _host_ids, weight in plan)
    assert sum(weight for _host_ids, weight in plan) == len(trace)


def test_plan_shards_caps_at_component_count():
    trace = _metro_trace(n_routes=2)
    assert len(plan_shards(trace, 8)) == 2
    with pytest.raises(ValueError):
        plan_shards(trace, 0)


def test_merge_metrics_rejects_overlap():
    part = MetricsCollector()
    part.record_injection("m1", "alice", "bob", 0.0, "bus00")
    with pytest.raises(ValueError):
        merge_metrics([part, part])


def test_merge_sums_every_int_counter_of_the_collector():
    """A counter added to ``MetricsCollector`` later must not vanish from
    sharded runs: each int field gets its own prime in each part, so a
    field the merge skips (or adds twice) shows up by name."""
    counters = [
        spec.name
        for spec in dataclasses.fields(MetricsCollector)
        if spec.type in (int, "int")
    ]
    assert {"syncs", "transmissions", "metadata_bytes"} <= set(counters)
    primes = [n for n in range(2, 400) if all(n % d for d in range(2, n))]
    left, right = MetricsCollector(), MetricsCollector()
    for index, name in enumerate(counters):
        setattr(left, name, primes[2 * index])
        setattr(right, name, primes[2 * index + 1])
    merged = merge_metrics([left, right])
    assert {name: getattr(merged, name) for name in counters} == {
        name: primes[2 * index] + primes[2 * index + 1]
        for index, name in enumerate(counters)
    }


def test_sharded_matches_unsharded():
    """The headline guarantee: shards change nothing but the process."""
    trace = _metro_trace(n_routes=4, interchange=0.0)
    config = _config()
    unsharded, summary = run_columnar(config, trace=trace)
    sharded, sharded_summary = run_columnar_sharded(
        config, trace=trace, shards=2
    )
    assert sharded.to_dict() == unsharded.to_dict()
    assert sharded_summary == summary


def test_single_component_falls_back_in_process():
    """A fully connected trace runs unsharded (and still agrees)."""
    trace = _metro_trace(n_routes=2, interchange=6.0)
    config = _config()
    unsharded, _ = run_columnar(config, trace=trace)
    sharded, _ = run_columnar_sharded(config, trace=trace, shards=4)
    assert sharded.to_dict() == unsharded.to_dict()


def test_sharded_rejects_enabled_faults():
    config = _config(faults=FaultConfig(encounter_drop_probability=0.1))
    with pytest.raises(ColumnarUnsupportedError):
        run_columnar_sharded(config, trace=_metro_trace(), shards=2)


def test_more_shards_than_a_byte_can_name_are_refused_before_any_spawn(monkeypatch):
    """300 disjoint routes, 300 shards: the plan used to be built, then
    ``shard_of[k] = 256`` on a ``bytearray`` raised a bare byte-range
    error. Refused typed, with no shared memory or process created."""
    from multiprocessing import shared_memory

    def no_shared_memory(*args, **kwargs):
        raise AssertionError("shared memory created for a refused plan")

    monkeypatch.setattr(shared_memory, "SharedMemory", no_shared_memory)
    trace = _metro_trace(n_routes=300, n_buses=600, days=2)
    assert len(trace_components(trace)) == 300
    with pytest.raises(ValueError, match="at most 256 shards"):
        run_columnar_sharded(_config(), trace=trace, shards=300)
