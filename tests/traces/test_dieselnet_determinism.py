"""Byte-level determinism of the trace generators, and metro-mode scaling.

A trace is an experiment input: two runs "from the same seed" must mean
*the same bytes*, not merely statistically similar encounters, or run
artifacts stop being content-addressable. These tests pin that contract
for both the classic DieselNet generator and the city-scale metro mode,
and check that the metro route schedule actually scales the way the
scale benchmark assumes (membership balance, per-route locality,
interchange wiring).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.emulation.encounters import SECONDS_PER_DAY
from repro.traces.dieselnet import (
    DieselNetConfig,
    MetroConfig,
    format_trace_text,
    generate_dieselnet_trace,
    generate_metro_trace,
    metro_bus_name,
    metro_route_members,
)


class TestClassicDeterminism:
    def test_same_seed_is_byte_identical(self):
        config = DieselNetConfig(scale=0.4, seed=11)
        first = "\n".join(format_trace_text(generate_dieselnet_trace(config)))
        second = "\n".join(format_trace_text(generate_dieselnet_trace(config)))
        assert first.encode("utf-8") == second.encode("utf-8")

    def test_seed_changes_bytes(self):
        first = "\n".join(
            format_trace_text(
                generate_dieselnet_trace(DieselNetConfig(scale=0.4, seed=11))
            )
        )
        second = "\n".join(
            format_trace_text(
                generate_dieselnet_trace(DieselNetConfig(scale=0.4, seed=12))
            )
        )
        assert first != second


class TestMetroConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MetroConfig(n_routes=0)
        with pytest.raises(ValueError):
            MetroConfig(n_buses=10, n_routes=8)  # < 2 buses per route
        with pytest.raises(ValueError):
            MetroConfig(days=0)
        with pytest.raises(ValueError):
            MetroConfig(window_start_hour=20.0, window_end_hour=6.0)
        with pytest.raises(ValueError):
            MetroConfig(duty_cycle=0.0)
        with pytest.raises(ValueError):
            MetroConfig(meetings_per_bus_per_day=-1.0)

    def test_bus_names_sort_numerically(self):
        names = [metro_bus_name(i) for i in (0, 9, 10, 99, 100, 54321)]
        assert names == sorted(names)

    def test_route_members_balance(self):
        config = MetroConfig(n_buses=103, n_routes=10)
        members = metro_route_members(config)
        sizes = [len(route) for route in members]
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1
        flat = [bus for route in members for bus in route]
        assert len(set(flat)) == len(flat)


class TestMetroGenerator:
    def test_same_seed_is_byte_identical(self):
        config = MetroConfig(seed=3, n_buses=80, n_routes=5, days=3)
        first = "\n".join(format_trace_text(generate_metro_trace(config)))
        second = "\n".join(format_trace_text(generate_metro_trace(config)))
        assert first.encode("utf-8") == second.encode("utf-8")

    def test_seed_changes_bytes(self):
        first = "\n".join(
            format_trace_text(
                generate_metro_trace(
                    MetroConfig(seed=3, n_buses=80, n_routes=5, days=3)
                )
            )
        )
        second = "\n".join(
            format_trace_text(
                generate_metro_trace(
                    MetroConfig(seed=4, n_buses=80, n_routes=5, days=3)
                )
            )
        )
        assert first != second

    @pytest.mark.parametrize(
        "overrides, encounters, hosts, digest",
        [
            (
                dict(seed=7, n_buses=240, n_routes=8, days=3),
                3325,
                240,
                "084671e88a1ee04b857d198a7da5cf59cb9734cf3e8db44e9e73afe3bee4bae0",
            ),
            (
                dict(seed=7, n_buses=240, n_routes=8, days=3, interchange_rate=0.0),
                3267,
                240,
                "941aef2b298e7858dfed590bec1b283a2dd5da8e4971e26fa6d84c2c868db3d1",
            ),
            # Sparse: 10 of the 90 buses meet nobody and are not hosts.
            (
                dict(
                    seed=11, n_buses=90, n_routes=6, days=2,
                    meetings_per_bus_per_day=1.0, interchange_rate=2.0,
                ),
                109,
                80,
                "a439a7155a41cf135c976129e3fff6f9ce70da11d8b07e608b3f7629df3173e6",
            ),
        ],
        ids=["interchange", "disjoint", "sparse"],
    )
    def test_trace_is_pinned_to_the_float(self, overrides, encounters, hosts, digest):
        """sha256 over every encounter's exact fields, recorded from the
        generator that built one ``Encounter`` per row and sorted the
        objects (``.1f`` interchange text cannot pin a float)."""
        trace = generate_metro_trace(MetroConfig(**overrides))
        sha = hashlib.sha256()
        for e in trace:
            sha.update(repr((e.time, e.a, e.b, e.duration)).encode())
        assert (len(trace), len(trace.hosts)) == (encounters, hosts)
        assert sha.hexdigest() == digest

    def test_encounters_stay_inside_service_window(self):
        config = MetroConfig(
            seed=5, n_buses=60, n_routes=4, days=2,
            window_start_hour=7.0, window_end_hour=21.0,
        )
        trace = generate_metro_trace(config)
        assert len(trace) > 0
        for encounter in trace:
            seconds_into_day = encounter.time - encounter.day * SECONDS_PER_DAY
            assert 7.0 * 3600 <= seconds_into_day <= 21.0 * 3600

    def test_no_interchange_keeps_routes_disjoint(self):
        config = MetroConfig(
            seed=5, n_buses=60, n_routes=4, days=2, interchange_rate=0.0
        )
        members = metro_route_members(config)
        route_of = {
            bus: index
            for index, route in enumerate(members)
            for bus in route
        }
        for encounter in generate_metro_trace(config):
            assert route_of[encounter.a] == route_of[encounter.b]

    def test_interchanges_link_adjacent_routes_only(self):
        config = MetroConfig(
            seed=5, n_buses=60, n_routes=5, days=2,
            meetings_per_bus_per_day=0.0, interchange_rate=3.0,
        )
        members = metro_route_members(config)
        route_of = {
            bus: index
            for index, route in enumerate(members)
            for bus in route
        }
        trace = generate_metro_trace(config)
        assert len(trace) > 0
        for encounter in trace:
            gap = abs(route_of[encounter.a] - route_of[encounter.b])
            assert gap in (1, config.n_routes - 1)

    def test_encounter_volume_scales_with_routes_not_pairs(self):
        """Adding routes at fixed route size adds ~linear work.

        This is the property the scale benchmark leans on: the classic
        generator's per-pair walk would grow quadratically in the bus
        count, the metro generator must not.
        """
        small = MetroConfig(seed=6, n_buses=60, n_routes=4, days=2)
        large = MetroConfig(seed=6, n_buses=240, n_routes=16, days=2)
        n_small = len(generate_metro_trace(small))
        n_large = len(generate_metro_trace(large))
        ratio = n_large / n_small
        assert 2.5 <= ratio <= 6.5  # ~4x buses -> ~4x encounters

    def test_duty_cycle_limits_active_buses(self):
        config = MetroConfig(
            seed=7, n_buses=40, n_routes=2, days=1, duty_cycle=0.5
        )
        trace = generate_metro_trace(config)
        active = {e.a for e in trace} | {e.b for e in trace}
        # Half of each 20-bus route sits out each day (plus interchange
        # partners are drawn from the active sample only).
        assert len(active) <= 20 + 4  # duty sample is clamped to >= 2

    def test_equal_times_fall_back_to_the_row_key(self, monkeypatch):
        """A day is ordered by its times alone; only when two rows share
        an instant do the buses decide. With every draw of ``uniform``
        the same constant, every time in a day is equal and the rows
        must still come out in ``(time, a, b)`` order."""
        monkeypatch.setattr(
            random.Random, "uniform", lambda self, low, high: 30000.0
        )
        trace = generate_metro_trace(
            MetroConfig(seed=5, n_buses=60, n_routes=4, days=3)
        )
        rows = list(zip(trace.times, trace.a, trace.b))
        assert len(set(trace.times)) == 3 < len(rows)
        assert rows == sorted(rows)
        assert len(set(rows)) > 100  # many distinct pairs per instant

    def test_a_window_past_midnight_still_yields_ordered_rows(self):
        """Days are generated one at a time and appended; a service
        window that runs into the next day's must not leave the rows
        out of order (``from_columns`` would refuse them)."""
        trace = generate_metro_trace(
            MetroConfig(
                seed=5, n_buses=60, n_routes=4, days=3,
                window_start_hour=20.0, window_end_hour=30.0,
            )
        )
        rows = list(zip(trace.times, trace.a, trace.b))
        assert rows == sorted(rows)
        late = [t for t in trace.times if t % SECONDS_PER_DAY < 6 * 3600.0]
        assert late and len(late) < len(rows)
