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

import gc
import hashlib
import itertools
import operator
import random
import sys
import tracemalloc

import pytest

from repro.emulation.encounters import SECONDS_PER_DAY
from repro.traces.dieselnet import (
    DieselNetConfig,
    MetroConfig,
    format_trace_text,
    generate_dieselnet_trace,
    generate_metro_trace,
    metro_bus_name,
    metro_bus_order,
    metro_route_members,
)


#: What every ``random()`` returns when a test forces a day's times equal.
TIE_DRAW = 0.37


def column_digest(trace) -> str:
    """sha256 over the columns' bytes (native little-endian) and the hosts."""
    sha = hashlib.sha256()
    for column in (trace.times, trace.a, trace.b):
        sha.update(column.tobytes())
    sha.update("\n".join(trace.host_names).encode())
    return sha.hexdigest()


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
        an instant do the buses decide. With every draw of ``random`` the
        same constant (the generator spells ``uniform`` as the ``random()``
        expression it is; ``_poisson`` still terminates and ``sample``
        draws bits), every time in a day is equal and the rows must still
        come out in ``(time, a, b)`` order."""
        monkeypatch.setattr(random.Random, "random", lambda self: TIE_DRAW)
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


@pytest.mark.skipif(sys.byteorder != "little", reason="digests are over native bytes")
class TestMetroIdentity:
    """The columns, byte for byte, as the generator of issue 23 made them
    (whole-day index sort, ``randrange``/``uniform`` calls, columns copied
    by ``from_columns``): recorded from that commit before the generator
    learned to order a day a slice at a time and hand its columns over."""

    PINS = {
        # Every bus meets someone: ids already are host positions.
        "plain": (
            dict(seed=7, n_buses=240, n_routes=8, days=3),
            (3325, 240),
            "91e460d5b515fc22d0e99a08ff4249173114d0a0bfc468a57d339cc87769f321",
        ),
        # 22 time slices a day.
        "many-slices": (
            dict(seed=7, n_buses=600, n_routes=12, days=4),
            (10935, 600),
            "728478e09fa13f507154fbb1478d8fc3611b1c094810bd9c18c4d660a9ba6604",
        ),
        "past-midnight": (
            dict(
                seed=5, n_buses=60, n_routes=4, days=3,
                window_start_hour=20.0, window_end_hour=30.0,
            ),
            (853, 60),
            "9e55c19ed4edf33c3da63933a5c2d8561e8cbddf8827beae0efe2f6b42847b91",
        ),
        "two-routes": (
            dict(seed=9, n_buses=40, n_routes=2, days=2),
            (385, 38),
            "93a451d5c9b620ab5ace58c137736a40006ba8159a462bfaa9d1cde16205010a",
        ),
        "one-route": (
            dict(seed=9, n_buses=40, n_routes=1, days=2),
            (343, 39),
            "f7dfb827f27872ccb7087f86e995c33f188532f9e313b479989c3e7c93c7df7f",
        ),
        "disjoint": (
            dict(seed=7, n_buses=240, n_routes=8, days=3, interchange_rate=0.0),
            (3267, 240),
            "96f3fa5cf7783c01d33c0fa08a5ddd0200b7e9f0515ceadad8a4251611f08fe0",
        ),
        # 10 of the 90 buses meet nobody: both id columns are renumbered.
        "renumbered": (
            dict(
                seed=11, n_buses=90, n_routes=6, days=2,
                meetings_per_bus_per_day=1.0, interchange_rate=2.0,
            ),
            (109, 80),
            "62c76cd15d0d8e1865ecc2fd0ac4615ab35db8a3bc52390d873cd433a7c015b6",
        ),
        # No in-route meeting: a day is one slice.
        "interchange-only": (
            dict(
                seed=5, n_buses=60, n_routes=5, days=2,
                meetings_per_bus_per_day=0.0, interchange_rate=3.0,
            ),
            (35, 41),
            "c445573a72271719c3c2018020fcd831e954ae8316dab019f3af9aa6f6c42181",
        ),
        "half-duty": (
            dict(seed=7, n_buses=40, n_routes=2, days=1, duty_cycle=0.5),
            (111, 20),
            "6f6723b5fd8fbb762b3f7455fd8fa74656b5c89d61c71328a236a57c963c8120",
        ),
    }

    @pytest.mark.parametrize("name", list(PINS))
    def test_columns_are_pinned_to_the_byte(self, name):
        overrides, shape, digest = self.PINS[name]
        trace = generate_metro_trace(MetroConfig(**overrides))
        assert (len(trace), len(trace.host_names)) == shape
        assert column_digest(trace) == digest

    def test_forced_ties_are_pinned_to_the_byte(self, monkeypatch):
        """Every time of a day equal: the row-key fallback decides all of
        the order, whichever slices the rows were drawn into."""
        monkeypatch.setattr(random.Random, "random", lambda self: TIE_DRAW)
        trace = generate_metro_trace(
            MetroConfig(seed=5, n_buses=60, n_routes=4, days=3)
        )
        assert (len(trace), len(trace.host_names), len(set(trace.times))) == (888, 60, 3)
        assert column_digest(trace) == (
            "974170daab3e877f172fc6ea9ff01547c9a9ceb7b1043a65f254a3cab0b59103"
        )


class TestMetroHoldsOnlyItsColumns:
    """A generated trace is its three columns and its host names: no
    durations column, and names built for the buses that met."""

    CONFIG = MetroConfig(seed=7, n_buses=240, n_routes=8, days=3)

    def test_no_durations_column_and_every_contact_instantaneous(self):
        trace = generate_metro_trace(self.CONFIG)
        assert trace.durations is None and trace.on_day(1).durations is None
        assert {encounter.duration for encounter in trace} == {0.0}

    def test_text_is_pinned_to_the_byte(self):
        """Recorded while the generator still carried a zero durations column."""
        text = "\n".join(format_trace_text(generate_metro_trace(self.CONFIG)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "536074d347df3e6ec94b439ae96510e8634c3258a9b64d426671a669b525ee75"
        )

    def test_names_past_a_million_buses_come_in_sorted_order(self):
        """Names are zero-padded to six digits only: a seven-digit one
        sorts among the six-digit ones, and ids follow sorted order."""
        n = 10**6 + 100
        one, two = itertools.tee(map(metro_bus_name, metro_bus_order(n)))
        assert all(map(operator.lt, one, itertools.islice(two, 1, None)))
        order = metro_bus_order(n)
        assert list(itertools.islice(order, 99_999, 100_003)) == [
            99_999, 100_000, 1_000_000, 1_000_001,
        ]
        assert sum(1 for _ in order) == n - 100_003


class TestMetroMemory:
    def test_generating_costs_little_more_than_the_trace(self):
        """Traced peak while generating <= 1.6 x the bytes live afterwards
        (3.4 x before issue 24: four columns copied, a whole day's index
        sort boxed, name tables held throughout). A reintroduced copy of
        one column is +0.3 x."""
        config = MetroConfig(seed=42, n_buses=5000, n_routes=100, days=3)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            gc.collect()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            trace = generate_metro_trace(config)
            gc.collect()
            live, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert len(trace) == 68778
        assert peak - before <= 1.6 * (live - before)

    def test_the_last_draw_below_one_lands_in_the_last_slice(self, monkeypatch):
        """``int(u * slices)`` for the largest double below 1.0 is the
        last slice's index, never one past it (an ``IndexError``)."""
        top = 1.0 - 2.0 ** -53
        assert top < 1.0 and all(int(top * n) == n - 1 for n in range(1, 5000))

        def draw(self):
            # ``_poisson`` multiplies draws until they fall below a
            # threshold: it never would with draws this close to 1.
            drawn_for = sys._getframe(1).f_code.co_name
            return 0.5 if drawn_for == "_poisson" else top

        monkeypatch.setattr(random.Random, "random", draw)
        # 2 700 expected rows a day: 22 slices.
        trace = generate_metro_trace(
            MetroConfig(seed=7, n_buses=600, n_routes=12, days=2)
        )
        assert len(set(trace.times)) == 2 and len(trace) > 2000
