"""Unit tests for the DieselNet trace generator and interchange format."""

import io
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.emulation.encounters import SECONDS_PER_DAY, Encounter, EncounterTrace
from repro.traces.dieselnet import (
    BUSES_PER_DAY,
    DAYS,
    N_BUSES,
    N_ROUTES,
    WINDOW_END_HOUR,
    WINDOW_START_HOUR,
    DieselNetConfig,
    bus_name,
    format_trace_text,
    generate_dieselnet_trace,
    load_trace,
    parse_trace_text,
    route_schedule,
    save_trace,
)

SMALL = DieselNetConfig(scale=0.4, seed=1)


class TestConfig:
    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            DieselNetConfig(scale=0.0)
        with pytest.raises(ValueError):
            DieselNetConfig(scale=1.5)

    def test_effective_values_scale_down(self):
        config = DieselNetConfig(scale=0.5)
        assert config.effective_days < DAYS
        assert config.effective_buses < N_BUSES
        assert config.effective_buses_per_day < BUSES_PER_DAY

    def test_full_scale_is_the_campus_fleet(self):
        config = DieselNetConfig()
        assert (config.effective_days, config.effective_buses) == (17, 35)
        assert config.effective_buses_per_day == 23


class TestGenerator:
    def test_deterministic_for_seed(self):
        a = generate_dieselnet_trace(SMALL)
        b = generate_dieselnet_trace(SMALL)
        assert list(a) == list(b)

    def test_different_seed_different_trace(self):
        a = generate_dieselnet_trace(SMALL)
        b = generate_dieselnet_trace(DieselNetConfig(scale=0.4, seed=2))
        assert list(a) != list(b)

    def test_encounters_within_service_window(self):
        trace = generate_dieselnet_trace(SMALL)
        for encounter in trace:
            seconds_into_day = encounter.time - encounter.day * SECONDS_PER_DAY
            assert WINDOW_START_HOUR * 3600 <= seconds_into_day <= WINDOW_END_HOUR * 3600

    def test_days_span_configured_count(self):
        trace = generate_dieselnet_trace(SMALL)
        assert max(trace.days) < SMALL.effective_days

    def test_daily_active_buses_bounded(self):
        trace = generate_dieselnet_trace(SMALL)
        for day in trace.days:
            assert len(trace.hosts_active_on(day)) <= SMALL.effective_buses_per_day

    def test_full_scale_matches_paper_statistics(self):
        trace = generate_dieselnet_trace(DieselNetConfig())
        summary = trace.summary()
        assert summary["days"] == 17.0
        assert 20.0 <= summary["mean_hosts_per_day"] <= 23.0
        assert 5000 <= summary["encounters"] <= 25000
        assert summary["hosts"] == 35.0

    def test_same_route_pairs_meet_more(self):
        """Route concentration: same-route pairs dominate encounter counts."""
        config = DieselNetConfig(seed=3)
        trace = generate_dieselnet_trace(config)
        schedule = route_schedule(config)
        same_route, cross_route = 0, 0
        for encounter in trace:
            routes = schedule[encounter.day]
            if routes[encounter.a] == routes[encounter.b]:
                same_route += 1
            else:
                cross_route += 1
        assert same_route > cross_route

    def test_route_schedule_covers_all_days_and_buses(self):
        config = DieselNetConfig(scale=0.4, seed=1)
        schedule = route_schedule(config)
        assert set(schedule) == set(range(config.effective_days))
        for day_routes in schedule.values():
            assert len(day_routes) == config.effective_buses
            assert all(0 <= r < N_ROUTES for r in day_routes.values())

    def test_route_churn_changes_assignments(self):
        config = DieselNetConfig(seed=5)
        schedule = route_schedule(config)
        changed = sum(
            1
            for bus in schedule[0]
            if schedule[0][bus] != schedule[1][bus]
        )
        assert changed > 0


class TestInterchangeFormat:
    def test_roundtrip(self):
        trace = generate_dieselnet_trace(DieselNetConfig(scale=0.3, seed=9))
        buffer = io.StringIO()
        save_trace(trace, buffer)
        buffer.seek(0)
        reloaded = load_trace(buffer)
        assert len(reloaded) == len(trace)
        assert reloaded.hosts == trace.hosts
        for original, parsed in zip(trace, reloaded):
            assert parsed.pair == original.pair
            assert parsed.time == pytest.approx(original.time, abs=0.1)

    def test_last_instant_of_a_day_stays_loadable(self):
        """``.1f`` rounds the day's last 0.05 s to 86400.0, which the
        parser refuses; the formatter rounds that sliver down instead."""
        trace = EncounterTrace([Encounter(86399.97, "a", "b")])
        assert list(format_trace_text(trace))[1] == "0 86399.9 a b"
        assert parse_trace_text(format_trace_text(trace))[0].day == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.floats(0.0, SECONDS_PER_DAY, exclude_max=True)
                | st.floats(SECONDS_PER_DAY - 0.06, SECONDS_PER_DAY, exclude_max=True),
                st.sampled_from(["a", "b"]),
                st.sampled_from(["c", "d"]),
            ),
            max_size=20,
        )
    )
    def test_text_roundtrip_keeps_every_day_and_pair(self, rows):
        trace = EncounterTrace(
            Encounter(day * SECONDS_PER_DAY + seconds, a, b)
            for day, seconds, a, b in rows
        )
        reloaded = parse_trace_text(format_trace_text(trace))
        # Compared as multisets: rounding to 0.1 s may reorder near-ties.
        assert Counter((e.day, e.pair) for e in reloaded) == Counter(
            (e.day, e.pair) for e in trace
        )

    def test_parse_skips_comments_and_blanks(self):
        lines = [
            "# header",
            "",
            "0 32400.0 bus01 bus02  # inline comment",
        ]
        trace = parse_trace_text(lines)
        assert len(trace) == 1
        assert trace[0].pair == ("bus01", "bus02")

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_trace_text(["0 32400.0 only-three"])

    def test_parse_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_trace_text(["zero 32400.0 a b"])

    def test_parse_rejects_out_of_range_seconds(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_trace_text(["0 90000.0 a b"])

    def test_format_has_header_comment(self):
        trace = parse_trace_text(["0 30000.0 a b"])
        lines = list(format_trace_text(trace))
        assert lines[0].startswith("#")


class TestBusName:
    def test_zero_padded(self):
        assert bus_name(3) == "bus03"
        assert bus_name(12) == "bus12"
