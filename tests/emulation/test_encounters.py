"""Unit tests for encounters and encounter traces."""

from array import array

import pytest
from hypothesis import given, strategies as st

from repro.emulation.encounters import SECONDS_PER_DAY, Encounter, EncounterTrace


def enc(day, hour, a, b):
    return Encounter(day * SECONDS_PER_DAY + hour * 3600.0, a, b)


class TestEncounter:
    def test_rejects_self_encounter(self):
        with pytest.raises(ValueError):
            Encounter(0.0, "a", "a")

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            Encounter(-1.0, "a", "b")

    def test_day_derivation(self):
        assert enc(3, 9, "a", "b").day == 3

    def test_pair_is_canonical(self):
        assert Encounter(0.0, "b", "a").pair == ("a", "b")
        assert Encounter(0.0, "a", "b").pair == ("a", "b")


class TestEncounterTrace:
    def make_trace(self):
        return EncounterTrace(
            [
                enc(1, 10, "c", "a"),
                enc(0, 9, "a", "b"),
                enc(0, 12, "b", "c"),
                enc(0, 9, "a", "b"),
            ]
        )

    def test_sorted_by_time(self):
        trace = self.make_trace()
        times = [encounter.time for encounter in trace]
        assert times == sorted(times)

    def test_len_and_indexing(self):
        trace = self.make_trace()
        assert len(trace) == 4
        assert trace[0].day == 0

    def test_hosts(self):
        assert self.make_trace().hosts == {"a", "b", "c"}

    def test_days(self):
        assert self.make_trace().days == (0, 1)

    def test_duration_covers_last_day(self):
        assert self.make_trace().duration == 2 * SECONDS_PER_DAY

    def test_empty_trace(self):
        trace = EncounterTrace([])
        assert trace.duration == 0.0
        assert trace.hosts == frozenset()

    def test_on_day(self):
        assert len(self.make_trace().on_day(0)) == 3
        assert len(self.make_trace().on_day(1)) == 1

    def test_hosts_active_on(self):
        trace = self.make_trace()
        assert trace.hosts_active_on(1) == {"a", "c"}

    def test_active_hosts_by_day(self):
        by_day = self.make_trace().active_hosts_by_day()
        assert by_day[0] == {"a", "b", "c"}
        assert by_day[1] == {"a", "c"}

    def test_meeting_counts(self):
        counts = self.make_trace().meeting_counts()
        assert counts[("a", "b")] == 2
        assert counts[("b", "c")] == 1

    def test_meeting_counts_for(self):
        counts = self.make_trace().meeting_counts_for("a")
        assert counts == {"b": 2, "c": 1}

    def test_summary(self):
        summary = self.make_trace().summary()
        assert summary["encounters"] == 4.0
        assert summary["hosts"] == 3.0
        assert summary["days"] == 2.0
        assert summary["mean_encounters_per_day"] == 2.0


# -- one representation, two ways in ------------------------------------------------

HOSTS = ["h0", "h1", "h2", "h3", "h4", "h5"]

#: Times that collide (ties, day boundaries) next to arbitrary ones.
times = st.one_of(
    st.sampled_from([0.0, 9 * 3600.0, SECONDS_PER_DAY - 0.01, SECONDS_PER_DAY]),
    st.floats(min_value=0.0, max_value=4 * SECONDS_PER_DAY, allow_nan=False),
)
pairs = st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS)).filter(
    lambda pair: pair[0] != pair[1]
)
encounter_lists = st.lists(
    st.builds(
        lambda time, pair, duration: Encounter(time, *pair, duration),
        times,
        pairs,
        st.sampled_from([0.0, 1.5, 30.0]),
    ),
    max_size=30,
)


def as_columns(encounters):
    """The rows of ``encounters`` the way ``from_columns`` wants them."""
    hosts = sorted({e.a for e in encounters} | {e.b for e in encounters})
    rows = sorted(
        (e.time, hosts.index(e.a), hosts.index(e.b), e.duration)
        for e in encounters
    )
    columns = [list(column) for column in zip(*rows)] or [[], [], [], []]
    return [hosts] + columns


def public_surface(trace):
    """Everything a caller can observe of a trace, as plain values."""
    return {
        "list": list(trace),
        "indexed": [trace[i] for i in range(len(trace))],
        "len": len(trace),
        "hosts": trace.hosts,
        "days": trace.days,
        "duration": trace.duration,
        "hosts_active_on": {day: trace.hosts_active_on(day) for day in range(6)},
        "active_hosts_by_day": trace.active_hosts_by_day(),
        "active_ids_by_day": {
            day: list(ids) for day, ids in trace.active_ids_by_day.items()
        },
        "meeting_counts": trace.meeting_counts(),
        "meeting_counts_for": {
            host: trace.meeting_counts_for(host) for host in HOSTS + ["nobody"]
        },
        "on_day": {day: list(trace.on_day(day)) for day in range(6)},
        "summary": trace.summary(),
    }


@given(encounter_lists)
def test_objects_and_columns_build_the_same_trace(encounters):
    from_objects = EncounterTrace(encounters)
    from_columns = EncounterTrace.from_columns(*as_columns(encounters))
    assert public_surface(from_objects) == public_surface(from_columns)
    # The constructor's key sort is the dataclass order.
    assert list(from_objects) == sorted(encounters)
    # Derived views are computed once per trace object; the per-day view
    # is kept as id arrays and its name sets are built per call.
    assert from_columns.hosts is from_columns.hosts
    assert from_columns.active_hosts_by_day() == from_columns.active_hosts_by_day()
    kept = from_columns.active_ids_by_day
    assert all(isinstance(ids, array) for ids in kept.values())
    assert all(list(ids) == sorted(set(ids)) for ids in kept.values())


def test_no_durations_column_means_instantaneous_contacts():
    hosts, times, a, b, _ = VALID
    trace = EncounterTrace.from_columns(hosts, times, a, b)
    assert trace.durations is None
    zeros = EncounterTrace.from_columns(hosts, times, a, b, [0.0] * len(times))
    assert list(trace) == list(zeros)
    assert [e.duration for e in trace] == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="equal lengths"):
        EncounterTrace.from_columns(hosts, times, a, b[:2])


@given(encounter_lists)
def test_on_day_slices_the_columns(encounters):
    """A day is cut from the columns: the whole trace's object view is
    never built (at city scale, 3.7 s and 112 MB kept for one day)."""
    trace = EncounterTrace.from_columns(*as_columns(encounters))
    for day in trace.days:
        day_trace = trace.on_day(day)
        assert day_trace.host_names == tuple(sorted(trace.hosts_active_on(day)))
    assert trace._encounters is None


VALID = (["a", "b", "c"], [1.0, 2.0, 2.0], [0, 0, 1], [1, 2, 2], [0.0, 0.0, 5.0])


def test_valid_columns_are_accepted():
    trace = EncounterTrace.from_columns(*VALID)
    assert list(trace) == [
        Encounter(1.0, "a", "b"),
        Encounter(2.0, "a", "c"),
        Encounter(2.0, "b", "c", 5.0),
    ]


#: One column of ``VALID`` replaced, and what ``from_columns`` must say.
MALFORMED = [
    (2, [0, 2, 1], "two distinct hosts"),
    (1, [-1.0, 2.0, 2.0], "time must be non-negative"),
    (4, [0.0, 0.0, -5.0], "duration must be non-negative"),
    (1, [2.0, 1.0, 2.0], "order"),
    (2, [0, 1, 0], "order"),  # a time tie broken the wrong way round
    (4, [0.0, 0.0], "equal lengths"),
    (1, [1.0, 2.0], "equal lengths"),
    (2, [0, 0, 3], "out of range"),
    (3, [1, 2, -1], "out of range"),
    (0, ["a", "c", "b"], "sorted and distinct"),
    (0, ["a", "b", "b"], "sorted and distinct"),
    (0, ["a", "b", "c", "d"], "every host must appear"),
]


@pytest.mark.parametrize("column, value, message", MALFORMED)
def test_from_columns_rejects_malformed_input(column, value, message):
    columns = list(VALID)
    columns[column] = value
    with pytest.raises(ValueError, match=message):
        EncounterTrace.from_columns(*columns)


def test_from_columns_orders_full_ties_by_duration():
    columns = (["a", "b"], [1.0, 1.0], [0, 0], [1, 1])
    assert len(EncounterTrace.from_columns(*columns, [0.0, 5.0])) == 2
    with pytest.raises(ValueError, match="order"):
        EncounterTrace.from_columns(*columns, [5.0, 0.0])


# -- columns handed over ---------------------------------------------------------------

#: Typecodes of the times, a, b and durations columns.
TYPECODES = "diid"


def as_arrays(columns):
    """``[hosts, times, a, b, durations]`` with each column the array
    ``from_columns`` adopts instead of copying."""
    return [columns[0]] + [
        array(typecode, column) for typecode, column in zip(TYPECODES, columns[1:])
    ]


def test_arrays_of_the_right_typecode_are_adopted_not_copied():
    hosts, times, a, b, durations = as_arrays(VALID)
    trace = EncounterTrace.from_columns(hosts, times, a, b, durations)
    assert trace.times is times and trace.durations is durations
    assert trace.a is a and trace.b is b
    assert list(trace) == list(EncounterTrace.from_columns(*VALID))


@pytest.mark.parametrize(
    "handed",
    [
        lambda column, typecode: list(column),
        lambda column, typecode: iter(list(column)),
        # An array, but not of the column's typecode.
        lambda column, typecode: array({"d": "f", "i": "q"}[typecode], column),
    ],
    ids=["lists", "generators", "wrong-typecodes"],
)
def test_anything_else_is_copied_into_the_column_typecode(handed):
    handed_over = [handed(column, code) for code, column in zip(TYPECODES, VALID[1:])]
    trace = EncounterTrace.from_columns(VALID[0], *handed_over)
    kept = (trace.times, trace.a, trace.b, trace.durations)
    for column, code, original, values in zip(kept, TYPECODES, handed_over, VALID[1:]):
        assert column is not original
        assert column.typecode == code and list(column) == values


def test_the_object_path_owns_its_columns():
    encounters = [Encounter(1.0, "a", "b"), Encounter(2.0, "a", "c", 5.0)]
    one, other = EncounterTrace(encounters), EncounterTrace(encounters)
    assert one.times is not other.times and one.a is not other.a
    assert (one.times.typecode, one.a.typecode) == ("d", "i")


@pytest.mark.parametrize("column, value, message", MALFORMED)
def test_adopted_columns_get_every_check(column, value, message):
    columns = list(VALID)
    columns[column] = value
    with pytest.raises(ValueError, match=message):
        EncounterTrace.from_columns(*as_arrays(columns))


def test_adopted_columns_order_full_ties_by_duration():
    columns = (["a", "b"], [1.0, 1.0], [0, 0], [1, 1])
    assert len(EncounterTrace.from_columns(*as_arrays([*columns, [0.0, 5.0]]))) == 2
    with pytest.raises(ValueError, match="order"):
        EncounterTrace.from_columns(*as_arrays([*columns, [5.0, 0.0]]))
