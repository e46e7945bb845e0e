"""Encounter schedules: when which pairs of hosts can synchronise.

An :class:`Encounter` is one connectivity opportunity between two hosts at
a point in simulated time (seconds from the start of the trace). An
:class:`EncounterTrace` is an ordered collection of encounters, held as
``array`` columns over interned host ids, plus the derived views the
experiments need: the set of participating hosts, per-day slicing,
per-host activity, and pairwise meeting frequencies (which drive the
``selected`` filter strategy of Figures 5 and 6). A city-scale trace is
built from columns, run by the columnar engine and summarised without one
:class:`Encounter` being constructed (docs/traces.md).

Time convention: day ``d`` (0-based) spans ``[d·86400, (d+1)·86400)``
seconds; the DieselNet generator places encounters inside each day's
service window (08:00–23:00).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, islice, repeat
from operator import attrgetter, eq, ge
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True, order=True)
class Encounter:
    """One meeting between hosts ``a`` and ``b`` at ``time`` seconds.

    ``duration`` (seconds, 0 = unknown/instantaneous) models how long the
    radio contact lasted; the emulator can translate it into a
    per-encounter transfer budget (real DieselNet contacts are short and
    frequently truncate transfers).
    """

    time: float
    a: str
    b: str
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("an encounter needs two distinct hosts")
        if self.time < 0:
            raise ValueError("encounter time must be non-negative")
        if self.duration < 0:
            raise ValueError("encounter duration must be non-negative")

    @property
    def day(self) -> int:
        return int(self.time // SECONDS_PER_DAY)

    @property
    def pair(self) -> Tuple[str, str]:
        """The unordered pair, canonically sorted."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


class EncounterTrace:
    """An immutable, time-sorted sequence of encounters, held as columns.

    ``host_names`` is the sorted tuple of every host in the trace; row
    ``i`` is ``(times[i], a[i], b[i], durations[i])`` with ``a``/``b``
    positions in ``host_names``, rows ordered by that 4-tuple — ids follow
    name order, so this is the :class:`Encounter` dataclass order.
    ``durations`` is None when every contact is instantaneous. The
    columns are what the columnar engine and the derived views read;
    :class:`Encounter` objects are a view built on first iteration or
    indexing and kept.
    """

    def __init__(self, encounters: Iterable[Encounter]) -> None:
        objects = sorted(encounters, key=attrgetter("time", "a", "b", "duration"))
        names = {e.a for e in objects}.union(e.b for e in objects)
        self.host_names: Tuple[str, ...] = tuple(sorted(names))
        host_id = {name: i for i, name in enumerate(self.host_names)}
        self.times = array("d", [e.time for e in objects])
        self.a = array("i", [host_id[e.a] for e in objects])
        self.b = array("i", [host_id[e.b] for e in objects])
        self.durations = array("d", [e.duration for e in objects])
        self._encounters = objects

    @classmethod
    def from_columns(
        cls,
        hosts: Iterable[str],
        times: Iterable[float],
        a: Iterable[int],
        b: Iterable[int],
        durations: Optional[Iterable[float]] = None,
    ) -> "EncounterTrace":
        """Build a trace from columns; no :class:`Encounter` is constructed.

        A column that already is an ``array`` of its typecode (``"d"``
        times and durations, ``"i"`` ids) is adopted and the caller gives
        it up — a later write to it would go unchecked; anything else is
        copied. At city scale the four copies were the generator's peak.
        ``durations=None`` keeps no durations column: every contact is
        instantaneous (``duration == 0.0``), as in a generated metro trace.

        Checks column-wise what :class:`Encounter` checks per object and
        what the object constructor's sort guarantees: ``hosts`` sorted,
        distinct and each appearing in some row; equal column lengths;
        ids in range; ``a != b``; times and durations non-negative; rows
        in ``(time, a, b, duration)`` order. Raises :class:`ValueError`.
        """
        self = cls.__new__(cls)
        self.host_names = tuple(hosts)
        given = (times, a, b) if durations is None else (times, a, b, durations)
        columns = [
            column if isinstance(column, array) and column.typecode == code
            else array(code, column)
            for code, column in zip("diid", given)
        ]
        self.times, self.a, self.b = columns[:3]
        self.durations = columns[3] if durations is not None else None
        self._encounters = None
        if len(set(map(len, columns))) > 1:
            raise ValueError("trace columns must have equal lengths")
        if any(map(ge, self.host_names, islice(self.host_names, 1, None))):
            raise ValueError("hosts must be sorted and distinct")
        used = set(self.a)
        used.update(self.b)  # in place: ``union`` would hold two sets
        if used and not 0 <= min(used) <= max(used) < len(self.host_names):
            raise ValueError("host id out of range")
        if len(used) != len(self.host_names):
            raise ValueError("every host must appear in some encounter")
        if any(map(eq, self.a, self.b)):
            raise ValueError("an encounter needs two distinct hosts")
        if min(self.times, default=0.0) < 0:
            raise ValueError("encounter time must be non-negative")
        if min(self.durations or (), default=0.0) < 0:
            raise ValueError("encounter duration must be non-negative")
        # Pairwise over the time column; whole rows only where it does not rise.
        late = compress(count(1), map(ge, self.times, islice(self.times, 1, None)))
        if any([c[k - 1] for c in columns] > [c[k] for c in columns] for k in late):
            raise ValueError("encounters must be in (time, a, b, duration) order")
        return self

    def _objects(self) -> List[Encounter]:
        if self._encounters is None:
            names = self.host_names
            self._encounters = [
                Encounter(time, names[a], names[b], duration)
                for time, a, b, duration in zip(
                    self.times, self.a, self.b, self.durations or repeat(0.0)
                )
            ]
        return self._encounters

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Encounter]:
        return iter(self._objects())

    def __getitem__(self, index: int) -> Encounter:
        return self._objects()[index]

    @cached_property
    def hosts(self) -> FrozenSet[str]:
        """Every host appearing anywhere in the trace."""
        return frozenset(self.host_names)

    @cached_property
    def _day_rows(self) -> Dict[int, Tuple[int, int]]:
        """Day → its half-open row range, in day order (rows are time-sorted)."""
        rows: Dict[int, Tuple[int, int]] = {}
        lo = 0
        while lo < len(self.times):
            day = int(self.times[lo] // SECONDS_PER_DAY)
            hi = bisect_left(self.times, (day + 1) * SECONDS_PER_DAY, lo)
            rows[day] = (lo, hi)
            lo = hi
        return rows

    @property
    def days(self) -> Tuple[int, ...]:
        """The distinct days (0-based) on which encounters occur, sorted."""
        return tuple(self._day_rows)

    @property
    def duration(self) -> float:
        """Seconds from time 0 to the end of the last encounter's day."""
        if not self.times:
            return 0.0
        return (int(self.times[-1] // SECONDS_PER_DAY) + 1) * SECONDS_PER_DAY

    def on_day(self, day: int) -> "EncounterTrace":
        """The sub-trace of encounters on one day, sliced from the columns."""
        lo, hi = self._day_rows.get(day, (0, 0))
        ids = self.active_ids_by_day.get(day, ())
        renumber = dict(zip(ids, count()))
        return EncounterTrace.from_columns(
            map(self.host_names.__getitem__, ids),
            self.times[lo:hi],
            map(renumber.__getitem__, self.a[lo:hi]),
            map(renumber.__getitem__, self.b[lo:hi]),
            None if self.durations is None else self.durations[lo:hi],
        )

    def hosts_active_on(self, day: int) -> FrozenSet[str]:
        """Hosts with at least one encounter on ``day``."""
        ids = self.active_ids_by_day.get(day, ())
        return frozenset(map(self.host_names.__getitem__, ids))

    @cached_property
    def active_ids_by_day(self) -> Mapping[int, array]:
        """Day → ids of the hosts active that day, sorted, so in name
        order; days in order. Ids, not names: at city scale name sets are
        6 MB kept for the life of the trace, ids 0.5 MB. Read-only."""
        active = {}
        for day, (lo, hi) in self._day_rows.items():
            ids = set(self.a[lo:hi])
            ids.update(self.b[lo:hi])
            active[day] = array("i", sorted(ids))
        return active

    def active_hosts_by_day(self) -> Dict[int, FrozenSet[str]]:
        """Day → hosts active that day (name sets built per call)."""
        name = self.host_names.__getitem__
        by_day = self.active_ids_by_day
        return {day: frozenset(map(name, ids)) for day, ids in by_day.items()}

    def meeting_counts(self) -> Mapping[Tuple[str, str], int]:
        """Unordered pair → number of encounters across the whole trace."""
        return Counter(encounter.pair for encounter in self._objects())

    def meeting_counts_for(self, host: str) -> Dict[str, int]:
        """Other host → number of encounters with ``host``.

        The counts the ``selected`` filter strategy ranks by ("picks the k
        other hosts that a given host will encounter most in the trace"),
        for one host; ``build_inputs`` counts every host's in one pass.
        """
        if host not in self.hosts:
            return {}
        names = self.host_names
        me = names.index(host)
        counts: Counter = Counter()
        for a, b in zip(self.a, self.b):
            if a == me:
                counts[b] += 1
            elif b == me:
                counts[a] += 1
        return {names[other]: count for other, count in counts.items()}

    def summary(self) -> Dict[str, float]:
        """Headline statistics, matching how the paper describes its trace."""
        by_day = self.active_ids_by_day
        days = len(by_day)
        return {
            "encounters": float(len(self)),
            "hosts": float(len(self.host_names)),
            "days": float(days),
            "mean_hosts_per_day": (
                sum(map(len, by_day.values())) / days if days else 0.0
            ),
            "mean_encounters_per_day": len(self) / days if days else 0.0,
        }
