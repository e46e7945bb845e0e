"""DieselNet-style vehicular mobility traces.

The paper drives its emulation with the CRAWDAD ``umass/diesel`` trace:
encounters between buses of the UMass Amherst transit system. That dataset
is not redistributable here, so this module provides both:

* :func:`generate_dieselnet_trace` — a seeded synthetic generator that
  reproduces the trace's published statistics as the paper describes them:
  17 usable days, an average of 23 buses active per day, roughly 16,000
  encounters total, all encounters within the 08:00–23:00 service window,
  and route-structured meeting patterns (buses on the same route meet far
  more often than buses on unrelated routes; day-to-day schedules churn).
* :func:`parse_trace_text` / :func:`format_trace_text` — a plain text
  interchange format so real trace data can be dropped in unchanged:
  one encounter per line, ``<day> <seconds-into-day> <bus-a> <bus-b>``,
  ``#`` comments allowed.

The generator's route model: buses are spread over ``n_routes`` circular
routes; per active day, each unordered pair of active buses meets a
Poisson-distributed number of times whose mean depends on route
relationship (same route ≫ adjacent routes > otherwise), at uniformly
random times inside the service window. Everything derives from ``seed``.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from dataclasses import dataclass
from itertools import compress, islice
from operator import ge
from typing import Dict, Iterable, Iterator, List, Sequence, TextIO, Tuple

from repro.emulation.encounters import SECONDS_PER_DAY, Encounter, EncounterTrace


@dataclass(frozen=True)
class DieselNetConfig:
    """Parameters of the synthetic DieselNet generator.

    Defaults were calibrated so that the full-scale trace reproduces both
    the paper's published trace statistics (≈23 active buses/day, 17 days,
    encounters inside an 08:00–23:00 service window, ~10⁴ encounters) and
    the *behavioural* anchors of the evaluation: direct sender→recipient
    delivery averages ≈70 hours with ≈30–40% within 12 hours, while
    epidemic flooding needs ≈4 days for its last deliveries. Three trace
    features produce that behaviour:

    * **route concentration** — same-route buses meet tens of times a day,
      cross-route buses rarely (``*_route_rate``);
    * **daily schedule churn** — each day a bus keeps its route only with
      probability ``route_stickiness``, which is what mixes the network
      across days (and what defeats PROPHET's history, per the paper's
      footnote);
    * **daily shift windows** — each active bus serves a window starting
      between ``shift_start_min/max``; a ``short_shift_probability``
      fraction of shifts are short (``short_shift_hours``), so some buses
      leave service before same-day flooding can reach them — the source
      of the multi-day delivery tails in Figure 7(b).

    ``scale`` shrinks the whole scenario proportionally for fast tests
    (0 < scale ≤ 1).
    """

    seed: int = 42
    n_buses: int = 35
    n_routes: int = 8
    days: int = 17
    buses_per_day: int = 23
    window_start_hour: float = 8.0
    window_end_hour: float = 23.0
    same_route_rate: float = 45.0
    adjacent_route_rate: float = 0.6
    other_route_rate: float = 0.8
    route_stickiness: float = 0.3
    shift_start_min: float = 8.0
    shift_start_max: float = 10.0
    short_shift_probability: float = 0.25
    short_shift_hours: Tuple[float, float] = (1.5, 4.0)
    long_shift_hours: Tuple[float, float] = (6.0, 14.0)
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        if self.buses_per_day > self.n_buses:
            raise ValueError("buses_per_day cannot exceed n_buses")
        if self.window_end_hour <= self.window_start_hour:
            raise ValueError("service window must be non-empty")

    @property
    def effective_days(self) -> int:
        return max(2, int(round(self.days * self.scale)))

    @property
    def effective_buses(self) -> int:
        return max(4, int(round(self.n_buses * self.scale)))

    @property
    def effective_buses_per_day(self) -> int:
        return max(3, min(self.effective_buses, int(round(self.buses_per_day * self.scale))))


def bus_name(index: int) -> str:
    return f"bus{index:02d}"


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's Poisson sampler; exact, fine for the small means used here."""
    if mean <= 0:
        return 0
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def _route_relationship_rate(
    route_a: int, route_b: int, config: DieselNetConfig
) -> float:
    if route_a == route_b:
        return config.same_route_rate
    n = config.n_routes
    if min((route_a - route_b) % n, (route_b - route_a) % n) == 1:
        return config.adjacent_route_rate
    return config.other_route_rate


def route_schedule(config: DieselNetConfig = DieselNetConfig()) -> Dict[int, Dict[str, int]]:
    """The day → (bus → route) assignment the generator uses.

    Real DieselNet schedules churn: "a bus might have a different schedule
    on different days or might not be scheduled at all". Each day, every
    bus keeps its previous route with probability ``route_stickiness`` and
    is otherwise re-dealt a uniformly random route. This daily churn is the
    trace's cross-route mixing mechanism — within one day routes are
    near-isolated cliques, across days membership reshuffles — and the
    reason history-based prediction (PROPHET) struggles on this workload.
    """
    rng = random.Random(f"routes:{config.seed}")
    buses = [bus_name(i) for i in range(config.effective_buses)]
    schedule: Dict[int, Dict[str, int]] = {}
    current = {bus: index % config.n_routes for index, bus in enumerate(buses)}
    for day in range(config.effective_days):
        if day > 0:
            current = {
                bus: (
                    route
                    if rng.random() < config.route_stickiness
                    else rng.randrange(config.n_routes)
                )
                for bus, route in current.items()
            }
        schedule[day] = dict(current)
    return schedule


def _daily_shift(
    rng: random.Random, config: DieselNetConfig
) -> Tuple[float, float]:
    """One bus's service window for one day, in hours."""
    start = rng.uniform(config.shift_start_min, config.shift_start_max)
    if rng.random() < config.short_shift_probability:
        length = rng.uniform(*config.short_shift_hours)
    else:
        length = rng.uniform(*config.long_shift_hours)
    return start, min(config.window_end_hour, start + length)


def generate_dieselnet_trace(config: DieselNetConfig = DieselNetConfig()) -> EncounterTrace:
    """Generate a synthetic DieselNet-like encounter trace."""
    rng = random.Random(config.seed)
    buses = [bus_name(i) for i in range(config.effective_buses)]
    routes_by_day = route_schedule(config)
    full_window = config.window_end_hour - config.window_start_hour

    encounters: List[Encounter] = []
    for day in range(config.effective_days):
        active = sorted(rng.sample(buses, config.effective_buses_per_day))
        routes = routes_by_day[day]
        shifts = {bus: _daily_shift(rng, config) for bus in active}
        day_base = day * SECONDS_PER_DAY
        for i, bus_a in enumerate(active):
            for bus_b in active[i + 1 :]:
                overlap_start = max(shifts[bus_a][0], shifts[bus_b][0])
                overlap_end = min(shifts[bus_a][1], shifts[bus_b][1])
                if overlap_end <= overlap_start:
                    continue
                rate = _route_relationship_rate(
                    routes[bus_a], routes[bus_b], config
                )
                # Meeting opportunities are proportional to how long both
                # buses are simultaneously in service.
                rate *= (overlap_end - overlap_start) / full_window
                meetings = _poisson(rng, rate * config.scale)
                for _ in range(meetings):
                    moment = day_base + rng.uniform(
                        overlap_start * 3600.0, overlap_end * 3600.0
                    )
                    encounters.append(Encounter(moment, bus_a, bus_b))
    return EncounterTrace(encounters)


# -- metro mode --------------------------------------------------------------------


@dataclass(frozen=True)
class MetroConfig:
    """Parameters of the city-scale "metro-DieselNet" generator.

    The classic generator walks every pair of active buses per day —
    O(buses²·days) — which is exactly right for a 35-bus campus fleet
    and hopeless for a metropolitan one. The metro model restructures
    the same route intuition for scale:

    * buses belong to **fixed routes** (metro fleets are dedicated;
      membership does not churn daily the way the campus schedule does),
      partitioned contiguously so ``n_buses / n_routes`` buses share a
      route;
    * each day a ``duty_cycle`` fraction of every route's fleet is in
      service, and in-service buses on the same route meet
      ``meetings_per_bus_per_day`` times on average — sampled as one
      Poisson count per route per day with uniformly chosen bus pairs,
      so generation is O(encounters), not O(pairs);
    * adjacent routes (a ring, like the classic model) exchange
      ``interchange_rate`` expected meetings per day at transfer
      stations. With ``interchange_rate=0`` routes are disjoint
      connected components, and no item ever leaves the route it was
      injected on.

    Everything derives from ``seed``; the same config always yields a
    byte-identical trace.
    """

    seed: int = 42
    n_buses: int = 2000
    n_routes: int = 40
    days: int = 10
    window_start_hour: float = 6.0
    window_end_hour: float = 24.0
    meetings_per_bus_per_day: float = 10.0
    interchange_rate: float = 4.0
    duty_cycle: float = 0.9

    def __post_init__(self) -> None:
        if self.n_routes < 1:
            raise ValueError("n_routes must be >= 1")
        if self.n_buses < 2 * self.n_routes:
            raise ValueError("need at least 2 buses per route")
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.window_end_hour <= self.window_start_hour:
            raise ValueError("service window must be non-empty")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be in (0, 1]")
        if self.meetings_per_bus_per_day < 0 or self.interchange_rate < 0:
            raise ValueError("encounter rates must be >= 0")


def metro_bus_name(index: int) -> str:
    """Fixed-width names so lexicographic host order is numeric order."""
    return f"bus{index:06d}"


def metro_bus_order(n_buses: int) -> Iterator[int]:
    """Bus indices ``0..n_buses-1`` in name order, one at a time: names of
    one width sort numerically, and each width's run is merged into the
    others (a seven-digit name sorts among the six-digit ones)."""
    bounds = [0, 10**6]
    while bounds[-1] < n_buses:
        bounds.append(bounds[-1] * 10)
    runs = (range(lo, min(hi, n_buses)) for lo, hi in zip(bounds, bounds[1:]))
    return heapq.merge(*runs, key=metro_bus_name)


def _route_buses(config: MetroConfig) -> List[range]:
    """Route → its bus indices: a contiguous partition, sizes differing by ≤1."""
    base, extra = divmod(config.n_buses, config.n_routes)
    starts = [route * base + min(route, extra) for route in range(config.n_routes + 1)]
    return [range(lo, hi) for lo, hi in zip(starts, starts[1:])]


def metro_route_members(config: MetroConfig) -> List[List[str]]:
    """Route → member buses: contiguous partition, sizes differing by ≤1.

    This is the metro analogue of :func:`route_schedule`: membership is
    static (scaling the fleet scales every route proportionally), and
    the per-day variation comes from duty-cycle sampling in
    :func:`generate_metro_trace` instead of schedule churn.
    """
    return [list(map(metro_bus_name, buses)) for buses in _route_buses(config)]


def _poisson_capped(rng: random.Random, mean: float) -> int:
    """Poisson sampler safe for large means.

    Knuth's product method underflows ``exp(-mean)`` past ~700; Poisson
    additivity lets us draw big means as a sum of capped draws exactly.
    """
    count = 0
    while mean > 500.0:
        count += _poisson(rng, 500.0)
        mean -= 500.0
    return count + _poisson(rng, mean)


def generate_metro_trace(config: MetroConfig = MetroConfig()) -> EncounterTrace:
    """Generate a city-scale route-structured trace in O(encounters).

    Draw order (one rng, so the trace is a pure function of the config):
    per day, first every route's duty sample, then every route's
    in-route meeting count and pairs, then every adjacent route pair's
    interchange meetings.

    It holds little more than what it returns while it runs (1.26 x at city
    scale): ids, not names; a slice of draws at a time; columns handed over.
    """
    rng = random.Random(f"metro:{config.seed}")
    rand, bits = rng.random, rng.getrandbits
    # Buses are drawn as positions in name order, so sorting the rows
    # is the order EncounterTrace gives the same encounters as objects.
    # No name table: one left the heap fragmented for the whole run.
    position = array("i", [0]) * config.n_buses
    for rank, bus in enumerate(metro_bus_order(config.n_buses)):
        position[bus] = rank
    routes = [position[buses.start : buses.stop] for buses in _route_buses(config)]
    del position
    window_start = config.window_start_hour * 3600.0
    span = config.window_end_hour * 3600.0 - window_start

    # Columns, not row tuples: at city scale the tuples (with their
    # floats and ints) were the generator's peak memory.
    times, a_col, b_col = array("d"), array("i"), array("i")
    for day in range(config.days):
        day_base = day * SECONDS_PER_DAY
        active_by_route: List[List[int]] = []
        for members in routes:
            k = max(2, int(round(config.duty_cycle * len(members))))
            k = min(k, len(members))
            active_by_route.append(sorted(rng.sample(members, k)))
        # A day is drawn into time slices of about 128 rows. The draw u that
        # becomes a meeting's time also picks its slice, both monotone in u
        # (u < 1.0): slices ordered one by one concatenate in time order.
        expected = config.meetings_per_bus_per_day * sum(map(len, active_by_route)) / 2
        n_slices = 1 + int(expected + config.interchange_rate * config.n_routes) // 128
        slices = [(array("d"), array("i"), array("i")) for _ in range(n_slices)]
        for active in active_by_route:
            k = len(active)
            meetings = _poisson_capped(
                rng, config.meetings_per_bus_per_day * k / 2.0
            )
            # randrange(k) is getrandbits until below k, uniform(lo, hi) is
            # lo + (hi - lo) * random(): spelled out, three frames a call less.
            k_bits, k_less, k_less_bits = k.bit_length(), k - 1, (k - 1).bit_length()
            for _ in range(meetings):
                a_index = bits(k_bits)
                while a_index >= k:
                    a_index = bits(k_bits)
                b_index = bits(k_less_bits)
                while b_index >= k_less:
                    b_index = bits(k_less_bits)
                if b_index >= a_index:
                    b_index += 1
                u = rand()
                slice_times, slice_a, slice_b = slices[int(u * n_slices)]
                slice_times.append(day_base + (window_start + span * u))
                slice_a.append(active[a_index])
                slice_b.append(active[b_index])
        if config.interchange_rate > 0 and config.n_routes > 1:
            for route in range(config.n_routes):
                if config.n_routes == 2 and route == 1:
                    break  # two routes share one adjacency, not two
                other = (route + 1) % config.n_routes
                here = active_by_route[route]
                there = active_by_route[other]
                meetings = _poisson_capped(rng, config.interchange_rate)
                for _ in range(meetings):
                    u = rand()
                    slice_times, slice_a, slice_b = slices[int(u * n_slices)]
                    slice_times.append(day_base + (window_start + span * u))
                    slice_a.append(here[rng.randrange(len(here))])
                    slice_b.append(there[rng.randrange(len(there))])
        # Each slice is ordered by one index sort on its times — range(m) is
        # cached small ints, nothing boxed outlives it — appended and let go.
        slices.reverse()
        while slices:
            slice_times, slice_a, slice_b = slices.pop()
            order = sorted(range(len(slice_times)), key=slice_times.__getitem__)
            times.extend(map(slice_times.__getitem__, order))
            a_col.extend(map(slice_a.__getitem__, order))
            b_col.extend(map(slice_b.__getitem__, order))
    del routes, active_by_route
    if any(map(ge, times, islice(times, 1, None))):
        # Two rows share an instant, or a service window runs past
        # midnight into the next day's after all: only then do (a, b)
        # decide, and the whole trace is ordered by the row key.
        order = sorted(range(len(times)), key=lambda k: (times[k], a_col[k], b_col[k]))
        times, a_col, b_col = (
            array(column.typecode, map(column.__getitem__, order))
            for column in (times, a_col, b_col)
        )
    hosts = _hosts_that_met(config.n_buses, a_col, b_col)
    # No durations column: every generated contact is instantaneous.
    return EncounterTrace.from_columns(hosts, times, a_col, b_col)


def _hosts_that_met(n_buses: int, a_col: array, b_col: array) -> Tuple[str, ...]:
    """The sorted names of the buses that met someone. A bus that met nobody
    is not a host: the id columns are renumbered in place over those that
    did (order-preserving, so the rows stay sorted), a column at a time."""
    met = set(a_col)
    met.update(b_col)  # in place: ``union`` would hold a second set
    met = array("i", sorted(met))
    order = metro_bus_order(n_buses)
    if len(met) < n_buses:  # else the ids already are host positions
        host_id = array("i", [0]) * n_buses
        kept = bytearray(n_buses)
        for index, bus in enumerate(met):
            host_id[bus] = index
            kept[bus] = 1
        a_col[:] = array("i", map(host_id.__getitem__, a_col))
        b_col[:] = array("i", map(host_id.__getitem__, b_col))
        order = compress(order, kept)
    return tuple(map(metro_bus_name, order))


# -- interchange format ------------------------------------------------------------


def parse_trace_text(lines: Iterable[str]) -> EncounterTrace:
    """Parse the text interchange format into a trace.

    Each non-blank, non-comment line is
    ``<day> <seconds> <bus-a> <bus-b> [<duration-seconds>]``
    where ``seconds`` is seconds into the day and the optional fifth
    column records the radio-contact duration. Malformed lines raise with
    the offending line number.
    """
    encounters: List[Encounter] = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (4, 5):
            raise ValueError(
                f"line {line_number}: expected 'day seconds busA busB "
                f"[duration]', got {raw!r}"
            )
        day_text, seconds_text, bus_a, bus_b = parts[:4]
        try:
            day = int(day_text)
            seconds = float(seconds_text)
            duration = float(parts[4]) if len(parts) == 5 else 0.0
        except ValueError as error:
            raise ValueError(f"line {line_number}: {error}") from None
        if not 0 <= seconds < SECONDS_PER_DAY:
            raise ValueError(
                f"line {line_number}: seconds-into-day out of range: {seconds}"
            )
        encounters.append(
            Encounter(
                day * SECONDS_PER_DAY + seconds, bus_a, bus_b, duration=duration
            )
        )
    return EncounterTrace(encounters)


def format_trace_text(trace: EncounterTrace) -> Iterator[str]:
    """Render a trace back into the interchange format, one line at a time."""
    yield "# day seconds-into-day bus-a bus-b [duration-seconds]"
    for encounter in trace:
        # Capped so the day's last 0.05 s is not rounded up to 86400.0,
        # a seconds field parse_trace_text refuses.
        seconds = min(encounter.time - encounter.day * SECONDS_PER_DAY, 86399.9)
        line = f"{encounter.day} {seconds:.1f} {encounter.a} {encounter.b}"
        if encounter.duration > 0:
            line += f" {encounter.duration:.1f}"
        yield line


def load_trace(stream: TextIO) -> EncounterTrace:
    """Load a trace from an open text stream in the interchange format."""
    return parse_trace_text(stream)


def save_trace(trace: EncounterTrace, stream: TextIO) -> None:
    """Write a trace to an open text stream in the interchange format."""
    for line in format_trace_text(trace):
        stream.write(line + "\n")
