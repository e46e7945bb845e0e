"""Contact-graph analysis of encounter traces.

DTN routing performance is a function of the contact process, so any
serious evaluation starts by characterising the trace. This module
computes the standard descriptive statistics of opportunistic-contact
datasets — per-host contact counts and degrees, pairwise coverage,
inter-contact time distributions, and daily connectivity — both to
validate the synthetic DieselNet generator against its calibration
targets and to characterise real traces before running experiments on
them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.emulation.encounters import EncounterTrace

from .stats import mean, percentile


def contact_counts(trace: EncounterTrace) -> Dict[str, int]:
    """Total encounters each host participates in."""
    counts: Counter = Counter()
    for encounter in trace:
        counts[encounter.a] += 1
        counts[encounter.b] += 1
    return dict(counts)


def distinct_partners(trace: EncounterTrace) -> Dict[str, int]:
    """Number of distinct hosts each host ever meets."""
    partners: Dict[str, set] = defaultdict(set)
    for encounter in trace:
        partners[encounter.a].add(encounter.b)
        partners[encounter.b].add(encounter.a)
    return {host: len(met) for host, met in partners.items()}


def pair_coverage(trace: EncounterTrace) -> float:
    """Fraction of unordered host pairs that meet at least once.

    Direct-delivery completeness is bounded by this number: a sender →
    recipient pair that never meets can only be served by relaying.
    """
    hosts = sorted(trace.hosts)
    if len(hosts) < 2:
        return 0.0
    possible = len(hosts) * (len(hosts) - 1) // 2
    met = len(set(trace.meeting_counts()))
    return met / possible


def encounter_concentration(trace: EncounterTrace, top_fraction: float = 0.1) -> float:
    """Share of all encounters carried by the top ``top_fraction`` of pairs.

    Real vehicular traces are highly concentrated (same-route buses meet
    constantly); a value near ``top_fraction`` would mean a uniform
    random graph instead.
    """
    counts = sorted(trace.meeting_counts().values(), reverse=True)
    if not counts:
        return 0.0
    top_n = max(1, int(len(counts) * top_fraction))
    return sum(counts[:top_n]) / sum(counts)


def inter_contact_times(trace: EncounterTrace) -> Dict[Tuple[str, str], List[float]]:
    """Per pair, the gaps (seconds) between consecutive meetings."""
    meetings: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for encounter in trace:
        meetings[encounter.pair].append(encounter.time)
    gaps: Dict[Tuple[str, str], List[float]] = {}
    for pair, times in meetings.items():
        if len(times) < 2:
            continue
        times.sort()
        gaps[pair] = [b - a for a, b in zip(times, times[1:])]
    return gaps


def inter_contact_summary(trace: EncounterTrace) -> Dict[str, float]:
    """Aggregate inter-contact time statistics (seconds)."""
    by_pair = inter_contact_times(trace)
    all_gaps: List[float] = []
    for gaps in by_pair.values():
        all_gaps.extend(gaps)
    all_gaps.sort()
    return {
        "pairs_with_repeats": float(len(by_pair)),
        "mean": mean(all_gaps),
        "median": percentile(all_gaps, 0.5),
        "p90": percentile(all_gaps, 0.9),
    }


def daily_degree(trace: EncounterTrace) -> Dict[int, float]:
    """Mean number of distinct partners per active host, per day."""
    result: Dict[int, float] = {}
    for day in trace.days:
        day_trace = trace.on_day(day)
        partners = distinct_partners(day_trace)
        if partners:
            result[day] = mean(list(map(float, partners.values())))
    return result


@dataclass(frozen=True)
class TraceProfile:
    """A one-stop descriptive profile of an encounter trace."""

    encounters: int
    hosts: int
    days: int
    pair_coverage: float
    concentration_top10pct: float
    mean_daily_degree: float
    median_inter_contact_hours: float

    @classmethod
    def of(cls, trace: EncounterTrace) -> "TraceProfile":
        summary = trace.summary()
        degrees = daily_degree(trace)
        gaps = inter_contact_summary(trace)
        median_gap = gaps["median"]
        return cls(
            encounters=int(summary["encounters"]),
            hosts=int(summary["hosts"]),
            days=int(summary["days"]),
            pair_coverage=pair_coverage(trace),
            concentration_top10pct=encounter_concentration(trace, 0.1),
            mean_daily_degree=mean(list(degrees.values())) if degrees else 0.0,
            median_inter_contact_hours=(
                median_gap / 3600.0 if median_gap == median_gap else float("nan")
            ),
        )

    def render(self) -> str:
        return "\n".join(
            [
                f"{'encounters':>28}: {self.encounters}",
                f"{'hosts':>28}: {self.hosts}",
                f"{'days':>28}: {self.days}",
                f"{'pair coverage':>28}: {self.pair_coverage:.1%}",
                f"{'top-10% pair concentration':>28}: {self.concentration_top10pct:.1%}",
                f"{'mean daily degree':>28}: {self.mean_daily_degree:.1f}",
                f"{'median inter-contact (h)':>28}: {self.median_inter_contact_hours:.2f}",
            ]
        )
