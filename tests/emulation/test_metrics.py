"""Unit tests for the metrics collector."""

import ast
import math
import pathlib

import pytest

import repro
from repro.emulation.metrics import HOURS, ChurnCounts, MetricsCollector
from repro.replication.ids import ItemId, ReplicaId
from repro.replication.sync import SyncStats


def mid(i):
    return ItemId(ReplicaId("src"), i)


def collector_with(deliveries):
    """deliveries: list of (inject_time, deliver_time_or_None)."""
    metrics = MetricsCollector()
    for i, (injected, delivered) in enumerate(deliveries):
        metrics.record_injection(mid(i), "a", "b", injected, "node")
        if delivered is not None:
            metrics.record_delivery(mid(i), delivered, "dst", copies=3)
    return metrics


class TestRecording:
    def test_delivery_requires_known_injection(self):
        metrics = MetricsCollector()
        assert not metrics.record_delivery(mid(0), 1.0, "n", 2)

    def test_first_delivery_wins(self):
        metrics = collector_with([(0.0, 5.0)])
        assert not metrics.record_delivery(mid(0), 9.0, "other", 4)
        assert metrics.records[mid(0)].delivered_at == 5.0

    def test_record_sync_accumulates(self):
        metrics = MetricsCollector()
        stats = SyncStats(source=ReplicaId("a"), target=ReplicaId("b"))
        stats.sent_total, stats.sent_matching, stats.sent_relayed = 5, 2, 3
        stats.truncated = 1
        metrics.record_sync(stats)
        metrics.record_sync(stats)
        assert metrics.syncs == 2
        assert metrics.transmissions == 10
        assert metrics.matching_transmissions == 4
        assert metrics.relayed_transmissions == 6
        assert metrics.truncated_transmissions == 2

    def test_counts_and_stats_book_the_same_sync(self):
        stats = SyncStats(
            source=ReplicaId("a"),
            target=ReplicaId("b"),
            sent_total=5,
            sent_matching=2,
            sent_relayed=3,
            truncated=1,
            lost_in_transit=2,
            redundant_received=1,
            store_size=9,
            candidates=6,
            index_skipped=3,
            interrupted=True,
        )
        from_stats, from_counts = MetricsCollector(), MetricsCollector()
        from_stats.record_sync(stats)
        from_counts.record_sync_counts(
            sent_total=5,
            sent_matching=2,
            sent_relayed=3,
            truncated=1,
            lost=2,
            redundant=1,
            store_size=9,
            candidates=6,
            index_skipped=3,
            interrupted=True,
        )
        assert from_stats.to_dict() == from_counts.to_dict()
        assert from_counts.interrupted_syncs == 1

    def test_an_empty_sync_only_counts_itself(self):
        metrics = MetricsCollector()
        metrics.record_sync_counts()
        metrics.record_empty_encounters(3)
        assert (metrics.syncs, metrics.encounters) == (7, 3)
        assert metrics.transmissions == metrics.items_scanned == 0

    def test_each_skip_reason_hits_its_counter(self):
        metrics = MetricsCollector(churn=ChurnCounts())
        for reason in ("backoff", "quarantine", "drop", "offline", "reciprocity"):
            metrics.record_skipped_encounter(reason)
        assert metrics.backoff_skips == 1
        assert metrics.quarantine_skips == 1
        assert metrics.dropped_encounters == 1
        assert metrics.churn.churn_skipped_encounters == 1
        assert metrics.churn.reciprocity_refusals == 1
        with pytest.raises(ValueError, match="skip reason"):
            metrics.record_skipped_encounter("weather")

    def test_end_of_run_stamps_end_time_and_copies(self):
        metrics = collector_with([(0.0, 1.0), (0.0, None)])
        metrics.record_end(86400.0, lambda message_id: message_id.serial + 4)
        assert metrics.end_time == 86400.0
        assert [record.copies_at_end for record in metrics.records.values()] == [4, 5]


#: Expressions whose attributes are run metrics: the collector as an
#: executor names it, and its churn block.
_METRIC_HOLDERS = {"metrics", "_metrics", "churn"}


def _holder_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def metric_writes(tree):
    """``(line, target)`` of every assignment to a metric attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and _holder_name(sub.value) in _METRIC_HOLDERS
                ):
                    yield node.lineno, ast.unparse(sub)


class TestOneWriter:
    """Every run metric is written by ``MetricsCollector`` alone."""

    def test_no_metric_is_written_outside_the_collector(self):
        package = pathlib.Path(repro.__file__).parent
        collector = package / "emulation" / "metrics.py"
        writes = [
            f"{path.relative_to(package)}:{line}: {target}"
            for path in sorted(package.rglob("*.py"))
            if path != collector
            for line, target in sorted(metric_writes(ast.parse(path.read_text())))
        ]
        assert writes == []

    def test_the_walk_sees_every_form_of_write(self):
        tree = ast.parse(
            "metrics.syncs += 1\n"
            "self.metrics.evictions = 3\n"
            "self._metrics.crashes += 1\n"
            "self.metrics.churn.churn_leaves += 1\n"
            "a, metrics.end_time = 1, 2\n"
            "self.metrics = MetricsCollector()\n"
            "record.copies_at_end = 0\n"
        )
        assert [line for line, _ in metric_writes(tree)] == [1, 2, 3, 4, 5]


class TestAggregates:
    def test_delivery_ratio(self):
        metrics = collector_with([(0.0, 1.0), (0.0, None)])
        assert metrics.delivery_ratio == 0.5
        assert metrics.injected == 2
        assert metrics.delivered == 1

    def test_delays_sorted_and_delivered_only(self):
        metrics = collector_with([(0.0, 30.0), (0.0, 10.0), (0.0, None)])
        assert metrics.delays() == [10.0, 30.0]

    def test_mean_delay(self):
        metrics = collector_with([(0.0, 10.0), (0.0, 30.0)])
        assert metrics.mean_delay() == 20.0
        assert metrics.mean_delay_hours() == 20.0 / 3600.0

    def test_mean_delay_none_when_nothing_delivered(self):
        metrics = collector_with([(0.0, None)])
        assert metrics.mean_delay() is None

    def test_delay_measured_from_injection(self):
        metrics = collector_with([(100.0, 150.0)])
        assert metrics.delays() == [50.0]

    def test_fraction_delivered_within_counts_all_injected(self):
        metrics = collector_with([(0.0, HOURS), (0.0, 20 * HOURS), (0.0, None)])
        assert metrics.fraction_delivered_within(12 * HOURS) == 1 / 3

    def test_delay_cdf_is_monotone(self):
        metrics = collector_with(
            [(0.0, h * HOURS) for h in (1, 2, 5, 9)] + [(0.0, None)]
        )
        cdf = metrics.delay_cdf([h * HOURS for h in range(0, 13)])
        fractions = [fraction for _, fraction in cdf]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 0.8

    def test_copies_averages(self):
        metrics = collector_with([(0.0, 1.0), (0.0, 2.0)])
        for record in metrics.records.values():
            record.copies_at_end = 7
        assert metrics.mean_copies_at_delivery() == 3.0
        assert metrics.mean_copies_at_end() == 7.0

    def test_summary_keys_and_nan_handling(self):
        metrics = collector_with([(0.0, None)])
        summary = metrics.summary()
        assert summary["delivered"] == 0.0
        assert math.isnan(summary["mean_delay_hours"])
        assert summary["within_12h"] == 0.0

    def test_summary_reports_a_zero_copy_mean_as_zero(self):
        # Under delete_on_receipt every copy can be gone by the end: a
        # mean of 0.0 is a measurement, and only a missing one is NaN.
        metrics = collector_with([(0.0, 1.0)])
        metrics.records[mid(0)].copies_at_end = 0
        summary = metrics.summary()
        assert metrics.mean_copies_at_end() == 0.0
        assert summary["mean_copies_at_end"] == 0.0
        assert math.isnan(collector_with([(0.0, None)]).summary()["mean_copies_at_end"])

    def test_max_delay(self):
        metrics = collector_with([(0.0, 10.0), (0.0, 99.0)])
        assert metrics.max_delay() == 99.0
