"""Tests for the process-parallel sweep engine.

The parallel cases use a real ``spawn`` pool with 2 workers on a small
scale-0.25 grid; they assert the acceptance contract directly — parallel
artifacts byte-identical (over the ``result`` block) to serial ones, and
an interrupted sweep resuming without re-running completed cells.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.store import RunStore, canonical_json, run_id_for
from repro.experiments.sweep import (
    SweepEvent,
    expand_grid,
    filter_by_label,
    run_sweep,
    seeded,
)

BASE = ExperimentConfig(scale=0.25)


def small_grid():
    return expand_grid(BASE, policies=["epidemic", "spray"], seeds=[0, 1])


class TestSeeded:
    def test_seed_zero_is_identity(self):
        assert seeded(BASE, 0) is BASE

    def test_offsets_every_determinism_knob(self):
        replicate = seeded(BASE, 3)
        assert replicate.trace_seed == BASE.trace_seed + 3
        assert replicate.assignment_seed == BASE.assignment_seed + 3
        assert replicate.workload_seed == BASE.workload_seed + 3
        assert replicate.encounter_order_seed == BASE.encounter_order_seed + 3
        assert replicate.email_seed == BASE.email_seed + 3
        assert replicate.fault_seed == BASE.fault_seed + 3

    def test_replicates_have_distinct_addresses(self):
        ids = {run_id_for(seeded(BASE, seed)) for seed in range(4)}
        assert len(ids) == 4


class TestExpandGrid:
    def test_cross_product_size(self):
        grid = expand_grid(
            BASE,
            policies=["epidemic", "spray"],
            bandwidth_limits=[None, 3],
            seeds=[0, 1],
        )
        assert len(grid) == 8

    def test_empty_axes_keep_base_values(self):
        grid = expand_grid(BASE, policies=["maxprop"])
        assert len(grid) == 1
        assert grid[0].policy == "maxprop"
        assert grid[0].bandwidth_limit == BASE.bandwidth_limit
        assert grid[0].trace_seed == BASE.trace_seed

    def test_duplicate_cells_are_dropped(self):
        grid = expand_grid(BASE, policies=["epidemic", "epidemic"])
        assert len(grid) == 1

    def test_seed_replicates_label_themselves(self):
        grid = expand_grid(BASE, policies=["epidemic"], seeds=[0, 1])
        labels = [config.label() for config in grid]
        assert labels[0] == "epidemic"
        assert "seed=" in labels[1]

    def test_filter_by_label(self):
        grid = small_grid()
        assert len(filter_by_label(grid, "spray")) == 2
        assert len(filter_by_label(grid, "SPRAY")) == 2
        assert filter_by_label(grid, "no-such-policy") == []


class TestSerialSweep:
    def test_runs_grid_and_persists_artifacts(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        grid = small_grid()
        events = []
        report = run_sweep(grid, store=store, workers=1, progress=events.append)

        assert report.completed == 4
        assert report.reused == 0
        assert report.failed == 0
        assert len(report.outcomes) == 4
        # Outcomes come back in grid order regardless of execution order.
        assert [o.run_id for o in report.outcomes] == [
            run_id_for(c) for c in grid
        ]
        for outcome in report.outcomes:
            assert outcome.status == "completed"
            assert outcome.summary["injected"] > 0
        # The store holds one artifact per run and nothing else.
        assert sorted(path.name for path in store.root.iterdir()) == sorted(
            f"{run_id_for(c)}.json" for c in grid
        )
        # Lifecycle events: one started + one finished per run.
        kinds = [event.kind for event in events]
        assert kinds.count("started") == 4
        assert kinds.count("finished") == 4
        # A finished event carries the run's summary, as its outcome does.
        finished = {e.run_id: e.telemetry for e in events if e.kind == "finished"}
        assert finished == {o.run_id: o.summary for o in report.outcomes}

    def test_duplicate_configs_rejected(self, tmp_path):
        config = ExperimentConfig(scale=0.25)
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep([config, config], store=RunStore(tmp_path / "runs"))

    def test_failed_run_fails_its_cell_not_the_sweep(self, tmp_path):
        # Scales this small cannot place any injection day, which raises
        # inside the worker — the sweep must surface it as a failed cell.
        store = RunStore(tmp_path / "runs")
        bad = ExperimentConfig(scale=0.01)
        good = ExperimentConfig(scale=0.25)
        report = run_sweep([bad, good], store=store, workers=1)
        assert report.failed == 1
        assert report.completed == 1
        failed = [o for o in report.outcomes if o.status == "failed"][0]
        assert "Traceback" in failed.error
        assert store.has(good)
        assert not store.has(bad)


class TestResume:
    def test_full_resume_reuses_everything(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        grid = small_grid()
        first = run_sweep(grid, store=store, workers=1)
        events = []
        second = run_sweep(grid, store=store, workers=1, progress=events.append)

        assert second.reused == 4
        assert second.completed == 0
        assert [o.run_id for o in second.outcomes] == [
            o.run_id for o in first.outcomes
        ]
        assert all(event.kind == "reused" for event in events)
        # Reused outcomes still carry their metric summaries.
        by_id = {o.run_id: o for o in first.outcomes}
        for outcome in second.outcomes:
            assert outcome.summary == by_id[outcome.run_id].summary

    def test_interrupted_sweep_completes_without_rerunning(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        grid = small_grid()
        run_sweep(grid, store=store, workers=1)
        # Simulate a sweep killed midway: half the artifacts vanish.
        survivors = grid[:2]
        for config in grid[2:]:
            store.path_for(run_id_for(config)).unlink()

        report = run_sweep(grid, store=store, workers=1)
        assert report.reused == 2
        assert report.completed == 2
        reused_ids = {o.run_id for o in report.outcomes if o.status == "reused"}
        assert reused_ids == {run_id_for(c) for c in survivors}
        assert all(store.has(config) for config in grid)

    def test_invalid_artifact_is_rerun(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        grid = small_grid()[:2]
        run_sweep(grid, store=store, workers=1)
        store.path_for(run_id_for(grid[0])).write_text("not json")

        report = run_sweep(grid, store=store, workers=1)
        assert report.completed == 1
        assert report.reused == 1
        assert store.has(grid[0])

    def test_a_reused_cell_reads_its_artifact_once(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "runs")
        grid = small_grid()[:2]
        run_sweep(grid, store=store, workers=1)
        reads = []
        load_artifact = RunStore.load_artifact

        def counted(self, run_id):
            reads.append(run_id)
            return load_artifact(self, run_id)

        monkeypatch.setattr(RunStore, "load_artifact", counted)
        report = run_sweep(grid, store=store, workers=1)
        assert report.reused == 2
        # Two per cell while a validity check read it before the load did.
        assert sorted(reads) == sorted(run_id_for(config) for config in grid)

    def test_no_resume_reruns_everything(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        grid = small_grid()[:2]
        run_sweep(grid, store=store, workers=1)
        report = run_sweep(grid, store=store, workers=1, resume=False)
        assert report.completed == 2
        assert report.reused == 0


class TestParallelSweep:
    """Real 2-worker spawn-pool runs; the slowest tests in this file."""

    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        grid = small_grid()
        serial_store = RunStore(tmp_path / "serial")
        parallel_store = RunStore(tmp_path / "parallel")

        serial = run_sweep(grid, store=serial_store, workers=1)
        events = []
        parallel = run_sweep(
            grid, store=parallel_store, workers=2, progress=events.append
        )

        assert serial.completed == parallel.completed == 4
        for config in grid:
            run_id = run_id_for(config)
            a = serial_store.load_artifact(run_id)
            b = parallel_store.load_artifact(run_id)
            # The metric content must be byte-identical; only the envelope's
            # wall clock may differ between executions.
            assert canonical_json(a["result"]) == canonical_json(b["result"])
        # Progress events streamed from workers: every run started+finished.
        started = {e.run_id for e in events if e.kind == "started"}
        finished = {e.run_id for e in events if e.kind == "finished"}
        assert started == finished == {run_id_for(c) for c in grid}
        # Terminal-event counters reach the total exactly once.
        assert max(e.completed for e in events) == 4

    def test_parallel_resume_skips_done_work(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        grid = small_grid()
        run_sweep(grid[:2], store=store, workers=1)
        report = run_sweep(grid, store=store, workers=2)
        assert report.reused == 2
        assert report.completed == 2
        assert [o.run_id for o in report.outcomes] == [run_id_for(c) for c in grid]
        assert all(store.has(config) for config in grid)


class TestSweepEventShape:
    def test_event_fields(self):
        event = SweepEvent(
            kind="finished",
            run_id="epidemic-aaaa",
            label="epidemic",
            completed=1,
            total=2,
            telemetry={"injected": 10.0},
        )
        assert event.total == 2
        assert event.error is None
