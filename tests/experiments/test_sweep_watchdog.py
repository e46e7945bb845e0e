"""Tests for the sweep watchdog: per-run timeouts and hung/crashed workers.

The timeout tests use a timeout far below any real run's startup cost, so
every worker is deterministically overdue — no sleeps or races. The crash
test injects a worker entry point that dies without reporting, which is
indistinguishable from an OOM-kill as far as the parent can see. The
one-killed-cell test injects a worker that hangs on its spray cell only.
"""

import functools
import os
import time

import pytest

from repro.cli import main
from repro.experiments import sweep
from repro.experiments.config import ExperimentConfig
from repro.experiments.store import RunStore, run_id_for
from repro.experiments.sweep import _run_parallel, expand_grid, run_sweep

BASE = ExperimentConfig(scale=0.25)


def _crashy_worker(payload, queue):
    """A worker that dies before reporting anything (spawn target)."""
    os._exit(13)


def _hangs_on_spray(payload, queue):
    """The real worker, except that the spray cell never reports (spawn
    target)."""
    if payload["label"] == "spray":
        time.sleep(600)
    sweep._worker_entry(payload, queue)


class TestTimeout:
    def test_timeout_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="timeout_s"):
            run_sweep(
                [BASE], store=RunStore(tmp_path / "runs"), timeout_s=0.0
            )

    def test_overdue_runs_become_failed_outcomes_and_leave_no_file(
        self, tmp_path
    ):
        store = RunStore(tmp_path / "runs")
        grid = expand_grid(BASE, seeds=[0, 1])
        events = []
        report = run_sweep(
            grid,
            store=store,
            workers=2,
            timeout_s=0.001,  # far below spawn startup: always overdue
            progress=events.append,
        )
        assert report.failed == 2
        assert report.completed == 0
        for outcome in report.outcomes:
            assert outcome.status == "failed"
            assert "timed out" in outcome.error
        assert not store.root.exists()
        kinds = [event.kind for event in events]
        assert kinds.count("started") == 2
        assert kinds.count("failed") == 2

    def test_resume_retries_failed_runs(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        grid = expand_grid(BASE, seeds=[0, 1])
        first = run_sweep(grid, store=store, workers=2, timeout_s=0.001)
        assert first.failed == 2

        # Same grid, watchdog disarmed: resume retries the failed runs
        # (their artifacts never existed).
        second = run_sweep(grid, store=store, workers=1)
        assert second.completed == 2
        assert second.reused == 0
        assert all(store.has(config) for config in grid)

    def test_timeout_forces_watchdog_even_for_one_worker(self, tmp_path):
        """workers=1 with a timeout must still run out-of-process — a hung
        run cannot be killed from inside its own process."""
        store = RunStore(tmp_path / "runs")
        report = run_sweep(
            [BASE], store=store, workers=1, timeout_s=0.001
        )
        assert report.failed == 1
        assert "timed out" in report.outcomes[0].error

    def test_generous_timeout_does_not_fire(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        report = run_sweep([BASE], store=store, workers=1, timeout_s=600.0)
        assert report.completed == 1
        assert report.failed == 0
        assert store.list_run_ids() == [run_id_for(BASE)]

    def test_a_killed_cell_fails_the_sweep_and_only_it_reruns(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            sweep,
            "_run_parallel",
            functools.partial(_run_parallel, worker=_hangs_on_spray),
        )
        epidemic, spray = map(
            run_id_for, expand_grid(BASE, policies=["epidemic", "spray"])
        )
        root = tmp_path / "runs"
        argv = [
            "sweep", "--policies", "epidemic", "spray", "--scale", "0.25",
            "--workers", "2", "--results-dir", str(root),
        ]
        assert main([*argv, "--timeout", "5"]) == 1
        out, err = capsys.readouterr()
        assert "1 completed, 0 reused, 1 failed" in out
        assert f"--- {spray} failed ---" in err
        assert "timed out after 5.0s" in err
        # The store holds the completed cell's artifact and nothing else.
        assert [path.name for path in root.iterdir()] == [f"{epidemic}.json"]

        assert main(argv) == 0
        out, _ = capsys.readouterr()
        assert "1 completed, 1 reused, 0 failed" in out
        assert f"start    spray  ({spray})" in out
        assert "start    epidemic" not in out

        assert main(argv) == 0
        assert "0 completed, 2 reused, 0 failed" in capsys.readouterr().out


class TestCrashedWorker:
    def test_dead_worker_without_result_is_settled_as_failed(self):
        payloads = [
            {
                "run_id": "epidemic-cafebabe",
                "label": "epidemic",
                "config": BASE.to_dict(),
            }
        ]
        settled = []
        _run_parallel(
            payloads,
            workers=1,
            emit=lambda *args, **kwargs: None,
            settle=lambda payload, raw: settled.append((payload, raw)),
            worker=_crashy_worker,
        )
        assert len(settled) == 1
        payload, raw = settled[0]
        assert payload["run_id"] == "epidemic-cafebabe"
        assert "crashed" in raw["error"]
        assert "13" in raw["error"]
