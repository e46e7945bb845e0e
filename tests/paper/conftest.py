"""Shared fixtures for the paper's shape claims.

Every test here runs the emulations behind one table, figure or ablation,
asserts the *shape* facts the paper reports (who wins, by roughly what
factor, where the extremes sit), and checks its rendered rows against the
committed ``results/<id>.txt``. Absolute numbers differ from the paper —
the mobility trace and e-mail workload are synthetic stand-ins — but the
orderings are the reproduction target (see EXPERIMENTS.md).

Everything runs at ``SCALE`` 0.5, the half-size scenario (a few seconds
in all); ``repro figure all --scale 1.0`` prints the paper-size figures.
The figures run their legs into the session's ``store``, the one cache
here, so figures sharing a sweep (5/6, 7/8) pay for it once, exactly as
in the paper's experimental design. The ablations run each config with
``run_experiment``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.store import RunStore

SCALE = 0.5
RESULTS_DIR = pathlib.Path(__file__).resolve().parents[2] / "results"


@pytest.fixture(scope="session")
def store(tmp_path_factory) -> RunStore:
    """The run store every figure test runs its legs into."""
    return RunStore(tmp_path_factory.mktemp("runs"))


@pytest.fixture
def check_results(tmp_path):
    """``check(name, text)``: ``text`` is what ``results/<name>.txt`` holds.

    The fresh rendering is also written to the test's ``tmp_path``, so a
    results file is refreshed after an intended change by copying it over.
    """

    def check(name: str, text: str) -> None:
        rendered = text + "\n"
        fresh = tmp_path / f"{name}.txt"
        fresh.write_text(rendered)
        committed = (RESULTS_DIR / f"{name}.txt").read_text()
        assert rendered == committed, (
            f"results/{name}.txt differs from this run; if the change is "
            f"intended: cp {fresh} results/{name}.txt"
        )

    return check
