"""Tests of the benchmark harness itself: ``python -m pytest bench/tests``.

Every workload runs at ``--tiny`` size in a fresh subprocess, exactly as
the driver runs the full sizes.
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run as bench_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: The only places bench/ may import the program from.
SUPPORTED_SURFACE = {
    "repro.api",
    "repro.replication",
    "repro.net",
    "repro.experiments",
    "repro.traces",
    "repro.emulation",
    "repro.dtn",
}


def run_tiny(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--tiny",
            "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced() -> dict:
    """One traced tiny run per workload (seed 43: invariants alone)."""
    return {workload: run_tiny(workload, 43, 1) for workload in WORKLOADS}


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert SPEC["paths"] == ["bench"]
    assert len(SPEC["command"]) <= 32
    for part in SPEC["command"]:
        assert len(part) <= 200 and not part.startswith("/") and ".." not in part
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_declared_layers_match_the_sampler():
    declared = {
        m["name"] for m in SPEC["per_layer"] if m["name"].startswith("self_share.")
    }
    sampled = {f"self_share.{layer}" for layer in harness.SAMPLED_LAYERS}
    assert declared == sampled | {"self_share.other"}


# -- the result line -----------------------------------------------------------


def check_result(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert not isinstance(entry["value"], bool)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_result_on_the_pinned_seed(workload):
    result = run_tiny(workload, 42, 0)
    check_result(result, SPEC["end_to_end"])
    for entry in result["metrics"].values():
        assert entry["value"] > 0
    detail = json.loads(
        (BENCH / "out" / f"run-{workload}.json").read_text(encoding="utf-8")
    )
    pinned = json.loads(
        (BENCH / "expected" / f"{workload}.json").read_text(encoding="utf-8")
    )
    # (swarm_live pins more than an untraced run simulates: its replay)
    assert detail["simulated"].items() <= pinned["tiny"].items()
    assert detail["simulated"] and set(pinned["full"]) == set(pinned["tiny"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_result_on_another_seed(traced, workload):
    check_result(traced[workload], SPEC["per_layer"])


def test_every_layer_metric_is_exercised_by_some_workload(traced):
    sure_to_be_sampled = ("self_share.replication.store", "self_share.emulation.columnar")
    for metric in SPEC["per_layer"]:
        if metric["name"].startswith("self_share.") and (
            metric["name"] not in sure_to_be_sampled
        ):
            continue  # a small layer can go unsampled at tiny size
        assert any(
            result["metrics"][metric["name"]]["value"] != 0
            for result in traced.values()
        ), metric["name"]


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- spans ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_sum_to_at_most_their_parent(traced, workload):
    path = BENCH / "out" / f"trace-{workload}.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans and [span["id"] for span in spans] == list(range(len(spans)))
    children_s = [0.0] * len(spans)
    for span in spans:
        assert span["end"] >= span["start"] >= 0
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["id"] < span["id"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            children_s[parent["id"]] += span["end"] - span["start"]
    for span, covered in zip(spans, children_s):
        assert covered <= span["end"] - span["start"] + 1e-9, span["name"]


def test_tracer_rejects_spans_closed_out_of_order():
    tracer = harness.Tracer(harness.SpeedMeter())
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


# -- the speed meter -----------------------------------------------------------


def meter_with_ticks(*ticks: tuple) -> harness.SpeedMeter:
    meter = harness.SpeedMeter()
    for start, length in ticks:
        meter._starts.append(start)
        meter._lengths.append(length)
    return meter


def test_meter_at_reference_speed_only_takes_out_the_ticks_inside():
    ref = harness.REFERENCE_TICK_S
    meter = meter_with_ticks((0.0, ref), (10.0, ref), (20.0, ref))
    assert meter.seconds(5.0, 8.0) == pytest.approx(3.0)
    assert meter.seconds(5.0, 15.0) == pytest.approx(10.0 - ref)


def test_meter_scales_by_the_ticks_in_and_around_the_interval():
    ref = harness.REFERENCE_TICK_S
    # The box runs at half speed between t=10 and t=30, full speed before.
    meter = meter_with_ticks(
        (0.0, ref), (10.0, 2 * ref), (20.0, 2 * ref), (30.0, 2 * ref), (40.0, ref)
    )
    assert meter.seconds(1.0, 9.0) == pytest.approx(8.0 / 1.5)   # ticks at 0, 10
    assert meter.seconds(12.0, 18.0) == pytest.approx(6.0 / 2.0)  # ticks at 10, 20
    assert meter.seconds(12.0, 28.0) == pytest.approx((16.0 - 2 * ref) / 2.0)
    # An interval after the last tick so far leans on the tick before it.
    assert meter.seconds(41.0, 42.0) == pytest.approx(1.0)


def test_meter_ticks_by_signal_and_restores_what_it_found():
    import gc
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    meter = harness.SpeedMeter()
    with meter:
        deadline = time.perf_counter() + 2.5 * harness.TICK_PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert meter.summary()["ticks"] >= 3  # one on entry, two by signal
    assert gc.isenabled()


# -- soft probes ---------------------------------------------------------------


def test_soft_import_reports_none_for_missing_names(monkeypatch):
    assert harness.soft_import("repro.emulation.columnar", "build_world") is not None
    assert harness.soft_import("repro.emulation.columnar", "no_such_name") is None
    assert harness.soft_import("repro.no_such_module", "anything") is None
    monkeypatch.setitem(sys.modules, "repro.emulation.columnar", None)
    assert harness.soft_import("repro.emulation.columnar", "build_world") is None


def test_world_build_goes_unmeasured_when_its_probe_is_gone(monkeypatch):
    import metro_columnar

    monkeypatch.setattr(metro_columnar, "soft_import", lambda module, name: None)
    tracer = harness.Tracer(harness.SpeedMeter())
    assert metro_columnar.soft_world(None, None, tracer) is None


# -- what bench/ may import ----------------------------------------------------


def test_bench_imports_only_the_supported_surface():
    for path in sorted(BENCH.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [(alias.name, []) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [(node.module, [alias.name for alias in node.names])]
            else:
                continue
            for module, names in modules:
                if module != "repro" and not module.startswith("repro."):
                    continue
                assert module in SUPPORTED_SURFACE, f"{path.name}: {module}"
                for name in names:
                    assert not name.startswith("_"), f"{path.name}: {name}"
        if path.name not in ("harness.py", "run.py", "test_bench.py"):
            # Dynamic imports exist twice: soft_import, and run.py loading
            # a workload module of bench/ itself.
            source = path.read_text(encoding="utf-8")
            assert "import_module" not in source, path.name
            assert "__import__" not in source, path.name


# -- statistics ----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 10))
    assert harness.percentile(samples, 50) == 5
    assert harness.percentile(samples, 99) == 9
    assert harness.percentile([7.0], 99) == 7.0
    assert harness.percentile(range(1, 1001), 99) == 990


def test_spread_is_the_drivers_rule():
    import statistics

    values = [10.0, 10.5, 9.8, 10.1, 10.2, 9.9, 10.4, 10.0, 10.3, 9.7]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert harness.spread(values) == (q3 - q1) / statistics.median(values)


def summary_of(values: dict) -> dict:
    return {"end_to_end": {
        m["name"]: {"median": values[m["name"]][0], "spread": values[m["name"]][1]}
        for m in SPEC["end_to_end"]
    }}


def test_agree_applies_each_metrics_own_bound(capsys):
    steady = {m["name"]: (100.0, 0.01) for m in SPEC["end_to_end"]}
    first = {"w": summary_of(steady)}
    assert bench_run.agree(first, {"w": summary_of(steady)}, SPEC)
    wall_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    drifted = dict(steady, wall_s=(100.0 * (1 + wall_bound) + 1.0, 0.01))
    assert not bench_run.agree(first, {"w": summary_of(drifted)}, SPEC)
    unsteady = dict(steady, wall_s=(100.0, wall_bound + 0.01))
    assert not bench_run.agree(first, {"w": summary_of(unsteady)}, SPEC)
    # setup_s is exempt from the spread rule, not from the drift rule.
    loose_setup = dict(steady, setup_s=(100.0, 0.9))
    assert bench_run.agree(first, {"w": summary_of(loose_setup)}, SPEC)
    capsys.readouterr()
