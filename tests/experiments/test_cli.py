"""Tests for the command-line interface."""

from dataclasses import fields

import pytest

from repro.churn import ChurnConfig
from repro.cli import CHURN_FLAGS, FAULT_FLAGS, _config_from_flags, build_parser, main
from repro.faults import FaultConfig


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "warp-drive"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "7"])
        assert args.which == "7"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "11"])


class TestTraceCommand:
    def test_prints_summary(self, capsys):
        assert main(["trace", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "encounters" in out
        assert "hosts" in out

    def test_export_writes_interchange_file(self, tmp_path, capsys):
        target = tmp_path / "trace.txt"
        assert main(["trace", "--scale", "0.25", "--export", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) > 1

        from repro.traces.dieselnet import parse_trace_text

        trace = parse_trace_text(lines)
        assert len(trace) == len(lines) - 1


class TestRunCommand:
    def test_runs_baseline(self, capsys):
        assert main(["run", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "cimbiosys" in out
        assert "delivery_ratio" in out

    def test_runs_policy_with_constraints(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--policy",
                    "spray",
                    "--scale",
                    "0.25",
                    "--bandwidth-limit",
                    "1",
                    "--storage-limit",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "spray" in out and "bw=1" in out and "store=2" in out

    def test_runs_multiaddress_strategy(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--scale",
                    "0.25",
                    "--filter-strategy",
                    "selected",
                    "--filter-k",
                    "2",
                ]
            )
            == 0
        )
        assert "selected+2" in capsys.readouterr().out

    def test_fault_flags_arm_the_injector(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--scale",
                    "0.25",
                    "--policy",
                    "epidemic",
                    "--fault-truncation",
                    "0.5",
                    "--fault-drop",
                    "0.2",
                    "--fault-seed",
                    "31",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "epidemic faults" in out
        assert "fault counters (fault seed 31):" in out
        assert "interrupted_syncs" in out

    def test_zero_fault_flags_omit_counters(self, capsys):
        assert main(["run", "--scale", "0.25"]) == 0
        assert "fault counters" not in capsys.readouterr().out

    def test_invalid_fault_probability_rejected(self, capsys):
        assert main(["run", "--scale", "0.25", "--fault-drop", "1.5"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "encounter_drop_probability" in err

    def test_removed_fault_rng_streams_flag_rejected(self, capsys):
        # argparse refuses the flag itself, so the 2 arrives as SystemExit.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--fault-rng-streams", "per-link"])
        assert excinfo.value.code == 2
        assert "--fault-rng-streams" in capsys.readouterr().err


class TestFigureCommand:
    def test_single_figure(self, capsys):
        assert main(["figure", "8", "--scale", "0.25"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_output_dir(self, tmp_path, capsys):
        assert (
            main(
                [
                    "figure",
                    "8",
                    "--scale",
                    "0.25",
                    "--output-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert (tmp_path / "fig8.txt").exists()


def _artifacts(root):
    """Artifact file name → mtime, for every run in a ``--results-dir``."""
    return {path.name: path.stat().st_mtime_ns for path in root.glob("*.json")}


class TestFigureResultsDir:
    """``repro figure --results-dir`` runs its legs into that store."""

    FIGURE_8 = ["figure", "8", "--scale", "0.25"]

    def test_a_later_call_without_it_writes_nothing_there(self, tmp_path, capsys):
        assert main(self.FIGURE_8 + ["--results-dir", str(tmp_path)]) == 0
        stored = _artifacts(tmp_path)
        assert len(stored) == 5
        assert main(["figure", "9", "--scale", "0.25"]) == 0
        assert _artifacts(tmp_path) == stored

    def test_a_second_identical_call_reruns_no_leg(self, tmp_path, capsys):
        argv = self.FIGURE_8 + ["--results-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        stored = _artifacts(tmp_path)
        assert main(argv) == 0
        assert _artifacts(tmp_path) == stored
        assert capsys.readouterr().out == first

    def test_a_figure_reuses_a_sweeps_artifacts(self, tmp_path, capsys):
        sweep = ["sweep", "--policies", "epidemic", "spray", "--scale", "0.25",
                 "--workers", "1", "--results-dir", str(tmp_path)]
        assert main(sweep) == 0
        swept = _artifacts(tmp_path)
        assert len(swept) == 2
        assert main(self.FIGURE_8 + ["--results-dir", str(tmp_path)]) == 0
        stored = _artifacts(tmp_path)
        assert len(stored) == 5
        assert {name: stored[name] for name in swept} == swept


class TestTablesCommand:
    def test_prints_both_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out
        assert "MaxProp" in out and "gamma=0.98" in out


class TestFigureAll:
    def test_all_figures_render_and_persist(self, tmp_path, capsys):
        assert (
            main(
                [
                    "figure",
                    "all",
                    "--scale",
                    "0.25",
                    "--output-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        for marker in ("Figure 5", "Figure 6", "Figure 7(a)", "Figure 7(b)",
                       "Figure 8", "Figure 9", "Figure 10"):
            assert marker in out
        for name in ("fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10"):
            assert (tmp_path / f"{name}.txt").exists()


SCENARIO_FLAGS = [
    ("--policy", "maxprop", "policy", "maxprop"),
    ("--scale", "0.25", "scale", 0.25),
    ("--bandwidth-limit", "3", "bandwidth_limit", 3),
    ("--storage-limit", "4", "storage_limit", 4),
    ("--filter-strategy", "selected", "filter_strategy", "selected"),
    ("--filter-k", "2", "filter_k", 2),
    ("--addressing", "user", "addressing", "user"),
]


class TestScenarioFlags:
    """``run`` and ``swarm`` describe a scenario with one flag set."""

    @pytest.mark.parametrize("flag,value,dest,parsed", SCENARIO_FLAGS)
    def test_run_and_swarm_accept_the_same_flag(self, flag, value, dest, parsed):
        argv = [flag] if value is None else [flag, value]
        for command in ("run", "swarm"):
            args = build_parser().parse_args([command] + argv)
            assert getattr(args, dest) == parsed

    def test_defaults_differ_only_in_policy(self):
        run = vars(build_parser().parse_args(["run"]))
        swarm = vars(build_parser().parse_args(["swarm"]))
        differing = {
            dest
            for _, _, dest, _ in SCENARIO_FLAGS
            if run[dest] != swarm[dest]
        }
        assert differing == {"policy"}
        assert (run["policy"], swarm["policy"]) == ("cimbiosys", "epidemic")

    @pytest.mark.parametrize(
        "argv,env_scale,message",
        [
            (["run", "--scale", "0.25", "--filter-k", "2"], None, "filter_k"),
            (["swarm", "--scale", "0.25", "--filter-k", "2"], None, "filter_k"),
            (["trace", "--scale", "2"], None, "scale must be in (0, 1]"),
            (["figure", "5", "--scale", "2"], None, "scale must be in (0, 1]"),
            (["figure", "5"], "2", "REPRO_SCALE must be in (0, 1]"),
            (["run", "--scale", "0.1"], None, "no injection day"),
            (["swarm", "--scale", "0.1"], None, "no injection day"),
            (["figure", "8", "--scale", "0.1"], None, "no injection day"),
        ],
        ids=[
            "run",
            "swarm",
            "trace-scale",
            "figure-scale",
            "figure-env-scale",
            "run-no-workload",
            "swarm-no-workload",
            "figure-no-workload",
        ],
    )
    def test_invalid_scenario_exits_2(
        self, argv, env_scale, message, capsys, monkeypatch
    ):
        """A bad scenario, scale, or a scale too small to generate a
        workload at, is ``error: …`` and exit 2 on every command."""
        if env_scale is not None:
            monkeypatch.setenv("REPRO_SCALE", env_scale)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestConfigFlags:
    """The fault and churn flags are declared once, as field tables."""

    @pytest.mark.parametrize(
        "cls,flags,command",
        [(FaultConfig, FAULT_FLAGS, "run"),
         (ChurnConfig, CHURN_FLAGS, "run"),
         (ChurnConfig, CHURN_FLAGS, "swarm")],
    )
    def test_each_flag_sets_its_field(self, cls, flags, command):
        def dest(flag):
            return flag[2:].replace("-", "_")

        for flag, (field, _, _) in flags.items():
            default = getattr(cls(), field)
            assert vars(build_parser().parse_args([command]))[dest(flag)] == default
            value = type(default)(7 if isinstance(default, int) else 0.25)
            args = build_parser().parse_args([command, flag, str(value)])
            built = cls(**{
                name: getattr(args, dest(other))
                for other, (name, _, _) in flags.items()
            })
            assert getattr(built, field) == value

    @pytest.mark.parametrize(
        "cls,flags", [(FaultConfig, FAULT_FLAGS), (ChurnConfig, CHURN_FLAGS)]
    )
    def test_a_config_field_exists_only_if_a_flag_sets_it(self, cls, flags):
        assert {spec.name for spec in fields(cls)} == {
            field for field, _, _ in flags.values()
        }

    def test_nothing_set_is_no_config(self):
        args = build_parser().parse_args(["run"])
        assert _config_from_flags(FaultConfig, FAULT_FLAGS, args) is None
        assert _config_from_flags(ChurnConfig, CHURN_FLAGS, args) is None

    @pytest.mark.parametrize("command", ["run", "swarm"])
    def test_out_of_range_value_refused_alone(self, command, capsys):
        # Nothing else in the churn group is set, so the config would be
        # disabled; the value is still checked.
        assert main([command, "--scale", "0.25", "--churn-amnesia", "1.5"]) == 2
        assert "amnesia_probability" in capsys.readouterr().err


def test_bench_is_not_a_command():
    """The ``bench`` subcommand is gone; the harness is ``bench/run.py``."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["bench", "sync"])
    assert excinfo.value.code == 2


def test_sweep_has_no_extra_days_flag(capsys):
    """A run ends where its config says; ``--extra-days`` is gone."""
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--extra-days", "1"])
    assert excinfo.value.code == 2
    assert "--extra-days" in capsys.readouterr().err
