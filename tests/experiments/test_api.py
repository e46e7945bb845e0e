"""Tests for the curated ``repro.api`` facade."""

import os
import subprocess
import sys
import textwrap

import repro
import repro.api as api


class TestFacade:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_all_is_sorted_and_unique(self):
        assert api.__all__ == sorted(set(api.__all__))

    def test_headline_imports(self):
        # The acceptance-criteria import, verbatim.
        from repro.api import ExperimentConfig, run_sweep  # noqa: F401

    def test_facade_names_match_their_home_modules(self):
        from repro.dtn.registry import get_policy
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.store import RunStore
        from repro.experiments.sweep import run_sweep

        assert api.ExperimentConfig is ExperimentConfig
        assert api.run_sweep is run_sweep
        assert api.RunStore is RunStore
        assert api.get_policy is get_policy

    def test_package_advertises_api(self):
        assert "api" in repro.__all__

    def test_asyncio_arrives_with_the_swarm_names_not_with_the_import(self):
        """A run that opens no socket pays for no event loop: the three
        ``repro.net.swarm`` names resolve on first use (docs/api.md)."""
        script = textwrap.dedent(
            """
            import sys
            import repro.api as api

            trace = api.generate_metro_trace(
                api.MetroConfig(seed=1, n_buses=40, n_routes=2, days=2)
            )
            config = api.ExperimentConfig(
                engine="columnar", policy="epidemic",
                n_users=10, target_messages=10, injection_days=1,
            )
            assert api.run_experiment(config, trace=trace).summary()["encounters"]
            late = {"SwarmConfig", "SwarmReport", "run_swarm"}
            assert late <= set(api.__all__) <= set(dir(api))
            assert not late & set(vars(api))
            assert "asyncio" not in sys.modules and "repro.net" not in sys.modules
            api.run_swarm
            assert "asyncio" in sys.modules
            from repro.api import SwarmConfig, SwarmReport, run_swarm
            import repro.net.swarm as home
            assert (SwarmConfig, SwarmReport, run_swarm) == (
                home.SwarmConfig, home.SwarmReport, home.run_swarm
            )
            try:
                api.no_such_name
            except AttributeError as error:
                assert "no_such_name" in str(error)
            else:
                raise AssertionError("unknown names must raise AttributeError")
            """
        )
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )


class TestPolicyRegistryContract:
    def test_get_policy_builds_each_advertised_policy(self):
        for name in api.PAPER_POLICY_ORDER:
            policy = api.get_policy(name)
            assert policy is not None

    def test_default_parameters_are_exposed(self):
        assert isinstance(api.default_parameters("spray"), dict)
