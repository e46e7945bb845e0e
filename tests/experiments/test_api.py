"""Tests for the curated ``repro.api`` facade."""

import os
import subprocess
import sys
import textwrap

import pytest

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
        _fresh(
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
            """
        )


def _fresh(script):
    subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


#: An import a workload makes, and modules it must leave unloaded.
IMPORT_FOOTPRINTS = [
    (
        "from repro.net import FrameDecoder, encode_frame",
        ["asyncio", "repro.net.server"],
    ),
    (
        "from repro.api import EncounterSession, SessionConfig, SyncSession, get_policy",
        ["repro.experiments.sweep", "repro.emulation.columnar", "multiprocessing"],
    ),
    (
        "from repro.experiments import build_scenario, run_scenario",
        ["repro.experiments.figures", "multiprocessing"],
    ),
    (
        "import repro.cli",
        ["repro.experiments.figures", "repro.experiments.sweep", "multiprocessing"],
    ),
]


@pytest.mark.parametrize("statement, absent", IMPORT_FOOTPRINTS)
def test_an_import_loads_only_the_layers_it_names(statement, absent):
    _fresh(
        f"""
        import sys
        {statement}
        loaded = sorted(set({absent!r}) & set(sys.modules))
        assert not loaded, loaded
        """
    )


@pytest.mark.parametrize("namespace", ["repro.api", "repro.experiments", "repro.net"])
def test_late_names_are_their_home_modules_objects(namespace):
    """Each name of ``__all__`` is bound at import or listed once under
    its home module, resolves to that module's object, and shows in
    ``dir()``; an unknown name raises ``AttributeError``."""
    _fresh(
        f"""
        import importlib
        module = importlib.import_module({namespace!r})
        homes = {{
            name: home for home, names in module._HOMES.items() for name in names
        }}
        assert len(homes) == sum(map(len, module._HOMES.values()))
        assert set(homes) <= set(module.__all__)
        assert set(module.__all__) - set(homes) <= set(vars(module))
        assert set(module.__all__) <= set(dir(module))
        for name in module.__all__:
            home = importlib.import_module(homes.get(name, {namespace!r}))
            assert getattr(module, name) is getattr(home, name), name
        exec(f"from {namespace} import *", {{}})
        try:
            module.no_such_name
        except AttributeError as error:
            assert "no_such_name" in str(error)
        else:
            raise AssertionError("unknown names must raise AttributeError")
        """
    )


class TestPolicyRegistryContract:
    def test_get_policy_builds_each_advertised_policy(self):
        for name in api.PAPER_POLICY_ORDER:
            policy = api.get_policy(name)
            assert policy is not None

    def test_default_parameters_are_exposed(self):
        assert isinstance(api.default_parameters("spray"), dict)
