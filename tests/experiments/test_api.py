"""Tests for the curated ``repro.api`` facade."""

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


class TestPolicyRegistryContract:
    def test_get_policy_builds_each_advertised_policy(self):
        for name in api.PAPER_POLICY_ORDER:
            policy = api.get_policy(name)
            assert policy is not None

    def test_default_parameters_are_exposed(self):
        assert isinstance(api.default_parameters("spray"), dict)
