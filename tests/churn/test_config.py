"""ChurnConfig validation, the enabled predicate, and serialization."""

import pytest

from repro.churn import ChurnConfig
from repro.experiments.config import ExperimentConfig


class TestValidation:
    def test_default_is_valid_and_disabled(self):
        config = ChurnConfig()
        assert not config.enabled

    @pytest.mark.parametrize(
        "field",
        [
            "arrival_fraction",
            "departure_fraction",
            "crash_fraction",
            "free_rider_fraction",
            "amnesia_probability",
        ],
    )
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_fractions_must_be_probabilities(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChurnConfig(**{field: value})

    def test_roles_must_be_disjoint(self):
        with pytest.raises(ValueError, match="disjoint"):
            ChurnConfig(
                arrival_fraction=0.4,
                departure_fraction=0.4,
                crash_fraction=0.4,
            )

    def test_reciprocity_knobs_non_negative(self):
        with pytest.raises(ValueError, match="reciprocity_threshold"):
            ChurnConfig(reciprocity_threshold=-0.1)


class TestEnabled:
    @pytest.mark.parametrize(
        "knobs",
        [
            {"arrival_fraction": 0.1},
            {"departure_fraction": 0.1},
            {"crash_fraction": 0.1},
            {"free_rider_fraction": 0.1},
            {"reciprocity_threshold": 0.5},
        ],
    )
    def test_any_armed_knob_enables(self, knobs):
        assert ChurnConfig(**knobs).enabled


class TestSerialization:
    def test_round_trip(self):
        config = ChurnConfig(
            seed=7,
            arrival_fraction=0.1,
            departure_fraction=0.2,
            crash_fraction=0.3,
            amnesia_probability=0.4,
            free_rider_fraction=0.1,
            reciprocity_threshold=0.5,
        )
        assert ChurnConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_fails_loudly(self):
        with pytest.raises(TypeError):
            ChurnConfig.from_dict({"crash_fraction": 0.5, "gremlins": 1})


class TestExperimentConfigIntegration:
    def test_churn_key_omitted_when_absent(self):
        """No-churn configs serialize exactly as they did before the PR.

        This is what keeps run ids (config digests) of existing sweeps
        stable across the upgrade.
        """
        assert "churn" not in ExperimentConfig(scale=0.25).to_dict()

    def test_with_churn_arms_and_round_trips(self):
        config = ExperimentConfig(scale=0.25).with_churn(
            seed=3, crash_fraction=0.3
        )
        assert config.churn is not None
        assert config.churn.crash_fraction == 0.3
        data = config.to_dict()
        assert data["churn"]["seed"] == 3
        rebuilt = ExperimentConfig.from_dict(data)
        assert rebuilt.churn == config.churn
        assert rebuilt == config
