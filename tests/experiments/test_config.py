"""Unit tests for experiment configuration."""

import pytest

from repro.churn import ChurnConfig
from repro.experiments.config import ExperimentConfig, configured_scale
from repro.faults import FaultConfig
from repro.net.server import ServeConfig
from repro.net.swarm import SwarmConfig
from repro.replication.session import SessionConfig

#: Each config class with the fewest fields it can be built from.
CONFIGS = {
    ExperimentConfig: {},
    FaultConfig: {},
    ChurnConfig: {},
    SessionConfig: {},
    ServeConfig: {
        "node": "n0",
        "listen": "unix:/unused",
        "experiment": ExperimentConfig(),
    },
    SwarmConfig: {"experiment": ExperimentConfig()},
}


class TestValidation:
    def test_defaults_are_paper_scale(self):
        config = ExperimentConfig()
        assert config.scale == 1.0
        assert config.target_messages == 490
        assert config.injection_days == 8
        assert config.addressing == "bus"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale": 0.0},
            {"scale": 1.1},
            {"addressing": "smoke-signal"},
            {"filter_strategy": "psychic"},
            {"filter_strategy": "self", "filter_k": 2},
            {"filter_k": -1, "filter_strategy": "random"},
            {"bandwidth_limit": -1},
            {"storage_limit": -2},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


class TestScaling:
    def test_effective_counts_shrink_with_scale(self):
        full = ExperimentConfig(scale=1.0)
        half = ExperimentConfig(scale=0.5)
        assert half.effective_users < full.effective_users
        assert half.effective_messages < full.effective_messages

    def test_effective_counts_have_floors(self):
        tiny = ExperimentConfig(scale=0.01)
        assert tiny.effective_users >= 6
        assert tiny.effective_messages >= 10


class TestDerivation:
    def test_with_policy(self):
        config = ExperimentConfig().with_policy("epidemic", initial_ttl=5)
        assert config.policy == "epidemic"
        assert config.policy_parameters == {"initial_ttl": 5}

    def test_with_filters(self):
        config = ExperimentConfig().with_filters("selected", 4)
        assert (config.filter_strategy, config.filter_k) == ("selected", 4)

    def test_with_constraints(self):
        config = ExperimentConfig().with_constraints(bandwidth_limit=1)
        assert config.bandwidth_limit == 1
        assert config.storage_limit is None

    def test_label_mentions_everything(self):
        config = (
            ExperimentConfig()
            .with_policy("spray")
            .with_constraints(bandwidth_limit=1, storage_limit=2)
        )
        label = config.label()
        assert "spray" in label and "bw=1" in label and "store=2" in label


class TestEnvScale:
    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert configured_scale() == 0.5

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert configured_scale() == 0.25

    def test_env_out_of_range(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        with pytest.raises(ValueError):
            configured_scale()


class TestKeywordOnlyConstruction:
    def test_positional_args_are_a_type_error(self):
        with pytest.raises(TypeError, match="positional"):
            ExperimentConfig(0.5)

    def test_unknown_field_error_names_the_field(self):
        with pytest.raises(TypeError, match="'bandwith_limit'"):
            ExperimentConfig(scale=0.5, bandwith_limit=3)

    def test_keyword_construction_is_warning_free(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ExperimentConfig(scale=0.5, policy="maxprop")


@pytest.mark.parametrize("cls", list(CONFIGS), ids=lambda cls: cls.__name__)
def test_every_config_is_keyword_only_and_names_unknown_fields(cls):
    fields = CONFIGS[cls]
    with pytest.raises(TypeError, match="positional"):
        cls(None, **fields)
    with pytest.raises(TypeError, match="'not_a_field'"):
        cls(**fields, not_a_field=1)
    with pytest.raises(TypeError, match="'not_a_field'"):
        cls.from_dict({**cls(**fields).to_dict(), "not_a_field": 1})
