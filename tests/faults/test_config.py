"""FaultConfig validation and the enabled/disabled distinction."""

from dataclasses import fields

import pytest

from repro.faults import FaultConfig

#: Every field of the config is one fault model's probability.
PROBABILITIES = [field.name for field in fields(FaultConfig)]


class TestValidation:
    def test_default_is_valid_and_disabled(self):
        config = FaultConfig()
        assert not config.enabled
        assert not config.has_transport_faults

    @pytest.mark.parametrize("field", PROBABILITIES)
    def test_probabilities_validated(self, field):
        with pytest.raises(ValueError):
            FaultConfig(**{field: 1.5})
        with pytest.raises(ValueError):
            FaultConfig(**{field: -0.1})


class TestEnabled:
    @pytest.mark.parametrize("field", PROBABILITIES)
    def test_any_positive_probability_enables(self, field):
        assert FaultConfig(**{field: 0.1}).enabled

    def test_transport_faults_flag(self):
        assert FaultConfig(truncation_probability=0.5).has_transport_faults
        assert FaultConfig(duplication_probability=0.5).has_transport_faults
        assert not FaultConfig(encounter_drop_probability=1.0).has_transport_faults
        assert not FaultConfig(crash_probability=1.0).has_transport_faults
