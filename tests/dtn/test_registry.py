"""Unit tests for the policy registry."""

import pytest

from repro.dtn import (
    DirectDeliveryPolicy,
    EpidemicPolicy,
    MaxPropPolicy,
    ProphetPolicy,
    SprayAndWaitPolicy,
    available_policies,
    default_parameters,
    get_policy,
    register_policy,
)
from repro.dtn.registry import PAPER_POLICY_ORDER, TABLE_II_PARAMETERS


class TestLookup:
    @pytest.mark.parametrize(
        "name,expected_type",
        [
            ("cimbiosys", DirectDeliveryPolicy),
            ("epidemic", EpidemicPolicy),
            ("spray", SprayAndWaitPolicy),
            ("prophet", ProphetPolicy),
            ("maxprop", MaxPropPolicy),
        ],
    )
    def test_create_by_name(self, name, expected_type):
        assert isinstance(get_policy(name), expected_type)

    def test_unknown_name_raises_listing_registered_policies(self):
        with pytest.raises(KeyError, match="registered policies"):
            get_policy("carrier-pigeon")
        with pytest.raises(KeyError, match="epidemic"):
            get_policy("carrier-pigeon")

    def test_lookup_is_case_insensitive(self):
        assert isinstance(get_policy("Epidemic"), EpidemicPolicy)
        assert isinstance(get_policy("MAXPROP"), MaxPropPolicy)

    def test_each_call_returns_fresh_instance(self):
        assert get_policy("epidemic") is not get_policy("epidemic")

    def test_available_policies_sorted(self):
        names = available_policies()
        assert list(names) == sorted(names)
        assert "maxprop" in names

    @pytest.mark.parametrize("name", available_policies())
    def test_each_name_is_the_policys_own(self, name):
        assert get_policy(name).name == name


class TestTableIIDefaults:
    def test_epidemic_ttl(self):
        assert get_policy("epidemic").initial_ttl == 10

    def test_spray_copies(self):
        assert get_policy("spray").initial_copies == 8

    def test_prophet_parameters(self):
        policy = get_policy("prophet")
        assert (policy.p_init, policy.beta, policy.gamma) == (0.75, 0.25, 0.98)

    def test_maxprop_threshold(self):
        assert get_policy("maxprop").hop_threshold == 3

    def test_overrides_win(self):
        assert get_policy("epidemic", initial_ttl=3).initial_ttl == 3

    def test_default_parameters_exposed(self):
        assert default_parameters("spray") == {"initial_copies": 8}
        assert default_parameters("cimbiosys") == {}

    def test_table_ii_covers_all_four_protocols(self):
        assert set(TABLE_II_PARAMETERS) == {
            "epidemic",
            "spray",
            "prophet",
            "maxprop",
        }

    def test_paper_order_has_all_five_lines(self):
        assert PAPER_POLICY_ORDER == (
            "cimbiosys",
            "prophet",
            "spray",
            "epidemic",
            "maxprop",
        )


class TestExtension:
    def test_custom_policy_registration(self):
        class Custom(DirectDeliveryPolicy):
            name = "custom"

        register_policy("custom-test", Custom)
        try:
            assert isinstance(get_policy("custom-test"), Custom)
        finally:
            # Leave the shared registry as we found it.
            import repro.dtn.registry as registry_module

            del registry_module._REGISTRY["custom-test"]
