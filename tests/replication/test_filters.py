"""Unit tests for the filter algebra."""

import copy
import dataclasses
import pickle

import pytest

from repro.replication.errors import InvalidFilterError
from repro.replication.filters import (
    AddressFilter,
    AllFilter,
    AndFilter,
    AttributeFilter,
    MultiAddressFilter,
    NotFilter,
    NothingFilter,
    OrFilter,
)
from tests.conftest import make_item


class TestAddressFilter:
    def test_matches_destination(self):
        assert AddressFilter("alice").matches(make_item(destination="alice"))

    def test_rejects_other_destination(self):
        assert not AddressFilter("alice").matches(make_item(destination="bob"))

    def test_rejects_missing_destination(self):
        item = make_item()
        item = item.with_version(item.version)  # copy
        no_dest = make_item()
        object.__setattr__(no_dest, "attributes", {})
        assert not AddressFilter("alice").matches(no_dest)

    def test_requires_nonempty_address(self):
        with pytest.raises(InvalidFilterError):
            AddressFilter("")


class TestMultiAddressFilter:
    def test_own_address_always_included(self):
        filter_ = MultiAddressFilter("alice", frozenset({"bob"}))
        assert "alice" in filter_.addresses
        assert filter_.matches(make_item(destination="alice"))

    def test_relay_addresses_match(self):
        filter_ = MultiAddressFilter("alice", frozenset({"bob"}))
        assert filter_.matches(make_item(destination="bob"))
        assert not filter_.matches(make_item(destination="carol"))

    def test_relay_set_accepts_any_iterable(self):
        filter_ = MultiAddressFilter("alice", ["bob", "carol"])
        assert filter_.addresses == {"alice", "bob", "carol"}

    def test_requires_own_address(self):
        with pytest.raises(InvalidFilterError):
            MultiAddressFilter("")


class TestPrecomputedAddressSet:
    """The address set is built once at construction and is not a field:
    it must track every way a filter comes to exist and stay invisible to
    equality, hashing, repr and pickling."""

    FILTERS = [
        AddressFilter("alice"),
        MultiAddressFilter("alice", {"bob", "carol"}),
    ]

    @pytest.mark.parametrize("filter_", FILTERS, ids=repr)
    def test_equality_hash_and_repr_see_only_the_fields(self, filter_):
        rebuilt = dataclasses.replace(filter_)
        assert rebuilt == filter_ and hash(rebuilt) == hash(filter_)
        assert [f.name for f in dataclasses.fields(filter_)] in (
            ["address"],
            ["own_address", "relay_addresses"],
        )
        assert repr(filter_).count("=") == len(dataclasses.fields(filter_))

    @pytest.mark.parametrize("filter_", FILTERS, ids=repr)
    def test_pickle_and_copy_round_trip_still_match(self, filter_):
        for clone in (pickle.loads(pickle.dumps(filter_)), copy.deepcopy(filter_)):
            assert clone == filter_ and hash(clone) == hash(filter_)
            assert clone.matches(make_item(destination="alice"))
            assert not clone.matches(make_item(destination="zed"))

    def test_replace_rebuilds_the_set(self):
        moved = dataclasses.replace(AddressFilter("alice"), address="bob")
        assert moved.matches(make_item(destination="bob"))
        assert not moved.matches(make_item(destination="alice"))
        widened = dataclasses.replace(
            MultiAddressFilter("alice"), relay_addresses={"bob"}
        )
        assert widened.addresses == {"alice", "bob"}
        assert widened.matches(make_item(destination="bob"))


class TestExtremes:
    def test_all_filter(self):
        assert AllFilter().matches(make_item())

    def test_nothing_filter(self):
        assert not NothingFilter().matches(make_item())


class TestAttributeFilter:
    def test_matches_on_equality(self):
        item = make_item(priority="high")
        assert AttributeFilter("priority", "high").matches(item)
        assert not AttributeFilter("priority", "low").matches(item)


class TestCombinators:
    def test_and(self):
        both = AddressFilter("alice") & AttributeFilter("source", "bob")
        assert both.matches(make_item(destination="alice", source="bob"))
        assert not both.matches(make_item(destination="alice", source="eve"))

    def test_or(self):
        either = AddressFilter("alice") | AddressFilter("bob")
        assert either.matches(make_item(destination="bob"))
        assert not either.matches(make_item(destination="carol"))

    def test_not(self):
        inverted = ~AddressFilter("alice")
        assert inverted.matches(make_item(destination="bob"))
        assert not inverted.matches(make_item(destination="alice"))

    def test_empty_and_matches_everything(self):
        assert AndFilter(()).matches(make_item())

    def test_empty_or_matches_nothing(self):
        assert not OrFilter(()).matches(make_item())

    def test_nested_combination(self):
        filter_ = (AddressFilter("a") | AddressFilter("b")) & ~AttributeFilter(
            "source", "spam"
        )
        assert filter_.matches(make_item(destination="a", source="ok"))
        assert not filter_.matches(make_item(destination="a", source="spam"))

    def test_filters_are_value_objects(self):
        assert AddressFilter("a") == AddressFilter("a")
        assert NotFilter(AllFilter()) == NotFilter(AllFilter())

