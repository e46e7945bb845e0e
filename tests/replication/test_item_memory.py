"""What one stored copy costs, and why sharing its parts is safe.

Four claims, as counts and refusals rather than timings:

* an item's mappings are read-only in fact, so a copy on one replica
  cannot be edited through a copy on another (they share mappings);
* per-copy state is shared by value through one constructor that never
  lets look-alike values (``1``, ``1.0``, ``True``) answer for each other;
* on a small flood the number of distinct state mappings and the bytes
  allocated per stored copy stay where docs/performance.md §10 says;
* identical copies of one version share one shell once a store adopts
  one, and a copy no store adopts is never kept alive for it (§20).
"""

import copy
import gc
import json
import pickle
import random
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import EncounterSession, SessionConfig, get_policy
from repro.dtn.epidemic import TTL_ATTRIBUTE, EpidemicPolicy
from repro.replication import (
    AddressFilter,
    MultiAddressFilter,
    Replica,
    ReplicaId,
    SyncEndpoint,
)
from repro.replication.codec import decode_item, encode_item
from repro.replication.integrity import (
    cached_item_checksum,
    checksum_computations,
    item_checksum,
    stamp_checksum,
)
from repro.replication.items import (
    CHECKSUM_MEMO_ATTRIBUTE,
    DERIVED_ATTRIBUTE,
    Item,
    _shared_state,
    per_copy_state,
)
from tests.conftest import make_item
from tests.replication.test_decode_sharing import _LiveCodec

def memo_of(item):
    return getattr(item, CHECKSUM_MEMO_ATTRIBUTE, None)


def typed(mapping):
    """A mapping's content with every value's exact type beside it."""
    return {key: (type(value), repr(value)) for key, value in mapping.items()}


def wire_bytes(item):
    return json.dumps(encode_item(item), sort_keys=True).encode()


#: One way to write through each of an item's two mappings, per method.
WRITES = {
    "attributes[k] = v": lambda item: item.attributes.__setitem__("destination", "evil"),
    "del attributes[k]": lambda item: item.attributes.__delitem__("destination"),
    "attributes.update": lambda item: item.attributes.update(destination="evil"),
    "attributes.setdefault": lambda item: item.attributes.setdefault("extra", 1),
    "attributes.clear": lambda item: item.attributes.clear(),
    "attributes.popitem": lambda item: item.attributes.popitem(),
    "local.pop": lambda item: item.local_attributes.pop(TTL_ATTRIBUTE),
    "local.update": lambda item: item.local_attributes.update({TTL_ATTRIBUTE: 99}),
    "local |= ": lambda item: item.local_attributes.__ior__({TTL_ATTRIBUTE: 99}),
    "local[k] = v": lambda item: item.local_attributes.__setitem__(TTL_ATTRIBUTE, 99),
}


class TestMappingsAreReadOnly:
    def encounter(self):
        a = Replica(ReplicaId("a"), AddressFilter("a"))
        b = Replica(ReplicaId("b"), AddressFilter("b"))
        item = a.create_item("body", {"destination": "carol", "source": "a"})
        EncounterSession(
            first=SyncEndpoint(a, EpidemicPolicy().bind(a)),
            second=SyncEndpoint(b, EpidemicPolicy().bind(b)),
        ).run()
        return a.get_item(item.item_id), b.get_item(item.item_id)

    @pytest.mark.parametrize("write", WRITES.values(), ids=WRITES)
    def test_writing_through_one_replicas_copy_raises_and_changes_nothing(
        self, write
    ):
        mine, theirs = self.encounter()
        assert theirs is not None and theirs is not mine
        assert theirs.attributes is mine.attributes  # shared, hence the rule
        memo = cached_item_checksum(mine)
        before = dict(mine.attributes), dict(mine.local_attributes)
        with pytest.raises(TypeError, match="read-only"):
            write(theirs)
        assert (dict(mine.attributes), dict(mine.local_attributes)) == before
        assert mine.destination == theirs.destination == "carol"
        assert item_checksum(mine) == cached_item_checksum(mine) == memo
        assert theirs.local(TTL_ATTRIBUTE) == mine.local(TTL_ATTRIBUTE) - 1

    def test_in_place_union_cannot_rebind_a_frozen_field_either(self):
        _mine, theirs = self.encounter()
        with pytest.raises(TypeError, match="read-only"):
            theirs.attributes |= {"destination": "evil"}

    def test_a_callers_mapping_is_still_copied(self):
        attributes = {"destination": "x"}
        local = {"ttl": 3}
        item = Item(
            make_item().item_id, make_item().version, "p", attributes, local
        )
        attributes["destination"] = "mutated"
        local["ttl"] = 4
        local["extra"] = 1
        assert item.destination == "x"
        assert dict(item.local_attributes) == {"ttl": 3}
        assert item.attributes is not attributes
        assert item.local_attributes is not local

    def test_reads_and_plain_copies_still_work(self):
        item = make_item(destination="carol").with_local(ttl=3)
        assert dict(item.attributes)["destination"] == "carol"
        assert {**item.local_attributes, "more": 1} == {"ttl": 3, "more": 1}
        assert item.local_attributes | {"more": 1} == {"ttl": 3, "more": 1}
        assert item.local_attributes.copy() == {"ttl": 3}


#: Values a policy might stamp, with look-alikes that compare equal across
#: types, hop lists, an unhashable list, and ``None`` (delete the key).
look_alikes = st.sampled_from([0, 1, 2, 0.0, -0.0, 1.0, 2.0, True, False, "1"])
hop_lists = st.lists(st.sampled_from(["bus-a", "bus-b"]), max_size=3).map(tuple)
state_values = st.one_of(
    look_alikes,
    hop_lists,
    st.tuples(look_alikes, look_alikes),
    st.lists(look_alikes, max_size=2),
)
state_keys = st.sampled_from(["epidemic.ttl", "spray.copies", "maxprop.hops"])
states = st.dictionaries(state_keys, state_values, max_size=3)
changes = st.dictionaries(
    state_keys, st.one_of(st.none(), state_values), max_size=3
)


class TestSharedStateNeverConflates:
    @given(held=states, shipped=changes, hashed=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_wire_copy_is_strip_then_stamp_to_the_type_and_the_byte(
        self, held, shipped, hashed
    ):
        item = make_item(payload="body").with_local(**held)
        assert typed(item.local_attributes) == typed(held)
        if hashed:
            cached_item_checksum(item)
        one_step = item.wire_copy(**shipped)
        two_step = item.without_local().with_local(**shipped)
        wanted = {k: v for k, v in shipped.items() if v is not None}
        # Never somebody else's equal-looking state: compared with a
        # mapping the table has no part in.
        assert typed(one_step.local_attributes) == typed(wanted)
        assert typed(two_step.local_attributes) == typed(wanted)
        expected = encode_item(item.without_local())
        if wanted:
            expected["local"] = wanted
        expected = json.dumps(expected, sort_keys=True).encode()
        assert wire_bytes(one_step) == wire_bytes(two_step) == expected
        assert one_step == two_step == item
        assert hash(one_step) == hash(two_step) == hash(item)
        memo = item_checksum(item) if hashed else None
        assert memo_of(two_step) == memo
        assert memo_of(one_step) == memo
        assert typed(item.local_attributes) == typed(held)  # source untouched

    @given(state=states)
    @settings(max_examples=200, deadline=None)
    def test_equal_states_of_equal_types_are_one_object(self, state):
        first = make_item().wire_copy(**state)
        second = make_item().with_local(**dict(reversed(list(state.items()))))
        shareable = all(
            type(value) in (int, str, bool)
            or (type(value) is tuple and all(type(e) is str for e in value))
            for value in state.values()
        )
        if shareable:
            assert first.local_attributes is second.local_attributes
            assert first.wire_copy(**state) is first
        else:  # built fresh: correct, merely its own
            assert first.local_attributes is not second.local_attributes
        assert typed(first.local_attributes) == typed(second.local_attributes)
        assert typed(first.local_attributes) == typed(state)

    def test_look_alikes_get_mappings_of_their_own(self):
        item = make_item()
        one, true, real = (item.wire_copy(ttl=v) for v in (1, True, 1.0))
        kinds = [type(copy.local("ttl")) for copy in (one, true, real)]
        assert kinds == [int, bool, float]
        assert one.local_attributes is not true.local_attributes
        assert one.wire_copy(ttl=True) is not one
        assert type(one.wire_copy(ttl=True).local("ttl")) is bool
        assert type(real.wire_copy(ttl=1).local("ttl")) is int
        assert type(real.with_local(ttl=1).local("ttl")) is int
        assert repr(item.wire_copy(ttl=-0.0).local("ttl")) == "-0.0"
        assert repr(item.wire_copy(ttl=0.0).local("ttl")) == "0.0"
        assert item.wire_copy(hops=(1,)).local_attributes is not (
            item.wire_copy(hops=(True,)).local_attributes
        )
        assert type(item.wire_copy(hops=(True,)).local("hops")[0]) is bool

    def test_more_states_than_the_table_holds_are_correct_and_unshared(self):
        bound = _shared_state.cache_info().maxsize
        item = make_item()
        first = item.wire_copy(ttl=-1)
        assert item.wire_copy(ttl=-1).local_attributes is first.local_attributes
        for ttl in range(bound + 10):
            assert item.wire_copy(ttl=ttl).local_attributes == {"ttl": ttl}
        assert _shared_state.cache_info().currsize == bound
        again = item.wire_copy(ttl=-1)  # forgotten since: built again
        assert again.local_attributes is not first.local_attributes
        assert typed(again.local_attributes) == typed(first.local_attributes)
        assert first.with_local(ttl=-1) == first  # re-stamped, still equal

    def test_a_shared_mapping_is_immutable_so_the_table_needs_no_invalidation(self):
        state = per_copy_state({"ttl": 5})
        assert per_copy_state({"ttl": 5}) is state
        with pytest.raises(TypeError, match="read-only"):
            state["ttl"] = 6
        assert per_copy_state({"ttl": 5}) == {"ttl": 5}


FLOOD = dict(replicas=8, items=300, encounters=600)
FLOOD_TTL = 10**9


def name_of(index):
    return f"flood-{index:03d}"


class _Everything:
    """What a transport's ``deliver`` returns: all of it arrived."""

    truncated = False
    lost = 0

    def __init__(self, delivered):
        self.delivered = delivered


class _DuplicatingLoopback:
    """In order and intact, every 7th entry handed over twice."""

    def __init__(self):
        self.carried = 0

    def deliver(self, batch):
        delivered = []
        for entry in batch:
            delivered.append(entry)
            self.carried += 1
            if self.carried % 7 == 0:
                delivered.append(entry)
        return _Everything(delivered)


def run_flood(seed=42):
    """The ``--tiny`` ``substrate_flood``: random pairs, then a chain sweep
    there and back, so every item reaches every replica exactly once."""
    rng = random.Random(seed)
    n = FLOOD["replicas"]
    sweep = [(i, i + 1) for i in range(n - 1)]
    drain = sweep + [(b, a) for a, b in reversed(sweep)]
    pairs = []
    for _ in range(FLOOD["encounters"] - len(drain)):
        a, b = rng.randrange(n), rng.randrange(n - 1)
        pairs.append((a, b + 1 if b >= a else b))
    horizon = max(1, int(len(pairs) * 0.8))
    authored = {}
    for _ in range(FLOOD["items"]):
        writer, reader = rng.randrange(n), rng.randrange(n - 1)
        authored.setdefault(rng.randrange(horizon), []).append(
            (writer, reader + 1 if reader >= writer else reader)
        )
    endpoints = []
    for index in range(n):
        replica = Replica(
            ReplicaId(name_of(index)),
            MultiAddressFilter(own_address=name_of(index)),
        )
        policy = get_policy("epidemic", initial_ttl=FLOOD_TTL).bind(replica)
        endpoints.append(SyncEndpoint(replica, policy))
    channel = _DuplicatingLoopback()
    config = SessionConfig()
    for index, (a, b) in enumerate(pairs + drain):
        for writer, reader in authored.get(index, ()):
            endpoints[writer].replica.create_item(
                payload=f"m{index}",
                attributes={
                    "destination": name_of(reader),
                    "source": name_of(writer),
                },
            )
        EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=float(index),
            config=config,
            transport_factory=lambda source, target: channel,
        ).run()
    return endpoints


class TestWhatAStoredCopyCosts:
    def test_state_mappings_and_bytes_per_copy_on_the_tiny_flood(self):
        gc.collect()
        tracemalloc.start(1)
        try:
            endpoints = run_flood()
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        copies = [
            item for e in endpoints for item in e.replica.stored_items()
        ]
        assert len(copies) == FLOOD["replicas"] * FLOOD["items"]  # it flooded
        # ``None``: an author's copy whose only offer was a delivery.
        ttls = {item.local(TTL_ATTRIBUTE) for item in copies}
        assert len(ttls) > 2
        states = {id(item.local_attributes) for item in copies}
        # 2 400 (one per copy) before per-copy state was shared by value.
        assert len(states) <= FLOOD["items"] + FLOOD["replicas"] * len(ttls)
        # In fact: one per stamped value, and an author's never-stamped copy
        # still holds the empty mapping its constructor made.
        unstamped = sum(item.local(TTL_ATTRIBUTE) is None for item in copies)
        assert 0 < unstamped < FLOOD["items"] // 10
        assert len(states) == len(ttls - {None}) + unstamped
        attributed = sum(
            stat.size
            for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename.endswith("replication/items.py")
            or "/repro/dtn/" in stat.traceback[0].filename
        )
        # 344 before; 113 with a shell per copy (88 B each, its share of
        # 300 attribute dicts); 92 with identical copies sharing a shell.
        assert attributed / len(copies) <= 160
        indexed = sum(
            stat.size
            for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename.endswith("replication/store.py")
        )
        # 149 while the version index kept a (key, item) pair and a boxed
        # key per copy; 78 with the key unboxed and the item in a column.
        assert indexed / len(copies) <= 90

    def test_an_authored_copy_is_hashed_once_however_often_it_is_sent(self):
        before = checksum_computations()
        run_flood()
        # 773 while only the wire copy kept its checksum: each send of an
        # author's stored copy hashed it again.
        assert checksum_computations() - before == FLOOD["items"]

    def test_a_replaced_copy_carries_no_memo_and_recomputes(self):
        item = make_item().wire_copy(ttl=3)
        cached_item_checksum(item)
        assert memo_of(item) is not None
        forged = replace(item, payload="tampered")
        assert memo_of(forged) is None
        before = checksum_computations()
        assert cached_item_checksum(forged) == item_checksum(forged)
        assert cached_item_checksum(forged) != cached_item_checksum(item)
        assert checksum_computations() - before == 2  # memoised once, spec once
        assert forged.local_attributes is item.local_attributes

    def test_only_the_copy_a_wire_copy_came_from_shares_its_checksum(self):
        held = make_item(payload="body")
        wire = held.wire_copy(ttl=3)
        forged = replace(held, payload="tampered")
        decoded = decode_item(encode_item(held))
        for other in (forged, decoded, replace(held, deleted=True)):
            fresh = held.wire_copy(ttl=3)  # no memo yet: computed here
            assert stamp_checksum(fresh, lambda _: other) == item_checksum(held)
            assert memo_of(other) is None
        assert stamp_checksum(wire, lambda _: held) == memo_of(held) == memo_of(wire)
        before = checksum_computations()
        assert cached_item_checksum(forged) != memo_of(held)
        assert checksum_computations() - before == 1

    def test_an_item_has_no_dict(self):
        item = make_item()
        assert not hasattr(item, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(item, "anything_else", 1)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda item: pickle.loads(pickle.dumps(item))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles_compare_equal_and_drop_the_memos(self, clone):
        item = make_item(payload="body").wire_copy(ttl=3, hops=("a", "b"))
        cached_item_checksum(item)
        twin = clone(item)
        assert twin is not item and twin == item and hash(twin) == hash(item)
        assert memo_of(twin) is None
        assert wire_bytes(twin) == wire_bytes(item)
        assert typed(twin.local_attributes) == typed(item.local_attributes)
        assert cached_item_checksum(twin) == cached_item_checksum(item)
        with pytest.raises(TypeError, match="read-only"):
            twin.attributes["destination"] = "evil"


# -- identical copies share one shell --------------------------------------------


def derived_of(item):
    return getattr(item, DERIVED_ATTRIBUTE, None)


def endpoint(name, policy):
    replica = Replica(ReplicaId(name), MultiAddressFilter(own_address=name))
    return SyncEndpoint(replica, get_policy(policy).bind(replica))


def meet(first, second, transport=None):
    EncounterSession(
        first=first,
        second=second,
        transport_factory=None if transport is None else (lambda s, t: transport),
    ).run()


class TestIdenticalCopiesShareAShell:
    def test_a_shell_is_no_larger_than_one_pymalloc_block_of_96(self):
        assert sys.getsizeof(make_item()) <= 96

    def test_the_tiny_flood_holds_fewer_shells_than_copies(self):
        copies = [item for e in run_flood() for item in e.replica.stored_items()]
        shells = {id(item) for item in copies}
        values = {
            (item.item_id, item.version, id(item.local_attributes)) for item in copies
        }
        assert len(copies) == 2400
        assert len(values) == 1225
        # 2 400 while every hop built a shell of its own; 1 668 here.
        assert len(values) <= len(shells) <= 1700

    @pytest.mark.parametrize("policy", ["epidemic", "spray", "maxprop"])
    def test_a_second_receiver_gets_the_first_receivers_shell(self, policy):
        a, b, c, d = (endpoint(name, policy) for name in "abcd")
        sent = a.replica.create_item("body", {"destination": "z", "source": "a"})
        # The first send goes out before the author's copy is stamped, so
        # it derives from a copy no store holds any more.
        for receiver in (b, c, d):
            meet(a, receiver)
        held = a.replica.get_item(sent.item_id)
        first = c.replica.get_item(sent.item_id)
        second = d.replica.get_item(sent.item_id)
        assert first is not None and first is not held
        if dict(first.local_attributes) == dict(second.local_attributes):
            assert second is first
        else:  # a halved copy budget: another state, another shell
            assert second is not first
        # An adopted copy points nowhere back.
        for item in (held, first, second):
            assert type(derived_of(item)) is not tuple

    @pytest.mark.parametrize("policy", ["epidemic", "spray", "maxprop"])
    def test_no_stored_copy_keeps_a_wire_copy_alive(self, policy):
        nodes = [endpoint(name, policy) for name in ("a", "b", "c")]
        for node in nodes:
            for serial in range(3):
                node.replica.create_item(
                    f"m{serial}", {"destination": "z", "source": "x"}
                )
        live = _LiveCodec()
        for first, second in [(0, 1), (1, 2), (2, 0), (1, 0)]:
            meet(nodes[first], nodes[second], live)
        stored = [item for node in nodes for item in node.replica.stored_items()]
        assert len(stored) == 27  # it flooded
        held = {id(item) for item in stored}
        for item in stored:
            derived = derived_of(item)
            assert type(derived) is not tuple  # adopted: the origin let go
            assert derived is None or id(derived) in held

    def test_a_derivation_no_store_adopts_is_not_remembered(self):
        held = make_item().wire_copy(ttl=3)
        shipped = held.wire_copy(ttl=2)
        assert derived_of(shipped) == (held,)
        assert derived_of(held) is not shipped
        assert held.wire_copy(ttl=2) is not shipped
