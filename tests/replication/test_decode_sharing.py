"""A decoded copy shares what repeats, and decodes to what it always did.

The codec keeps one copy of each replica name, replica id and short
attribute string it decodes (a bounded process-wide table), hands
per-copy state to ``items.per_copy_state`` and builds an item's
attribute map once. These tests pin that down as identities, field by
field equality with the unshared decode, the table's bound, and the
bytes a live node holds per stored copy against an in-process replica.
"""

import contextlib
import gc
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EncounterSession, ExperimentConfig
from repro.experiments import build_scenario
from repro.net.framing import FrameDecoder, encode_frame
from repro.replication import codec
from repro.replication.codec import (
    CodecError,
    decode_batch_frame,
    decode_item,
    encode_batch_frame,
    encode_item,
)
from repro.replication.ids import ItemId, ReplicaId, Version
from repro.replication.integrity import item_checksum
from repro.replication.items import Item
from repro.replication.routing import Priority, PriorityClass
from repro.replication.sync import BatchEntry


@contextlib.contextmanager
def fresh_table(bound=None):
    """The codec's name table as a new process starts it (optionally
    with another bound); the real one is put back afterwards."""
    tables = codec._names, codec._replica_ids
    saved = [dict(table) for table in tables], codec.SHARED_NAMES
    for table in tables:
        table.clear()
    if bound is not None:
        codec.SHARED_NAMES = bound
    try:
        yield
    finally:
        for table, content in zip(tables, saved[0]):
            table.clear()
            table.update(content)
        codec.SHARED_NAMES = saved[1]


def unshared_decode_item(data):
    """The decode before sharing: every value as the JSON parser made it."""
    local = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in data.get("local", {}).items()
    }
    return Item(
        item_id=ItemId(ReplicaId(data["id"][0]), int(data["id"][1])),
        version=Version(ReplicaId(data["version"][0]), int(data["version"][1])),
        payload=data.get("payload"),
        attributes=data.get("attributes", {}),
        local_attributes=local,
        deleted=bool(data.get("deleted", False)),
    )


def typed(value):
    """A value with the exact type of every part of it beside it."""
    if isinstance(value, dict):
        return {key: typed(part) for key, part in value.items()}
    if isinstance(value, (list, tuple)):
        return (type(value), [typed(part) for part in value])
    return (type(value), repr(value))


def item(origin, serial, attributes, local=None, payload="body"):
    return Item(
        ItemId(ReplicaId(origin), serial),
        Version(ReplicaId(origin), serial + 1),
        payload,
        attributes,
        local or {},
    )


def over_the_wire(entries):
    """``entries`` as a peer's batch frame: encoded, framed, parsed, decoded."""
    framed = encode_frame({"frame": encode_batch_frame(entries)})
    (message,) = FrameDecoder().feed(framed)
    return decode_batch_frame(message["frame"])


def entry(an_item, cost=1.0):
    return BatchEntry(an_item, True, Priority(PriorityClass.NORMAL, cost))


class TestSharing:
    def test_two_frames_share_ids_and_names(self):
        attributes = {"kind": "message", "source": "alice", "destination": "bob"}
        with fresh_table():
            first = over_the_wire([entry(item("bus-1", 0, attributes))])[0].item
            second = over_the_wire([entry(item("bus-1", 7, attributes))])[0].item
        assert first.item_id.origin is second.item_id.origin
        assert first.version.replica is second.version.replica
        assert first.item_id.origin is first.version.replica
        assert first.item_id.origin.name is second.item_id.origin.name
        for key in attributes:
            (a,) = [k for k in first.attributes if k == key]
            (b,) = [k for k in second.attributes if k == key]
            assert a is b
            assert first.attributes[key] is second.attributes[key]

    def test_a_name_and_an_equal_attribute_value_are_one_string(self):
        with fresh_table():
            (decoded,) = over_the_wire([entry(item("bus-1", 0, {"source": "bus-1"}))])
        decoded = decoded.item
        assert decoded.attributes["source"] is decoded.item_id.origin.name

    def test_per_copy_state_is_the_shared_mapping(self):
        copies = [
            over_the_wire([entry(item("a", serial, {}, {"epidemic.ttl": 7}))])[0].item
            for serial in range(3)
        ]
        assert len({id(copy.local_attributes) for copy in copies}) == 1
        stamped = item("a", 9, {}).wire_copy(**{"epidemic.ttl": 7})
        assert copies[0].local_attributes is stamped.local_attributes

    def test_long_strings_are_not_kept(self):
        body = "x" * (codec.SHARED_NAME_LENGTH + 1)
        with fresh_table():
            over_the_wire([entry(item("a", 0, {"note": body}))])
            assert body not in codec._names
            assert "note" in codec._names

    def test_decoding_never_interns(self, monkeypatch):
        interned = []
        intern = sys.intern
        monkeypatch.setattr(
            sys, "intern", lambda text: interned.append(text) or intern(text)
        )
        sent = item("bus-9", 0, {"kind": "message"}, {"hops": ("a",)})
        with fresh_table():
            over_the_wire([entry(sent)])
        monkeypatch.undo()
        assert interned == []


class TestTheBound:
    def test_more_names_than_the_bound_leave_the_table_at_its_bound(self):
        batch = [
            entry(item(f"origin-{n}", n, {f"key-{n}": f"value-{n}"}))
            for n in range(20)
        ]
        with fresh_table(bound=8):
            decoded = over_the_wire(batch)
            assert len(codec._names) == 8
            assert len(codec._replica_ids) == 8
            again = over_the_wire(batch)
        for got, sent in zip(decoded + again, batch + batch):
            assert got.item.item_id == sent.item.item_id
            assert got.item.version == sent.item.version
            assert typed(dict(got.item.attributes)) == typed(dict(sent.item.attributes))
        # Past the bound a name is used as decoded: correct, unshared.
        assert decoded[-1].item.item_id.origin is not again[-1].item.item_id.origin

    @pytest.mark.parametrize("name", ["", 5, None, ["bus"], {"a": 1}, 1.5, True])
    def test_a_malformed_name_still_raises_codec_error(self, name):
        data = encode_item(item("a", 0, {}))
        data["id"] = [name, 0]
        with fresh_table():
            with pytest.raises(CodecError):
                decode_item(data)
            assert codec._replica_ids == {}


_SHORT = st.text(max_size=8) | st.sampled_from(["bus-1", "message", "é", "日本"])
_TEXT = _SHORT | st.text(min_size=60, max_size=80)
_VALUE = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | _TEXT
    | st.lists(_SHORT, max_size=3)
    | st.lists(st.integers() | st.booleans(), max_size=3)
)


class TestSameDecode:
    @settings(max_examples=200, deadline=None)
    @given(
        origin=_SHORT.filter(bool),
        attributes=st.dictionaries(_TEXT, _VALUE, max_size=5),
        local=st.dictionaries(_SHORT, _VALUE, max_size=3),
        payload=_VALUE,
        cost=st.floats(min_value=0.0, max_value=1e9),
        bound=st.sampled_from([None, 2]),
    )
    def test_every_field_is_the_unshared_decode(
        self, origin, attributes, local, payload, cost, bound
    ):
        sent = entry(item(origin, 3, attributes, local, payload), cost)
        frame = json.loads(json.dumps(encode_batch_frame([sent, sent])))
        with fresh_table(bound):
            decoded = decode_batch_frame(json.loads(json.dumps(frame)))
        for got, raw in zip(decoded, frame["entries"]):
            expected = unshared_decode_item(raw["item"])
            assert got.item.item_id == expected.item_id
            assert got.item.version == expected.version
            assert typed(got.item.payload) == typed(expected.payload)
            assert typed(dict(got.item.attributes)) == typed(dict(expected.attributes))
            assert typed(dict(got.item.local_attributes)) == typed(
                dict(expected.local_attributes)
            )
            assert got.item.deleted == expected.deleted
            assert item_checksum(got.item) == item_checksum(expected) == raw["checksum"]
            assert got.checksum == raw["checksum"]
            assert got.matched_filter is True
            assert got.priority == Priority(
                PriorityClass(raw["priority"][0]), float(raw["priority"][1])
            )
            assert json.dumps(encode_item(got.item), sort_keys=True) == json.dumps(
                encode_item(expected), sort_keys=True
            )


# -- what a live node holds per stored copy --------------------------------------

NODES = 4
CYCLES = 150
INJECT = 8


def tape(names, seed=42):
    """8 messages at random authors, then one random pair meets; twice
    over every pair at the end (the ``swarm_live`` tape, shorter)."""
    rng = random.Random(seed)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    steps, now = [], 0.0
    for cycle in range(CYCLES):
        for serial in range(INJECT):
            writer = rng.choice(names)
            reader = rng.choice([name for name in names if name != writer])
            now += 1.0
            steps.append(("inject", now, writer, reader, f"m{cycle}.{serial}"))
        a, b = rng.choice(pairs)
        now += 1.0
        first, second = (a, b) if rng.random() < 0.5 else (b, a)
        steps.append(("encounter", now, first, second))
    for _ in range(2):
        for a, b in pairs:
            now += 1.0
            steps.append(("encounter", now, a, b))
    return steps


class _Arrived:
    truncated = False
    lost = 0

    def __init__(self, delivered, confirmed):
        self.delivered = delivered
        self.confirmed = confirmed


class _LiveCodec:
    """A sync's batch as ``repro serve`` moves it: frame, parse, decode."""

    def deliver(self, stamped):
        return _Arrived(over_the_wire(stamped), stamped)


def bytes_per_stored_copy(live):
    nodes = build_scenario(ExperimentConfig(scale=0.25, policy="epidemic")).nodes
    names = sorted(nodes)[:NODES]
    steps = tape(names)
    channel = _LiveCodec() if live else None
    gc.collect()
    tracemalloc.start(1)
    try:
        before = tracemalloc.get_traced_memory()[0]
        for step in steps:
            if step[0] == "inject":
                _, now, writer, reader, body = step
                nodes[writer].send(writer, reader, body, now=now)
            else:
                _, now, a, b = step
                EncounterSession(
                    first=nodes[a].endpoint,
                    second=nodes[b].endpoint,
                    now=now,
                    transport_factory=(lambda s, t: channel) if live else None,
                ).run()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    copies = sum(nodes[name].replica.stored_count for name in names)
    assert copies > 3 * CYCLES * INJECT  # the tape floods every node
    return grown / copies


def test_a_decoded_copy_costs_at_most_two_and_a_half_in_process_copies():
    # About 2 s: 150 cycles under tracemalloc, twice.
    with fresh_table():
        in_process = bytes_per_stored_copy(live=False)
        live = bytes_per_stored_copy(live=True)
    # 3.3x while every decoded item carried its own names, ids,
    # per-copy state and a copied attribute map (docs/performance.md §15).
    assert live <= 2.5 * in_process, (live, in_process)
