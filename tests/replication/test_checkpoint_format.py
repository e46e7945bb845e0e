"""A checkpoint that is not whole is refused, typed, naming its file.

``load_replica`` reads ``repro.replica-state.v2`` a line at a time: one
head line carrying each store's item count, then one line per item. An
empty file, garbage, a v1 document, a file cut at any byte (at a line
boundary or inside a line), a line past the last item and a line with
text after its value each raise :class:`CodecError` naming the path, and
a ``repro serve`` node booting from such a file raises it too, as it
does on a ``policy_state`` its PROPHET or MaxProp policy never wrote. An
amnesiac boot reads the head line alone. Text that would break a line
(``\\n``, ``\\r``, U+2028) is escaped, so every item stays on its line.
And a restore holds little beyond the replica it builds: no whole-file
parse sits beside it.
"""

import json
import tracemalloc
from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_inputs
from repro.net.server import NodeServer, ServeConfig
from repro.replication import (
    AddressFilter,
    MultiAddressFilter,
    Replica,
    ReplicaId,
)
from repro.replication import persistence
from repro.replication.codec import CodecError
from repro.replication.persistence import (
    checkpoint_lines,
    load_replica,
    save_replica,
)

EXPERIMENT = ExperimentConfig(scale=0.25, policy="epidemic")


def small_replica(name="alice"):
    """A replica with items in all three stores and a local attribute."""
    replica = Replica(
        ReplicaId(name), MultiAddressFilter(name, frozenset({"carol"}))
    )
    replica.create_item("inbox item", {"destination": name})
    replica.create_item("outbox item", {"destination": "bob"})
    other = Replica(ReplicaId("bob"), AddressFilter("bob"))
    replica.apply_remote(other.create_item("for carol", {"destination": "carol"}))
    relayed = other.create_item("relayed", {"destination": "dave"})
    replica.apply_remote(relayed.with_local(ttl=3, hops=("bob",)))
    return replica


def lines_of(replica):
    lines = list(checkpoint_lines(replica, {"p": {"bob": 0.5}}))
    assert len(lines) == 5
    return lines


def assert_refused(path, text):
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(CodecError) as refused:
        load_replica(path)
    assert str(path) in str(refused.value)


V1_DOCUMENT = json.dumps(
    {
        "policy_state": None,
        "replica_state": {
            "format": "repro.replica-state.v1",
            "replica": "alice",
            "filter": {"type": "address", "address": "alice"},
            "relay_capacity": None,
            "relay_eviction": "fifo",
            "knowledge": {},
            "ids": {"next_serial": 0, "version_counter": 0},
            "in_filter": [],
            "outbox": [],
            "relay": [],
        },
    },
    sort_keys=True,
)


class TestRefusal:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n",
            "garbage",
            "garbage\n",
            "\x00\x01\x02",
            b"\xff\xfe{}\n",
            "[1, 2, 3]\n",
            V1_DOCUMENT,
            V1_DOCUMENT + "\n",
            '{"format":"repro.replica-state.v2"}\n',
        ],
        ids=[
            "empty",
            "blank-line",
            "garbage",
            "garbage-line",
            "binary",
            "not-utf8",
            "not-an-object",
            "v1",
            "v1-line",
            "head-without-fields",
        ],
    )
    def test_a_file_that_is_no_checkpoint(self, tmp_path, text):
        assert_refused(tmp_path / "alice.json", text)

    def test_a_file_cut_at_every_line_boundary(self, tmp_path):
        lines = lines_of(small_replica())
        for kept in range(len(lines)):
            assert_refused(tmp_path / "alice.json", "".join(lines[:kept]))

    def test_a_file_cut_at_every_byte(self, tmp_path):
        text = "".join(lines_of(small_replica()))
        for size in range(len(text)):
            assert_refused(tmp_path / "alice.json", text[:size])

    def test_a_line_past_the_last_item(self, tmp_path):
        lines = lines_of(small_replica())
        for extra in (lines[-1], lines[0], "\n", "{}\n"):
            assert_refused(tmp_path / "alice.json", "".join(lines) + extra)

    def test_a_line_with_text_after_its_value(self, tmp_path):
        lines = lines_of(small_replica())
        for number in range(len(lines)):
            for junk in (" ", "x", "{}", " 1"):
                padded = list(lines)
                padded[number] = padded[number][:-1] + junk + "\n"
                assert_refused(tmp_path / "alice.json", "".join(padded))

    def test_a_line_that_starts_with_whitespace(self, tmp_path):
        lines = lines_of(small_replica())
        lines[2] = " " + lines[2]
        assert_refused(tmp_path / "alice.json", "".join(lines))

    def test_a_count_that_does_not_match(self, tmp_path):
        lines = lines_of(small_replica())
        head = json.loads(lines[0])
        head["counts"]["outbox"] += 1
        lines[0] = json.dumps(head, sort_keys=True, separators=(",", ":")) + "\n"
        assert_refused(tmp_path / "alice.json", "".join(lines))

    def test_the_whole_file_loads(self, tmp_path):
        replica = small_replica()
        path = tmp_path / "alice.json"
        path.write_text("".join(lines_of(replica)))
        restored, policy_state = load_replica(path)
        assert list(checkpoint_lines(restored)) == list(checkpoint_lines(replica))
        assert policy_state == {"p": {"bob": 0.5}}


class TestServeBoot:
    @pytest.fixture(scope="class")
    def name(self):
        return build_inputs(EXPERIMENT).trace.host_names[0]

    def _serve(self, tmp_path, name, policy="epidemic", amnesiac=False):
        return NodeServer(
            ServeConfig(
                node=name,
                listen=f"unix:{tmp_path / (name + '.sock')}",
                experiment=replace(EXPERIMENT, policy=policy),
                state_dir=str(tmp_path),
                amnesiac=amnesiac,
            )
        )

    def test_boots_from_a_whole_checkpoint(self, tmp_path, name):
        replica = Replica(ReplicaId(name), AddressFilter(name))
        replica.create_item("kept", {"destination": "x"})
        save_replica(replica, tmp_path / f"{name}.json")
        assert self._serve(tmp_path, name).node.replica.outbox_count == 1

    @pytest.mark.parametrize("cut", ["empty", "garbage", "v1", "truncated"])
    def test_refuses_a_bad_checkpoint(self, tmp_path, name, cut):
        replica = Replica(ReplicaId(name), AddressFilter(name))
        replica.create_item("kept", {"destination": "x"})
        path = tmp_path / f"{name}.json"
        save_replica(replica, path)
        text = {
            "empty": "",
            "garbage": "garbage\n",
            "v1": V1_DOCUMENT,
            "truncated": path.read_text()[:-10],
        }[cut]
        path.write_text(text)
        with pytest.raises(CodecError) as refused:
            self._serve(tmp_path, name)
        assert str(path) in str(refused.value)

    @pytest.mark.parametrize("policy", ["prophet", "maxprop"])
    @pytest.mark.parametrize(
        "state",
        [[1, 2], {"predictabilities": "x"}, {"bogus": 1}],
        ids=["a-list", "a-string-map", "an-unknown-key"],
    )
    def test_refuses_a_policy_state_its_policy_never_wrote(
        self, tmp_path, name, policy, state
    ):
        path = tmp_path / f"{name}.json"
        save_replica(Replica(ReplicaId(name), AddressFilter(name)), path, state)
        with pytest.raises(CodecError) as refused:
            self._serve(tmp_path, name, policy=policy)
        assert str(path) in str(refused.value)

    def _amnesiac_checkpoint(self, tmp_path, name):
        replica = Replica(
            ReplicaId(name),
            MultiAddressFilter(name, frozenset({"carol"})),
            relay_capacity=3,
            relay_eviction="random",
        )
        for serial in range(5):
            replica.create_item(f"kept {serial}", {"destination": "x"})
        save_replica(replica, tmp_path / f"{name}.json", {"p": 1})
        return replica

    def test_an_amnesiac_boot_decodes_no_item_line(self, tmp_path, name, monkeypatch):
        self._amnesiac_checkpoint(tmp_path, name)

        def refuse(data):
            raise AssertionError("an amnesiac boot decoded an item line")

        monkeypatch.setattr(persistence, "decode_item", refuse)
        replica = self._serve(tmp_path, name, amnesiac=True).node.replica
        assert replica.stored_count == 0
        assert not replica.knowledge

    def test_an_amnesiac_boot_keeps_what_restore_then_forget_keeps(
        self, tmp_path, name
    ):
        saved = self._amnesiac_checkpoint(tmp_path, name)
        forgot = self._serve(tmp_path, name)
        forgot.node.amnesiac_restart()
        booted = self._serve(tmp_path, name, amnesiac=True).node

        def kept(node):
            replica = node.replica
            return (
                replica.replica_id,
                replica.filter,
                replica._relay.capacity,
                replica._relay.strategy,
                replica._ids.snapshot(),
                replica.stored_count,
                replica.knowledge,
            )

        assert kept(booted) == kept(forgot.node)
        assert kept(booted)[4] == saved._ids.snapshot()
        assert booted.replica.create_item("new", {}).item_id not in {
            item.item_id for item in saved.stored_items()
        }


@pytest.mark.parametrize("breaker", ["\n", "\r", "\r\n", "\u2028", "\u2029"])
def test_line_breaking_text_stays_on_its_line(tmp_path, breaker):
    replica = Replica(ReplicaId("alice"), AddressFilter("alice"))
    replica.create_item(f"one{breaker}two", {"destination": f"bob{breaker}"})
    other = Replica(ReplicaId("bob"), AddressFilter("bob"))
    relayed = other.create_item(f"{breaker}", {"destination": "carol"})
    replica.apply_remote(relayed.with_local(note=f"a{breaker}b"))
    path = tmp_path / "alice.json"
    save_replica(replica, path, policy_state={f"k{breaker}": f"v{breaker}"})
    raw = path.read_bytes()
    assert raw.count(b"\n") == 1 + replica.stored_count
    assert b"\r" not in raw and breaker.encode() not in raw.replace(b"\n", b"")
    restored, policy_state = load_replica(path)
    assert list(checkpoint_lines(restored)) == list(checkpoint_lines(replica))
    assert {item.payload for item in restored.stored_items()} == {
        f"one{breaker}two",
        f"{breaker}",
    }
    assert policy_state == {f"k{breaker}": f"v{breaker}"}


def test_a_restore_peaks_near_what_it_restores(tmp_path):
    """``load_replica`` of a 2 100-copy checkpoint peaks at most 1.3 times
    what the restored replica holds (2.3 times when the whole file was
    parsed before the first item was decoded)."""
    hub = Replica(ReplicaId("hub"), MultiAddressFilter("hub", frozenset({"u1"})))
    origins = [
        Replica(ReplicaId(f"bus{i}"), AddressFilter(f"bus{i}")) for i in range(20)
    ]
    for k in range(2000):
        origin = origins[k % len(origins)]
        item = origin.create_item(
            f"message body {k} " + "x" * 40,
            {"destination": "hub" if k % 5 == 0 else f"user{k % 37}"},
        )
        hub.apply_remote(item.with_local(ttl=k % 7, hops=("bus1", "bus2")))
    for k in range(100):
        hub.create_item(f"out {k}", {"destination": f"user{k}"})
    path = tmp_path / "hub.json"
    save_replica(hub, path)
    del hub, origins, item

    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        restored, _ = load_replica(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert restored.stored_count == 2100
    assert peak - baseline <= 1.3 * (held - baseline)
