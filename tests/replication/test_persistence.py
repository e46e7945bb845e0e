"""Tests for replica checkpointing and restore."""

import json
import os
import subprocess
import sys

import pytest

from repro.replication import (
    AddressFilter,
    MultiAddressFilter,
    Replica,
    ReplicaId,
    SyncEndpoint,
    SyncSession,
)
from repro.replication.codec import CodecError
from repro.replication.persistence import (
    amnesiac_replica,
    checkpoint_lines,
    load_replica,
    replica_from_lines,
    save_replica,
)


def populated_replica():
    replica = Replica(
        ReplicaId("alice"), MultiAddressFilter("alice", frozenset({"carol"}))
    )
    replica.create_item("inbox item", {"destination": "alice"})
    replica.create_item("outbox item", {"destination": "bob"})
    other = Replica(ReplicaId("bob"), AddressFilter("bob"))
    relayed = other.create_item("relayed", {"destination": "dave"})
    replica.apply_remote(relayed.with_local(ttl=3))
    return replica


def roundtrip(replica):
    """``replica`` rebuilt from its checkpoint lines."""
    restored, _ = replica_from_lines(checkpoint_lines(replica))
    return restored


class TestRoundtrip:
    def test_stores_survive(self):
        replica = populated_replica()
        restored = roundtrip(replica)
        assert restored.in_filter_count == replica.in_filter_count
        assert restored.outbox_count == replica.outbox_count
        assert restored.relay_count == replica.relay_count

    def test_knowledge_survives(self):
        replica = populated_replica()
        restored = roundtrip(replica)
        assert restored.knowledge == replica.knowledge

    def test_local_attributes_survive(self):
        replica = populated_replica()
        restored = roundtrip(replica)
        relayed = [item for item in restored.stored_items() if item.local("ttl")]
        assert len(relayed) == 1
        assert relayed[0].local("ttl") == 3

    def test_filter_survives(self):
        replica = populated_replica()
        restored = roundtrip(replica)
        assert restored.filter == replica.filter

    def test_state_is_json_representable(self):
        text = "".join(checkpoint_lines(populated_replica()))
        for line in text.splitlines():
            json.loads(line)
        restored, _ = replica_from_lines(text.splitlines(keepends=True))
        assert restored.knowledge == populated_replica().knowledge

    def test_id_counters_continue_not_repeat(self):
        replica = populated_replica()
        restored = roundtrip(replica)
        fresh = restored.create_item("post-restore", {"destination": "x"})
        existing_ids = {item.item_id for item in replica.stored_items()}
        assert fresh.item_id not in existing_ids
        existing_versions = set(replica.knowledge.versions())
        assert fresh.version not in existing_versions

    def test_relay_capacity_survives(self):
        replica = Replica(
            ReplicaId("n"), AddressFilter("n"), relay_capacity=2
        )
        restored = roundtrip(replica)
        assert restored._relay.capacity == 2

    def test_bad_format_rejected(self):
        with pytest.raises(CodecError):
            replica_from_lines(['{"format":"something-else"}\n'])

    def test_registered_eviction_strategy_survives(self):
        replica = Replica(
            ReplicaId("n"),
            AddressFilter("n"),
            relay_capacity=2,
            relay_eviction="random",
        )
        head = json.loads(next(checkpoint_lines(replica)))
        assert head["relay_eviction"] == "random"
        restored = roundtrip(replica)
        assert restored._relay.strategy == "random"


class TestAmnesia:
    def test_keeps_identity_and_counters_and_forgets_the_rest(self):
        replica = Replica(
            ReplicaId("n"),
            MultiAddressFilter("n", frozenset({"u"})),
            relay_capacity=2,
            relay_eviction="random",
        )
        replica.create_item("before", {"destination": "x"})
        fresh = amnesiac_replica(replica)
        assert fresh.replica_id == replica.replica_id
        assert fresh.filter == replica.filter
        assert (fresh._relay.capacity, fresh._relay.strategy) == (2, "random")
        assert fresh.stored_count == 0
        assert fresh.knowledge == Replica(ReplicaId("n"), AddressFilter("n")).knowledge
        after = fresh.create_item("after", {"destination": "x"})
        assert after.item_id not in {item.item_id for item in replica.stored_items()}
        assert after.version not in set(replica.knowledge.versions())


class TestResume:
    def test_restored_replica_syncs_correctly(self):
        """A restored replica refuses what it already has and accepts what
        it does not — protocol-indistinguishable from the original."""
        alice = populated_replica()
        bob = Replica(ReplicaId("bob"), AddressFilter("bob"))
        bob.create_item("first", {"destination": "alice"})
        SyncSession(source=SyncEndpoint(bob), target=SyncEndpoint(alice)).run()

        restored = roundtrip(alice)
        # Nothing new: the restored knowledge filters everything out.
        stats = SyncSession(
            source=SyncEndpoint(bob),
            target=SyncEndpoint(restored),
        ).run()
        assert stats.sent_total == 0
        # Something new: accepted exactly once.
        bob.create_item("second", {"destination": "alice"})
        stats = SyncSession(
            source=SyncEndpoint(bob),
            target=SyncEndpoint(restored),
        ).run()
        assert stats.sent_total == 1


class TestFiles:
    def test_save_and_load(self, tmp_path):
        replica = populated_replica()
        path = tmp_path / "alice.ckpt"
        save_replica(replica, path)
        restored, policy_state = load_replica(path)
        assert restored.replica_id == replica.replica_id
        assert restored.knowledge == replica.knowledge
        assert policy_state is None

    def test_policy_state_bundled(self, tmp_path):
        replica = populated_replica()
        path = tmp_path / "alice.ckpt"
        save_replica(replica, path, policy_state={"p": {"bob": 0.5}})
        _, policy_state = load_replica(path)
        assert policy_state == {"p": {"bob": 0.5}}

    def test_loading_garbage_raises(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(CodecError):
            load_replica(path)


#: A writer that overwrites the checkpoint at ``argv[2]`` with a larger
#: replica and is killed at the crash point named by ``argv[1]``.
CRASH_WRITER = """
import os, resource, signal, sys
from repro.replication import AddressFilter, Replica, ReplicaId
from repro.replication.persistence import save_replica

point, path = sys.argv[1], sys.argv[2]
real_replace = os.replace

def die(*args):
    os.kill(os.getpid(), signal.SIGKILL)

def replace_then_die(*args):
    real_replace(*args)
    die()

if point == "write":
    # The kernel kills the writer part-way through the file.
    signal.signal(signal.SIGXFSZ, signal.SIG_DFL)
    hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
    resource.setrlimit(resource.RLIMIT_FSIZE, (512, hard))
elif point == "fsync":
    os.fsync = die
elif point == "replace":
    os.replace = die
elif point == "after-replace":
    os.replace = replace_then_die

replica = Replica(ReplicaId("alice"), AddressFilter("alice"))
for index in range(50):
    replica.create_item("new-%d" % index, {"destination": "bob"})
save_replica(replica, path)
"""


class TestCrashPoints:
    @pytest.mark.parametrize(
        "point,survivor",
        [
            ("write", "old"),
            ("fsync", "old"),
            ("replace", "old"),
            ("after-replace", "new"),
        ],
    )
    def test_killed_writer_leaves_old_or_new_never_torn(
        self, tmp_path, point, survivor
    ):
        path = tmp_path / "alice.ckpt"
        old = populated_replica()
        save_replica(old, path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        writer = subprocess.run(
            [sys.executable, "-c", CRASH_WRITER, point, str(path)],
            env=env,
            timeout=60,
        )
        assert writer.returncode < 0, "the writer was meant to be killed"
        restored, _ = load_replica(path)
        if survivor == "old":
            assert list(checkpoint_lines(restored)) == list(checkpoint_lines(old))
        else:
            assert restored.outbox_count == 50
        # The next checkpoint goes through whatever the crash left behind.
        save_replica(old, path)
        restored, _ = load_replica(path)
        assert list(checkpoint_lines(restored)) == list(checkpoint_lines(old))
