"""Tests for the transport-agnostic session API.

:class:`SyncSession` / :class:`EncounterSession` are the one way to run
the Figure 4 exchange: whole (``run``) with both endpoints local, or
stepwise with one endpoint on each side of a byte transport.
"""

from dataclasses import FrozenInstanceError

import pytest

from repro.replication import (
    AddressFilter,
    EncounterSession,
    Priority,
    PriorityClass,
    Replica,
    ReplicaId,
    RoutingPolicy,
    SessionConfig,
    SyncEndpoint,
    SyncSession,
    Transport,
)
from repro.replication.persistence import replica_to_state


def replica(name):
    return Replica(ReplicaId(name), AddressFilter(name))


class Flood(RoutingPolicy):
    name = "flood-test"

    def to_send(self, item, target_filter, context):
        return Priority(PriorityClass.NORMAL)


def seeded_pair():
    """Two replicas with overlapping content, built identically."""
    alice, bob = replica("alice"), replica("bob")
    for i in range(4):
        bob.create_item(f"to-alice-{i}", {"destination": "alice"})
        alice.create_item(f"to-bob-{i}", {"destination": "bob"})
    bob.create_item("elsewhere", {"destination": "carol"})
    return alice, bob


def state_of(*replicas):
    return [replica_to_state(r) for r in replicas]


class TestSyncSessionEquivalence:
    def test_stepwise_matches_run(self):
        """Driving the halves by hand reaches the same state as run()."""
        a1, b1 = seeded_pair()
        a2, b2 = seeded_pair()
        SyncSession(
            source=SyncEndpoint(b1), target=SyncEndpoint(a1), now=0.0
        ).run()

        # The stepwise path is exactly what the live server does on each
        # side of a socket: request, response, stamp, apply, confirm.
        target = SyncSession(
            target=SyncEndpoint(a2), peer=ReplicaId("bob"), now=0.0
        )
        source = SyncSession(
            source=SyncEndpoint(b2), peer=ReplicaId("alice"), now=0.0
        )
        request = target.build_request()
        batch, stats = source.build_response(request)
        stamped = source.stamp(batch)
        target.apply(stamped, stats=stats)
        source.confirm_sent(stamped)
        assert state_of(a1, b1) == state_of(a2, b2)

    def test_max_items_override_wins_over_config(self):
        alice, bob = seeded_pair()
        source = SyncSession(
            source=SyncEndpoint(bob),
            peer=ReplicaId("alice"),
            config=SessionConfig(max_items=100),
        )
        target = SyncSession(
            target=SyncEndpoint(alice), peer=ReplicaId("bob")
        )
        batch, _ = source.build_response(target.build_request(), max_items=2)
        assert len(batch) == 2

    def test_requires_an_endpoint(self):
        with pytest.raises(ValueError):
            SyncSession(now=0.0)

    def test_half_open_requires_peer(self):
        alice = replica("alice")
        with pytest.raises(ValueError):
            SyncSession(target=SyncEndpoint(alice))


class TestEncounterSessionEquivalence:
    def test_budget_is_shared_across_both_syncs(self):
        alice, bob = seeded_pair()
        stats = EncounterSession(
            first=SyncEndpoint(alice),
            second=SyncEndpoint(bob),
            now=9.0,
            config=SessionConfig(max_items=5),
        ).run()
        # The shared-budget handoff: the second sync spends what the
        # first left over.
        assert [s.sent_total for s in stats] == [4, 1]

    def test_second_sync_cap_is_what_the_first_left(self, monkeypatch):
        """Sync 2 is capped at ``max(0, budget - sent_1)``, and only a
        spent budget costs a new ``SessionConfig``: an uncapped encounter
        (every one of the paper's runs but Figure 9's) builds none."""
        built = []
        post_init = SessionConfig.__post_init__

        def counting_post_init(config):
            built.append(config.max_items)
            post_init(config)

        monkeypatch.setattr(SessionConfig, "__post_init__", counting_post_init)
        caps = []
        init = SyncSession.__init__

        def recording_init(session, **kwargs):
            caps.append(kwargs["config"].max_items)
            init(session, **kwargs)

        monkeypatch.setattr(SyncSession, "__init__", recording_init)

        def encounter(budget):
            alice, bob = seeded_pair()
            session = EncounterSession(
                first=SyncEndpoint(alice),
                second=SyncEndpoint(bob),
                config=SessionConfig(max_items=budget),
            )
            del built[:], caps[:]
            return [s.sent_total for s in session.run()]

        assert encounter(5) == [4, 1] and caps == [5, 1] and built == [1]
        assert encounter(3) == [3, 0] and caps == [3, 0] and built == [0]
        assert encounter(0) == [0, 0] and caps == [0, 0] and built == []
        assert encounter(None) == [4, 4] and caps == [None, None] and built == []

    def test_begin_fires_policy_hooks_once(self):
        class Counting(Flood):
            def __init__(self):
                self.encounters = 0

            def on_encounter_start(self, context):
                self.encounters += 1

        alice, bob = replica("alice"), replica("bob")
        pa, pb = Counting(), Counting()
        EncounterSession(
            first=SyncEndpoint(alice, pa), second=SyncEndpoint(bob, pb)
        ).run()
        assert (pa.encounters, pb.encounters) == (1, 1)


class TestSessionConfig:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            SessionConfig(5)

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            SessionConfig(bogus=1)

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            SessionConfig(max_items=-1)

    def test_frozen(self):
        config = SessionConfig()
        with pytest.raises(FrozenInstanceError):
            config.max_items = 3

    def test_round_trip_with_cap(self):
        config = SessionConfig(max_items=7)
        assert SessionConfig.from_dict(config.to_dict()) == config

    def test_round_trip_defaults(self):
        assert SessionConfig.from_dict(SessionConfig().to_dict()) == SessionConfig()


class TestTransportProtocol:
    def test_runtime_checkable_against_fault_transport(self):
        import random

        from repro.faults import FaultConfig, FaultyTransport

        transport = FaultyTransport(
            FaultConfig(), random.Random(1), source_id=ReplicaId("alice")
        )
        assert isinstance(transport, Transport)

    def test_rejects_non_transports(self):
        assert not isinstance(object(), Transport)
