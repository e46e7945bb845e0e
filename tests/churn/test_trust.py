"""ReciprocityLedger: per-pair trust, the admission gate and the scores."""

import pytest

from repro.churn.trust import ReciprocityLedger


def pair_ledger(given=0, taken=0, **knobs):
    """A two-node ledger where "me" gave ``given`` items to "peer" and
    took ``taken`` back."""
    ledger = ReciprocityLedger(["me", "peer"], **knobs)
    ledger.observe_sync("me", "peer", sent=given)
    ledger.observe_sync("peer", "me", sent=taken)
    return ledger


class TestTrackerReciprocity:
    def test_stranger_scores_neutral(self):
        assert pair_ledger().reciprocity("me", "peer") == pytest.approx(1.0)

    def test_add_one_smoothed_ratio(self):
        ledger = pair_ledger(given=9, taken=4)
        assert ledger.reciprocity("me", "peer") == pytest.approx(0.5)
        assert ledger.reciprocity("peer", "me") == pytest.approx(2.0)

    def test_leech_decays_toward_zero(self):
        ledger = pair_ledger(given=99)
        assert ledger.reciprocity("me", "peer") == pytest.approx(0.01)

    def test_gate_disabled_at_zero_threshold(self):
        ledger = pair_ledger(given=1000)
        assert ledger.reciprocal("me", "peer")

    def test_grace_window_before_min_taken(self):
        ledger = pair_ledger(given=24, threshold=0.5, min_taken=25)
        assert ledger.reciprocal("me", "peer")  # still inside the grace window
        ledger.observe_sync("me", "peer", sent=1)
        assert not ledger.reciprocal("me", "peer")

    def test_generous_peer_passes_the_gate(self):
        ledger = pair_ledger(given=40, taken=30, threshold=0.5, min_taken=10)
        assert ledger.reciprocal("me", "peer")


class TestLedgerAdmission:
    def test_fresh_population_admits_everyone(self):
        ledger = ReciprocityLedger(["a", "b"], threshold=0.5)
        assert ledger.admit("a", "b")

    def test_leech_refused_after_grace(self):
        ledger = ReciprocityLedger(["honest", "leech"], threshold=0.4, min_taken=10)
        for _ in range(12):
            ledger.observe_sync("honest", "leech", sent=1)
        # honest gave 12, took nothing back -> leech's score at honest is
        # (0+1)/(12+1), below threshold, past the grace window.
        assert not ledger.admit("honest", "leech")

    def test_balanced_pair_keeps_syncing(self):
        ledger = ReciprocityLedger(["a", "b"], threshold=0.4, min_taken=10)
        for _ in range(12):
            ledger.observe_sync("a", "b", sent=1)
            ledger.observe_sync("b", "a", sent=1)
        assert ledger.admit("a", "b")

    def test_admit_is_symmetric(self):
        ledger = ReciprocityLedger(["a", "b"], threshold=0.4, min_taken=5)
        for _ in range(8):
            ledger.observe_sync("a", "b", sent=1)
        assert ledger.admit("a", "b") == ledger.admit("b", "a")


class TestLedgerScores:
    def test_scores_cover_every_node(self):
        ledger = ReciprocityLedger(["a", "b", "c"])
        assert set(ledger.scores()) == {"a", "b", "c"}

    def test_contributors_score_above_consumers(self):
        ledger = ReciprocityLedger(["giver", "taker"])
        for _ in range(20):
            ledger.observe_sync("giver", "taker", sent=2)
        scores = ledger.scores()
        assert scores["giver"] > 1.0 > scores["taker"]
        assert scores["taker"] == pytest.approx(1 / 41)

    def test_idle_node_scores_neutral(self):
        assert ReciprocityLedger(["idle"]).scores()["idle"] == pytest.approx(1.0)
