"""Unit tests for the fault draws, one class per fault model."""

import random

from repro.faults import FaultConfig, FaultInjector
from repro.faults.models import fires, mask, plan_cut


def truncation():
    return FaultConfig(truncation_probability=1.0)


class TestBernoulliEncounterDrop:
    def test_zero_probability_never_drops_and_draws_nothing(self):
        rng = random.Random(1)
        before = rng.getstate()
        assert not fires(0.0, rng)
        assert rng.getstate() == before

    def test_certain_drop(self):
        assert fires(1.0, random.Random(1))

    def test_rate_roughly_matches_probability(self):
        rng = random.Random(7)
        drops = sum(fires(0.3, rng) for _ in range(2000))
        assert 450 < drops < 750


class TestBatchTruncation:
    def test_never_fires_at_zero_probability(self):
        rng = random.Random(1)
        before = rng.getstate()
        assert plan_cut(FaultConfig(), 3, rng) is None
        assert rng.getstate() == before

    def test_empty_batch_never_cut(self):
        rng = random.Random(1)
        before = rng.getstate()
        assert plan_cut(truncation(), 0, rng) is None
        assert rng.getstate() == before

    def test_cut_is_strict_truncation(self):
        config = truncation()
        rng = random.Random(3)
        for _ in range(100):
            cut = plan_cut(config, 10, rng)
            assert cut is not None and 0 <= cut < 10

    def test_a_cut_is_one_fire_draw_then_one_uniform_count(self):
        rng, twin = random.Random(5), random.Random(5)
        cut = plan_cut(FaultConfig(truncation_probability=0.9), 10, rng)
        assert twin.random() < 0.9
        assert cut == twin.randint(0, 9)
        assert rng.getstate() == twin.getstate()

    def test_every_count_short_of_the_whole_batch_is_drawn(self):
        rng = random.Random(2)
        cuts = {plan_cut(truncation(), 4, rng) for _ in range(200)}
        assert cuts == {0, 1, 2, 3}

    def test_single_entry_batch_cut_to_zero(self):
        assert plan_cut(truncation(), 1, random.Random(1)) == 0


class TestEntryDuplication:
    def test_zero_probability_is_all_false_without_draws(self):
        rng = random.Random(1)
        before = rng.getstate()
        assert mask(0.0, 5, rng) == [False] * 5
        assert rng.getstate() == before

    def test_certain_duplication(self):
        assert mask(1.0, 4, random.Random(1)) == [True] * 4

    def test_mask_length_matches(self):
        assert len(mask(0.5, 7, random.Random(2))) == 7


class TestCrashRestart:
    def victims(self, probability, participants, seed=1):
        config = FaultConfig(crash_probability=probability)
        return FaultInjector(config, seed=seed).crash_victims(participants)

    def test_no_victims_at_zero(self):
        assert self.victims(0.0, ["a", "b"]) == []

    def test_everyone_at_one(self):
        assert self.victims(1.0, ["a", "b"]) == ["a", "b"]

    def test_deterministic_given_seed(self):
        first = self.victims(0.5, ["a", "b", "c"], seed=9)
        second = self.victims(0.5, ["a", "b", "c"], seed=9)
        assert first == second
