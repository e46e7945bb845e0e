"""Unit tests for the Enron-like e-mail workload model."""

import hashlib
import json
import random
from collections import Counter

import pytest

from repro.traces.enron import (
    CONTACT_LOCALITY,
    EmpiricalEmailModel,
    generate_enron_model,
    parse_pairs_csv,
    user_name,
)


class TestSyntheticModel:
    def test_population_size(self):
        model = generate_enron_model(n_users=50)
        assert len(model.users) == 50
        assert model.users[0] == user_name(0)

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            generate_enron_model(n_users=1)

    def test_deterministic_given_seed(self):
        a = generate_enron_model(n_users=30, seed=5)
        b = generate_enron_model(n_users=30, seed=5)
        rng_a, rng_b = random.Random(1), random.Random(1)
        pairs_a = [a.draw_pair(rng_a) for _ in range(50)]
        pairs_b = [b.draw_pair(rng_b) for _ in range(50)]
        assert pairs_a == pairs_b

    def test_never_self_addressed(self):
        model = generate_enron_model(n_users=10, seed=3)
        rng = random.Random(2)
        for _ in range(500):
            sender, recipient = model.draw_pair(rng)
            assert sender != recipient

    def test_senders_are_heavy_tailed(self):
        """A minority of users send the majority of messages."""
        model = generate_enron_model(n_users=50, seed=4)
        rng = random.Random(0)
        senders = Counter(model.draw_pair(rng)[0] for _ in range(3000))
        top10 = sum(count for _, count in senders.most_common(10))
        assert top10 > 0.4 * 3000

    def test_contact_locality(self):
        """Most of a sender's mail goes to its contact set."""
        assert CONTACT_LOCALITY == 0.8
        model = generate_enron_model(n_users=50, seed=4)
        rng = random.Random(0)
        in_contacts = 0
        total = 2000
        for _ in range(total):
            sender, recipient = model.draw_pair(rng)
            if recipient in model.contact_sets[sender]:
                in_contacts += 1
        assert in_contacts > total * 0.5

    @pytest.mark.parametrize(
        "n_users, seed, digest",
        [
            (10, 3, "2c76791d9e89e99c47894f95aff659b5b54b136d02e2af6efcfb720748313e59"),
            (100, 7, "8e603b6140aac863d20cac8042d5d1f1374a5afe73eccfa705abef24c0ddbec3"),
            (1000, 42, "39fd146c040add6de3f035bd39bae98d7e36098cb6d7036c93acacf4eeb9818c"),
        ],
    )
    def test_contacts_and_draws_are_pinned(self, n_users, seed, digest):
        """Every run's workload comes from this model: its contact sets
        and its first 2 000 draws, hashed, are fixed values."""
        model = generate_enron_model(n_users=n_users, seed=seed)
        rng = random.Random(seed)
        draws = [list(model.draw_pair(rng)) for _ in range(2000)]
        payload = json.dumps(
            {"contacts": model.contact_sets, "draws": draws}, sort_keys=True
        )
        assert hashlib.sha256(payload.encode()).hexdigest() == digest


class TestEmpiricalModel:
    def test_draws_only_observed_pairs(self):
        pairs = [("a", "b"), ("c", "d")]
        model = EmpiricalEmailModel(pairs)
        rng = random.Random(1)
        for _ in range(50):
            assert model.draw_pair(rng) in pairs

    def test_users_derived_from_pairs(self):
        model = EmpiricalEmailModel([("b", "a"), ("c", "a")])
        assert list(model.users) == ["a", "b", "c"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalEmailModel([])

    def test_rejects_self_addressed(self):
        with pytest.raises(ValueError):
            EmpiricalEmailModel([("a", "a")])


class TestCsvParser:
    def test_parses_simple_pairs(self):
        model = parse_pairs_csv(["a,b", "c,d"])
        assert ("a", "b") in model.pairs

    def test_skips_header_comments_blanks(self):
        model = parse_pairs_csv(
            ["sender,recipient", "# note", "", "a,b  # trailing"]
        )
        assert model.pairs == [("a", "b")]

    def test_strips_whitespace(self):
        model = parse_pairs_csv([" a , b "])
        assert model.pairs == [("a", "b")]

    def test_drops_self_addressed_rows(self):
        model = parse_pairs_csv(["a,a", "a,b"])
        assert model.pairs == [("a", "b")]

    def test_rejects_malformed_row(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_pairs_csv(["lonely-column"])
