"""Enron-style e-mail communication workloads.

The paper uses the UC Berkeley Enron e-mail dataset purely "to determine
which node sends messages to which other nodes" — a matrix of who-mails-
whom. Since the dataset cannot ship here, this module provides:

* :class:`EmailWorkloadModel` — an abstract source of (sender, recipient)
  pairs over a fixed user population;
* :func:`generate_enron_model` — a seeded synthetic model matching the
  well-known shape of the Enron corpus: heavy-tailed sender activity
  (a few prolific senders, a long tail), heavy-tailed recipient
  popularity, and strong contact locality (most of a sender's mail goes
  to a small personal contact set);
* :func:`parse_pairs_csv` — loads real data in ``sender,recipient`` CSV
  form into an :class:`EmpiricalEmailModel`, so the genuine dataset drops
  in unchanged.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Sequence, Tuple


#: The synthetic model's shape: Zipf exponents of sender activity and
#: recipient popularity, the mean size of a sender's contact set, and the
#: share of a sender's mail that goes to that set.
SENDER_EXPONENT = 1.1
RECIPIENT_EXPONENT = 0.9
MEAN_CONTACTS = 6
CONTACT_LOCALITY = 0.8


def user_name(index: int) -> str:
    return f"user{index:03d}"


class EmailWorkloadModel(ABC):
    """A source of (sender, recipient) message pairs."""

    @property
    @abstractmethod
    def users(self) -> Sequence[str]:
        """The full user population, deterministic order."""

    @abstractmethod
    def draw_pair(self, rng: random.Random) -> Tuple[str, str]:
        """Draw one (sender, recipient) pair; sender ≠ recipient."""


def _zipf_weights(count: int, exponent: float) -> List[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


@dataclass
class SyntheticEmailModel(EmailWorkloadModel):
    """Heavy-tailed who-mails-whom model.

    ``contact_sets[u]`` is the sender's personal address book; a draw picks
    the sender Zipf-weighted, then the recipient from the contact set with
    probability :data:`CONTACT_LOCALITY` and from global Zipf popularity
    otherwise.
    """

    _users: List[str]
    sender_weights: List[float]
    recipient_weights: List[float]
    contact_sets: Dict[str, List[str]]

    def __post_init__(self) -> None:
        # choices(weights=w) accumulates w on every call and then draws
        # exactly as choices(cum_weights=accumulate(w)) does, so summing
        # once here leaves every draw unchanged.
        self._sender_cum = list(accumulate(self.sender_weights))
        self._recipient_cum = list(accumulate(self.recipient_weights))

    @property
    def users(self) -> Sequence[str]:
        return self._users

    def draw_pair(self, rng: random.Random) -> Tuple[str, str]:
        sender = rng.choices(self._users, cum_weights=self._sender_cum, k=1)[0]
        contacts = self.contact_sets.get(sender, [])
        if contacts and rng.random() < CONTACT_LOCALITY:
            recipient = rng.choice(contacts)
        else:
            recipient = rng.choices(
                self._users, cum_weights=self._recipient_cum, k=1
            )[0]
        while recipient == sender:
            recipient = rng.choice(self._users)
        return sender, recipient


def generate_enron_model(n_users: int = 100, seed: int = 7) -> SyntheticEmailModel:
    """Build a synthetic Enron-like communication model."""
    if n_users < 2:
        raise ValueError("need at least two users")
    rng = random.Random(seed)
    users = [user_name(i) for i in range(n_users)]
    recipient_weights = _zipf_weights(n_users, RECIPIENT_EXPONENT)
    contact_sets: Dict[str, List[str]] = {}
    for index, user in enumerate(users):
        size = max(1, min(n_users - 1, int(rng.expovariate(1.0 / MEAN_CONTACTS)) + 1))
        # sample() picks positions from the population's length and k
        # alone, so positions in the n - 1 others, each mapped past the
        # user's own index, are the contacts sampling a list of them gave.
        contact_sets[user] = [
            users[j + (j >= index)] for j in rng.sample(range(n_users - 1), size)
        ]
    return SyntheticEmailModel(
        _users=users,
        sender_weights=_zipf_weights(n_users, SENDER_EXPONENT),
        recipient_weights=recipient_weights,
        contact_sets=contact_sets,
    )


@dataclass
class EmpiricalEmailModel(EmailWorkloadModel):
    """Draws uniformly from an observed list of (sender, recipient) pairs."""

    pairs: List[Tuple[str, str]]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("empirical model needs at least one pair")
        for sender, recipient in self.pairs:
            if sender == recipient:
                raise ValueError(f"self-addressed pair: {sender}")

    @property
    def users(self) -> Sequence[str]:
        names = set()
        for sender, recipient in self.pairs:
            names.add(sender)
            names.add(recipient)
        return sorted(names)

    def draw_pair(self, rng: random.Random) -> Tuple[str, str]:
        return rng.choice(self.pairs)


def parse_pairs_csv(lines: Iterable[str]) -> EmpiricalEmailModel:
    """Parse ``sender,recipient`` CSV lines (header optional, # comments ok)."""
    pairs: List[Tuple[str, str]] = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [part.strip() for part in line.split(",")]
        if parts[:2] == ["sender", "recipient"]:
            continue
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise ValueError(f"line {line_number}: expected 'sender,recipient'")
        if parts[0] != parts[1]:
            pairs.append((parts[0], parts[1]))
    return EmpiricalEmailModel(pairs)
