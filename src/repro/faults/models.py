"""The fault draws: each decision is a function of a FaultConfig and an rng.

The injector hands its own seeded rng to these functions at every
decision point, and each draws from it in a fixed order, so a (config,
seed) pair replays the exact same fault schedule. A probability of zero
draws nothing, so arming one model never moves another's draws. The
functions never touch replicas or metrics themselves: the injector, the
transport and the emulation layer act on what they return.
"""

from __future__ import annotations

import random
from typing import List, Optional

from .config import FaultConfig

#: A firing replay re-delivers between one and this many pool entries.
REPLAY_MAX_ENTRIES = 3

#: A firing fabrication claims between one and this many extra counters.
FABRICATION_MAX_INFLATION = 5


def fires(probability: float, rng: random.Random) -> bool:
    """One Bernoulli draw; none at all when ``probability`` is zero."""
    if probability <= 0.0:
        return False
    return rng.random() < probability


def mask(probability: float, count: int, rng: random.Random) -> List[bool]:
    """One independent draw per entry, in stream order (duplication,
    corruption and malformed frames)."""
    if probability <= 0.0:
        return [False] * count
    return [rng.random() < probability for _ in range(count)]


def plan_cut(
    config: FaultConfig, entries: int, rng: random.Random
) -> Optional[int]:
    """How many of a batch's ``entries`` leading entries survive
    truncation, or None: a firing cut keeps between none and all but
    one of them, uniformly."""
    if not entries or not fires(config.truncation_probability, rng):
        return None
    return rng.randint(0, entries - 1)


def plan_replay(
    config: FaultConfig, pool_size: int, rng: random.Random
) -> List[int]:
    """Sorted indices into the link's replay pool to re-deliver (may be
    empty); at most one replay per session."""
    if pool_size <= 0 or not fires(config.replay_probability, rng):
        return []
    count = rng.randint(1, min(REPLAY_MAX_ENTRIES, pool_size))
    return sorted(rng.sample(range(pool_size), count))


def inflate_by(config: FaultConfig, rng: random.Random) -> int:
    """How many counters a sync request's knowledge is inflated by this
    session (0 = no fault)."""
    if not fires(config.fabrication_probability, rng):
        return 0
    return rng.randint(1, FABRICATION_MAX_INFLATION)
