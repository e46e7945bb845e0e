"""Trust and reciprocity scoring over the whole population.

:class:`ReciprocityLedger` keeps, for every ordered pair of nodes, how
many items one side sent the other. From it each node scores each of its
peers, and encounters are admitted only when *both* sides consider the
other reciprocal (tit-for-tat). A global given/taken tally per node
yields the population-wide reciprocity scores that land in
``MetricsCollector.summary()`` — the signal that separates free-riders
from honest peers.

Like the lifecycle tracker, one ledger implementation drives both the
emulator and the swarm orchestrator, fed the same per-sync ``sent``
totals in the same order, so both worlds gate and score identically.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple


class ReciprocityLedger:
    """Per-pair transfer tallies plus the global generosity tally."""

    def __init__(
        self,
        nodes: Iterable[str],
        threshold: float = 0.0,
        min_taken: int = 25,
    ) -> None:
        self.threshold = threshold
        self.min_taken = min_taken
        #: (source, target) → items the source has sent the target.
        self._sent: Dict[Tuple[str, str], int] = {}
        self._given: Dict[str, int] = {name: 0 for name in sorted(nodes)}
        self._taken: Dict[str, int] = dict(self._given)

    # -- per-pair trust ---------------------------------------------------------------

    def reciprocity(self, observer: str, peer: str) -> float:
        """``observer``'s trust score for ``peer``: items the peer sent the
        observer over items it took from the observer, add-one smoothed
        so a brand-new peer starts at exactly 1.0 (neutral). A peer the
        observer only ever uploads to scores toward zero, and a generous
        peer scores above 1."""
        taken = self._sent.get((peer, observer), 0)
        given = self._sent.get((observer, peer), 0)
        return (taken + 1) / (given + 1)

    def reciprocal(self, observer: str, peer: str) -> bool:
        """Does ``peer`` pull its weight in ``observer``'s eyes?

        Disabled (always True) when ``threshold`` is zero. A peer the
        observer has given fewer than ``min_taken`` items is still
        inside its grace window — refusing a stranger before any history
        exists would deadlock two honest nodes.
        """
        if self.threshold <= 0.0:
            return True
        if self._sent.get((observer, peer), 0) < self.min_taken:
            return True
        return self.reciprocity(observer, peer) >= self.threshold

    def admit(self, a: str, b: str) -> bool:
        """Would both sides agree to sync? (Symmetric, side-effect free.)"""
        return self.reciprocal(a, b) and self.reciprocal(b, a)

    # -- accounting -----------------------------------------------------------------

    def observe_sync(self, source: str, target: str, sent: int) -> None:
        """Fold one directed sync into the ledger.

        ``sent`` is the number of items the source put in its batch
        (``SyncStats.sent_total``): under transit faults some may not
        arrive, and they count as given all the same.
        """
        link = (source, target)
        self._sent[link] = self._sent.get(link, 0) + sent
        self._given[source] += sent
        self._taken[target] += sent

    def scores(self) -> Dict[str, float]:
        """Population-wide reciprocity score per node.

        Items the node contributed over items it consumed, add-one
        smoothed — honest peers hover around 1.0, free riders decay
        toward zero as they keep taking.
        """
        return {
            name: (self._given[name] + 1) / (self._taken[name] + 1)
            for name in self._given
        }
