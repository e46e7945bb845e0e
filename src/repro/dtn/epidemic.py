"""Epidemic routing as a replication policy (Section V-C1 of the paper).

Epidemic routing (Vahdat & Becker, 2000) floods every message to every
encountered host, bounding propagation with a per-copy hop-count budget
(the "TTL"). The classic protocol's summary-vector duplicate suppression is
unnecessary here: the substrate's knowledge exchange already guarantees
at-most-once delivery, which is exactly the simplification the paper
demonstrates.

Implementation notes, mirroring the paper faithfully:

* The TTL is a **host-local** attribute of each stored copy — it is
  per-copy state and must not replicate as a new item version.
* When ``to_send`` meets a message that has no TTL yet (a message freshly
  authored by the local application), it stamps the stored copy with the
  initial TTL through the no-new-version interface.
* The copy placed in the sync batch carries ``TTL − 1``; the decrement only
  affects the in-flight copy, never the source's stored copy.
* Messages are selected whenever their TTL is positive.
"""

from __future__ import annotations

from typing import Optional

from .policy import CopyBudgetPolicy

#: Host-local attribute holding the remaining hop budget of a stored copy.
TTL_ATTRIBUTE = "epidemic.ttl"

#: Table II: Epidemic TTL = 10.
DEFAULT_TTL = 10


class EpidemicPolicy(CopyBudgetPolicy):
    """Bounded flooding: forward every message whose hop budget remains."""

    name = "epidemic"
    attribute = TTL_ATTRIBUTE
    least_forwarded = 1

    def __init__(self, initial_ttl: int = DEFAULT_TTL) -> None:
        super().__init__(initial_ttl, "initial_ttl")

    @property
    def initial_ttl(self) -> int:
        return self.initial

    def shipped(self, budget: Optional[int]) -> int:
        """``TTL − 1``, never below 0 — on a delivery too, which is harmless."""
        return max(0, (self.initial if budget is None else budget) - 1)
