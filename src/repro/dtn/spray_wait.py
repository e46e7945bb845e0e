"""Binary Spray and Wait as a replication policy (Section V-C2).

Spray and Wait (Spyropoulos et al., WDTN'05) bounds flooding by budget
rather than history: the source injects ``L`` logical copies of each
message; a host holding ``n ≥ 2`` copies hands **half** of them to any host
it meets (the *spray* phase, a binary tree rooted at the source); a host
holding a single copy waits to meet the destination directly (the *wait*
phase).

As with Epidemic, the original protocol's duplicate-suppression handshake
is subsumed by the substrate's knowledge exchange.

Implementation notes:

* The copy budget is a **host-local** attribute, initialised lazily on the
  stored copy when the policy first considers the message, through the
  no-new-version interface (the paper calls out that this local adjustment
  must not make the item look updated).
* On a confirmed send of a copy holding ``n ≥ 2``: the in-batch copy
  carries ``⌊n/2⌋`` and the stored copy keeps ``⌈n/2⌉``, conserving the
  total budget exactly (an invariant the property tests check). This
  holds whether or not the send matched the target's filter: a copy
  holding 8 that meets its destination keeps 4 and ships 4.
* A copy holding one is never forwarded, but may always be handed to its
  destination: it ships one copy and keeps its own.
"""

from __future__ import annotations

from typing import Optional

from .policy import CopyBudgetPolicy

#: Host-local attribute holding the logical copy budget of a stored copy.
COPIES_ATTRIBUTE = "spray.copies"

#: Table II: Spray and Wait copies per message = 8.
DEFAULT_COPIES = 8


class SprayAndWaitPolicy(CopyBudgetPolicy):
    """Binary spray: forward while holding at least two logical copies."""

    name = "spray"
    attribute = COPIES_ATTRIBUTE
    least_forwarded = 2

    def __init__(self, initial_copies: int = DEFAULT_COPIES) -> None:
        super().__init__(initial_copies, "initial_copies")

    @property
    def initial_copies(self) -> int:
        return self.initial

    def shipped(self, budget: Optional[int]) -> int:
        """Half of ``n ≥ 2`` copies, else one terminal copy."""
        return 1 if budget is None or budget < 2 else budget // 2

    def kept(self, budget: int) -> int:
        """``⌈n/2⌉``: with :meth:`shipped` the total budget is conserved."""
        return budget - budget // 2
