"""PROPHET as a replication policy (Section V-C3).

PROPHET (Lindgren et al., 2004) limits flooding with *delivery
predictability*: each host ``a`` maintains ``P(a, d) ∈ [0, 1]`` for every
destination ``d``, its estimate of the chance it will eventually be able to
deliver to ``d``. The vector evolves three ways:

* **direct bump** — meeting a host that answers to address ``d`` sets
  ``P ← P + (1 − P) · P_init``;
* **aging** — while disconnected, ``P ← P · γ^k`` with ``k`` the number of
  elapsed time units;
* **transitivity** — upon meeting ``b``, for every ``d`` in ``b``'s vector,
  ``P(a, d) ← max(P(a, d), P(a, b) · P(b, d) · β)``.

Forwarding rule: a message addressed to ``d`` is handed to the encounter
peer only when the *peer's* ``P[d]`` exceeds the local one.

Mapping onto the sync protocol follows the paper exactly: the target's
``generate_req`` embeds its P vector (plus its current address set, which
plays the role of hello-beacon identity) in the sync request; the source's
``process_req`` stores the peer vector and performs the once-per-encounter
update — since each host acts as source exactly once per encounter, each
vector updates once per meeting, as Section V-C3 prescribes.

Destinations here are *addresses* (users), not hosts: meeting a bus bumps
predictability for every user currently riding it. The daily user
re-shuffling of the paper's scenario is why PROPHET struggles on the
DieselNet workload (the paper's footnote 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional

from repro.replication.codec import decode_names, decode_number, decode_state_fields
from repro.replication.filters import Filter
from repro.replication.items import Item
from repro.replication.routing import (
    Priority,
    PriorityClass,
    RoutingPolicy,
    SyncContext,
)

#: Table II: PROPHET parameters.
DEFAULT_P_INIT = 0.75
DEFAULT_BETA = 0.25
DEFAULT_GAMMA = 0.98

#: One aging time unit, in simulation seconds (one hour).
DEFAULT_AGING_UNIT = 3600.0


@dataclass
class ProphetRequest:
    """Routing state a PROPHET target embeds in its sync request."""

    addresses: FrozenSet[str]
    predictabilities: Dict[str, float] = field(default_factory=dict)


class ProphetPolicy(RoutingPolicy):
    """Probabilistic forwarding by delivery predictability."""

    name = "prophet"

    def __init__(
        self,
        p_init: float = DEFAULT_P_INIT,
        beta: float = DEFAULT_BETA,
        gamma: float = DEFAULT_GAMMA,
        aging_unit: float = DEFAULT_AGING_UNIT,
    ) -> None:
        super().__init__()
        if not 0.0 < p_init <= 1.0:
            raise ValueError("p_init must be in (0, 1]")
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if aging_unit <= 0:
            raise ValueError("aging_unit must be positive")
        self.p_init = p_init
        self.beta = beta
        self.gamma = gamma
        self.aging_unit = aging_unit
        #: P(self, d) for every destination address d ever relevant.
        self.predictabilities: Dict[str, float] = {}
        self._last_aged_at = 0.0
        #: Peer state captured by ``process_req`` for this sync session.
        self._peer: Optional[ProphetRequest] = None

    # -- vector maintenance ------------------------------------------------------

    def age(self, now: float) -> None:
        """Decay every predictability by γ per elapsed aging unit."""
        elapsed_units = (now - self._last_aged_at) / self.aging_unit
        if elapsed_units <= 0:
            return
        decay = self.gamma**elapsed_units
        for destination in list(self.predictabilities):
            aged = self.predictabilities[destination] * decay
            if aged < 1e-12:
                del self.predictabilities[destination]
            else:
                self.predictabilities[destination] = aged
        self._last_aged_at = now

    def predictability(self, destination: str) -> float:
        return self.predictabilities.get(destination, 0.0)

    def _bump_direct(self, destination: str) -> None:
        current = self.predictabilities.get(destination, 0.0)
        self.predictabilities[destination] = current + (1.0 - current) * self.p_init

    def _apply_transitivity(self, peer: ProphetRequest) -> None:
        # P(a, b): the best predictability toward any of the peer's
        # current addresses — the peer itself was just met, so after the
        # direct bump this is at least p_init.
        p_ab = max(
            (self.predictabilities.get(address, 0.0) for address in peer.addresses),
            default=0.0,
        )
        if p_ab <= 0.0:
            return
        for destination, p_bd in peer.predictabilities.items():
            if destination in peer.addresses:
                continue
            transitive = p_ab * p_bd * self.beta
            if transitive > self.predictabilities.get(destination, 0.0):
                self.predictabilities[destination] = transitive

    # -- persistence -------------------------------------------------------------

    def persistent_state(self) -> dict:
        return {
            "predictabilities": dict(self.predictabilities),
            "last_aged_at": self._last_aged_at,
        }

    def restore_state(self, state: dict) -> None:
        """Reload :meth:`persistent_state` output; anything else raises
        :class:`~repro.replication.codec.CodecError`."""
        predictabilities, last_aged_at = decode_state_fields(
            state, ("predictabilities", "last_aged_at")
        )
        self.predictabilities = decode_names(predictabilities, decode_number)
        self._last_aged_at = decode_number(last_aged_at)

    # -- policy interface -----------------------------------------------------------

    def generate_req(self, context: SyncContext) -> ProphetRequest:
        self.age(context.now)
        return ProphetRequest(
            addresses=self.local_addresses(),
            predictabilities=dict(self.predictabilities),
        )

    def process_req(self, routing_state: Any, context: SyncContext) -> None:
        if not isinstance(routing_state, ProphetRequest):
            self._peer = None
            return
        self._peer = routing_state
        # The once-per-encounter vector update (source role only).
        self.age(context.now)
        for address in routing_state.addresses:
            self._bump_direct(address)
        self._apply_transitivity(routing_state)

    def to_send(
        self, item: Item, target_filter: Filter, context: SyncContext
    ) -> Optional[Priority]:
        if not self.is_routable_message(item) or self._peer is None:
            return None
        destination = item.destination
        if not isinstance(destination, str):
            return None
        peer_p = self._peer.predictabilities.get(destination, 0.0)
        if peer_p > self.predictability(destination):
            # Higher peer predictability transmits first (negated cost:
            # Priority sorts ascending by cost inside a class).
            return Priority(PriorityClass.NORMAL, -peer_p)
        return None
