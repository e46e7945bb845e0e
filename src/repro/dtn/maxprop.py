"""MaxProp as a replication policy (Section V-C4).

MaxProp (Burgess et al., INFOCOM'06) is the history-based protocol designed
for the very DieselNet testbed the paper's traces come from. Each node
maintains an incidence-based probability distribution over which node it
will meet next; nodes gossip these vectors so that every node gradually
assembles a (stale) picture of the whole contact graph. For each carried
message, a node scores the likelihood of delivery along every path with a
modified Dijkstra search where the cost of a hop ``i → j`` is the
probability that the meeting does *not* occur, ``1 − p_i(j)``; lower total
cost is better.

Transmission order during an encounter (the reason the sync engine supports
priorities at all):

1. messages addressed to the neighbour itself — handled by the platform's
   ``FILTER_MATCH`` band;
2. "new" messages whose hop count is below a threshold, ordered by hop
   count (:attr:`PriorityClass.HIGH`, cost = hop count);
3. everything else ordered by path cost (:attr:`PriorityClass.NORMAL`,
   cost = path cost).

MaxProp also floods **delivery acknowledgements** so relays can clear
buffers of already-delivered messages; acks ride along in the routing state
of sync requests, and a relay that learns of an ack expunges its copy
(locally, without tombstone traffic).

Because message destinations are user *addresses* while contact history is
between *hosts*, the policy additionally gossips a freshness-stamped
``address → host`` directory, learned from each host's own address
announcements. This substitutes for MaxProp's assumption that destinations
are nodes, and degrades gracefully when users migrate between buses (the
directory entry is simply stale until refreshed).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.replication.codec import (
    CodecError,
    decode_item_id,
    decode_names,
    decode_number,
    decode_state_fields,
    encode_item_id,
)
from repro.replication.events import BaseReplicaObserver
from repro.replication.filters import Filter
from repro.replication.ids import ItemId
from repro.replication.items import Item
from repro.replication.replica import Replica
from repro.replication.routing import (
    AddressProvider,
    Priority,
    PriorityClass,
    RoutingPolicy,
    SyncContext,
)

#: Host-local attribute carrying the hop list of a copy (tuple of node names).
HOPLIST_ATTRIBUTE = "maxprop.hops"

#: Table II: MaxProp hop-count priority threshold = 3.
DEFAULT_HOP_THRESHOLD = 3


@dataclass
class MaxPropRequest:
    """Routing state a MaxProp target embeds in its sync request."""

    node: str
    addresses: FrozenSet[str]
    #: node → (peer node → meeting probability); includes the sender's own.
    vectors: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: address → (host node, freshness timestamp).
    locations: Dict[str, Tuple[str, float]] = field(default_factory=dict)
    #: item ids known to have reached their destinations.
    acks: FrozenSet[ItemId] = frozenset()


class _DeliveryWatcher(BaseReplicaObserver):
    """Feeds local deliveries back into the policy's ack set."""

    def __init__(self, policy: "MaxPropPolicy") -> None:
        self._policy = policy

    def on_store(self, item: Item, matched_filter: bool) -> None:
        if matched_filter:
            self._policy.note_possible_delivery(item)


def _decode_location(value: Any) -> Tuple[str, float]:
    """A persisted ``[node, stamp]`` location."""
    if type(value) is not list or len(value) != 2 or type(value[0]) is not str:
        raise CodecError(f"bad location in policy state: {value!r}")
    return value[0], decode_number(value[1])


class MaxPropPolicy(RoutingPolicy):
    """History-gossiping, cost-ranked flooding with delivery acks."""

    name = "maxprop"

    def __init__(self, hop_threshold: int = DEFAULT_HOP_THRESHOLD) -> None:
        super().__init__()
        if hop_threshold < 0:
            raise ValueError("hop_threshold must be >= 0")
        self.hop_threshold = hop_threshold
        #: Raw meeting counts with each peer node (normalised on demand).
        self.meeting_counts: Dict[str, float] = {}
        #: Gossiped probability vectors of other nodes.
        self.known_vectors: Dict[str, Dict[str, float]] = {}
        #: Gossiped address directory: address → (host node, freshness).
        self.locations: Dict[str, Tuple[str, float]] = {}
        #: Item ids confirmed delivered (flooded acks). They only grow.
        self.acks: Set[ItemId] = set()
        #: ``frozenset(acks)`` for requests, kept while ``acks`` keeps its
        #: size (a set that only grows is unchanged while its size is).
        self._ack_snapshot: FrozenSet[ItemId] = frozenset()
        self._peer: Optional[MaxPropRequest] = None
        #: Memoised all-destinations Dijkstra result, invalidated whenever
        #: the contact-graph picture changes (``to_send`` runs once per
        #: carried item per sync, so recomputing per call would dominate
        #: emulation time).
        self._distance_cache: Optional[Dict[str, float]] = None

    def bind(
        self, replica: Replica, addresses: Optional[AddressProvider] = None
    ) -> "MaxPropPolicy":
        super().bind(replica, addresses)
        replica.register_observer(_DeliveryWatcher(self))
        return self

    # -- meeting probabilities --------------------------------------------------

    def own_vector(self) -> Dict[str, float]:
        """This node's normalised next-meeting probability distribution."""
        total = sum(self.meeting_counts.values())
        if total <= 0:
            return {}
        return {peer: count / total for peer, count in self.meeting_counts.items()}

    def _record_meeting(self, peer_node: str) -> None:
        self.meeting_counts[peer_node] = self.meeting_counts.get(peer_node, 0.0) + 1.0

    # -- acknowledgements -----------------------------------------------------------

    def note_possible_delivery(self, item: Item) -> None:
        """Observer hook: an item landed in the in-filter store.

        Only items actually addressed to one of this host's current
        addresses count as deliveries (a multi-address filter also matches
        relayed mail, which must not be acked).
        """
        if item.deleted:
            return
        destination = item.destination
        if isinstance(destination, str) and destination in self.local_addresses():
            self.acks.add(item.item_id)

    def _absorb_acks(self, acks: FrozenSet[ItemId]) -> None:
        new_acks = acks - self.acks
        if not new_acks:
            return
        self.acks |= new_acks
        for item_id in new_acks:
            self._expunge_if_relayed(item_id)

    def _expunge_if_relayed(self, item_id: ItemId) -> None:
        item = self.replica.get_item(item_id)
        if item is None:
            return
        authored_here = item.version.replica == self.replica.replica_id
        if not authored_here and not self.replica.filter.matches(item):
            self.replica.expunge(item_id)

    # -- gossip merge -------------------------------------------------------------------

    def _merge_gossip(self, peer: MaxPropRequest) -> None:
        # Vectors are stored as received: none is ever written in place
        # (``own_vector`` builds a fresh one, ``persistent_state`` copies).
        # The peer's own vector is authoritative for the peer.
        self.known_vectors[peer.node] = peer.vectors.get(peer.node, {})
        own = self.replica.replica_id.name
        for node, vector in peer.vectors.items():
            if node == peer.node or node == own:
                continue
            # Second-hand vectors: accept when we have nothing better.
            if node not in self.known_vectors:
                self.known_vectors[node] = vector
        for address, (node, stamp) in peer.locations.items():
            mine = self.locations.get(address)
            if mine is None or stamp > mine[1]:
                self.locations[address] = (node, stamp)

    # -- path costs -------------------------------------------------------------------------

    def _all_path_costs(self) -> Dict[str, float]:
        """Single-source modified Dijkstra from this node to every known node.

        Hop cost ``i → j`` is ``1 − p_i(j)`` (the probability the meeting
        fails to happen); a path's cost is the sum over its hops. The full
        distance map is memoised because the graph only changes when gossip
        arrives (:meth:`process_req`) or a meeting is recorded.
        """
        if self._distance_cache is not None:
            return self._distance_cache
        start = self.replica.replica_id.name
        graph: Dict[str, Dict[str, float]] = dict(self.known_vectors)
        graph[start] = self.own_vector()
        distances: Dict[str, float] = {start: 0.0}
        settled: Dict[str, float] = {}
        frontier: List[Tuple[float, str]] = [(0.0, start)]
        while frontier:
            cost, node = heapq.heappop(frontier)
            if node in settled:
                continue
            settled[node] = cost
            for neighbour, probability in graph.get(node, {}).items():
                if neighbour in settled:  # edges cost >= 0: already final
                    continue
                edge = 1.0 - min(max(probability, 0.0), 1.0)
                new_cost = cost + edge
                if new_cost < distances.get(neighbour, float("inf")):
                    distances[neighbour] = new_cost
                    heapq.heappush(frontier, (new_cost, neighbour))
        self._distance_cache = settled
        return settled

    def path_cost_to_node(self, destination_node: str) -> Optional[float]:
        """Least path cost from here to ``destination_node`` (None if unreachable)."""
        return self._all_path_costs().get(destination_node)

    def path_cost_to_address(self, address: str) -> Optional[float]:
        """Least path cost to the host currently believed to hold ``address``."""
        location = self.locations.get(address)
        if location is None:
            return None
        return self.path_cost_to_node(location[0])

    # -- persistence -------------------------------------------------------------------------

    def persistent_state(self) -> dict:
        return {
            "meeting_counts": dict(self.meeting_counts),
            "known_vectors": {
                node: dict(vector)
                for node, vector in self.known_vectors.items()
            },
            "locations": {
                address: [node, stamp]
                for address, (node, stamp) in self.locations.items()
            },
            "acks": [encode_item_id(item_id) for item_id in sorted(self.acks)],
        }

    def restore_state(self, state: dict) -> None:
        """Reload :meth:`persistent_state` output; anything else raises
        :class:`~repro.replication.codec.CodecError`."""
        counts, vectors, locations, acks = decode_state_fields(
            state, ("meeting_counts", "known_vectors", "locations", "acks")
        )
        if type(acks) is not list:
            raise CodecError(f"policy state acks are {type(acks).__name__}")
        self.meeting_counts = decode_names(counts, decode_number)
        self.known_vectors = decode_names(
            vectors, lambda vector: decode_names(vector, decode_number)
        )
        self.locations = decode_names(locations, _decode_location)
        self.acks = {decode_item_id(encoded) for encoded in acks}
        self._ack_snapshot = frozenset(self.acks)
        self._distance_cache = None

    # -- policy interface -----------------------------------------------------------------------

    def generate_req(self, context: SyncContext) -> MaxPropRequest:
        vectors = dict(self.known_vectors)
        vectors[self.replica.replica_id.name] = self.own_vector()
        locations = dict(self.locations)
        for address in self.local_addresses():
            locations[address] = (self.replica.replica_id.name, context.now)
        if len(self._ack_snapshot) != len(self.acks):
            self._ack_snapshot = frozenset(self.acks)
        return MaxPropRequest(
            node=self.replica.replica_id.name,
            addresses=self.local_addresses(),
            vectors=vectors,
            locations=locations,
            acks=self._ack_snapshot,
        )

    def process_req(self, routing_state: Any, context: SyncContext) -> None:
        if not isinstance(routing_state, MaxPropRequest):
            self._peer = None
            return
        self._peer = routing_state
        # Once-per-encounter history update (source role only, as with
        # PROPHET: each host is source exactly once per encounter).
        self._record_meeting(routing_state.node)
        self._merge_gossip(routing_state)
        self._absorb_acks(routing_state.acks)
        self._distance_cache = None

    def to_send(
        self, item: Item, target_filter: Filter, context: SyncContext
    ) -> Optional[Priority]:
        if not self.is_routable_message(item):
            return None
        if item.item_id in self.acks:
            # Only a relay copy can be expunged; most acked copies are not one.
            if self.replica.relays(item.item_id):
                self._expunge_if_relayed(item.item_id)
            return None
        hops = len(item.local(HOPLIST_ATTRIBUTE, ()))
        if hops < self.hop_threshold:
            return Priority(PriorityClass.HIGH, float(hops))
        destination = item.destination
        cost = (
            self.path_cost_to_address(destination)
            if isinstance(destination, str)
            else None
        )
        if cost is None:
            # Unknown destination location: still flood, but last in line.
            return Priority(PriorityClass.LOW, float(hops))
        return Priority(PriorityClass.NORMAL, cost)

    def refuses_for_good(self, item: Item) -> bool:
        """A non-message, or an acked copy that is not a relay copy: acks
        only grow, and ``to_send`` expunges an acked relay copy instead."""
        return not self.is_routable_message(item) or (
            item.item_id in self.acks and not self.replica.relays(item.item_id)
        )

    def prepare_outgoing(self, item: Item, context: SyncContext) -> Item:
        """Extend the copy's hop list with this node before it ships.

        A copy that already carries exactly the outgoing hop list (this
        node was already recorded) ships unchanged.
        """
        stored = self.replica.get_item(item.item_id)
        hops: Tuple[str, ...] = ()
        if stored is not None:
            hops = tuple(stored.local(HOPLIST_ATTRIBUTE, ()))
        me = self.replica.replica_id.name
        if me not in hops:
            hops = hops + (me,)
        return item.wire_copy(**{HOPLIST_ATTRIBUTE: hops})
