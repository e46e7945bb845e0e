"""Flat-array emulation core for city-scale runs (``engine="columnar"``).

The object engine (:mod:`repro.emulation.network`) is the executable
spec: every node owns a :class:`~repro.replication.replica.Replica` with
``Item``/``VersionVector``/``ItemStore`` instances, and every encounter
walks those objects.  That is the right shape for protocol work, but it
tops out around fifty nodes — far short of the paper's metro ambitions.

This module runs the *supported subset* of that machinery on flat,
integer-interned state:

* every item authored during a run gets one integer index; the item
  table is a handful of parallel arrays (destination address id, origin
  node, per-origin serial, live holder count);
* per-node knowledge and policy state are one *column* indexed by item:
  0 is unknown, 1 known and never stamped, ``v + 2`` known with copy
  budget ``v`` (the paper's version vectors degenerate to membership
  because emulated runs never update an item after authoring it). Under
  epidemic, which floods, the column is a ``bytearray`` with a slot per
  injection (an ``array`` of wider slots if the TTL needs them); every
  other supported policy keeps a few copies of an item, and its column
  is a ``dict`` of the known slots. A copy budget's ``shipped`` and
  ``kept`` rules take a handful of values, so each is evaluated once
  per distinct column value and a batch maps through the answers;
* per-node holdings are three lists of item indices (store, outbox,
  relay) in the object engine's enumeration order;
* a node has that state only once it is *live* — from the first item
  that reaches it, by injection or delivery. In a city-scale epidemic
  most buses never are (1 389 of 49 954 on the benchmark's metro run);
* the encounter trace is read as the ``array``-module columns
  :class:`~repro.emulation.encounters.EncounterTrace` holds (no
  ``Encounter`` object is built on this path) and the event loop walks
  *segments*, not events: the encounters between two consecutive
  injections are one ``zip`` over column slices, and an encounter
  between two buses that are not live — 97.8 % of them on that run —
  draws its order coin and is counted without entering the kernel. The
  run's inputs, end time and order coins are the shared ones
  (``build_inputs``, ``engine.end_time``, ``engine.order_coins``), and
  so are the collector's event methods that book it: one call per sync,
  with counts, and one per segment for its idle encounters.

Correctness contract: for any configuration accepted by
:func:`columnar_unsupported_reason`, a columnar run reproduces the
object engine *draw for draw* — same RNG consumption from the encounter
rng and the fault injector rng, same batch contents and order, same
delivery records, same metric totals.  The randomized differential
harness in ``tests/emulation/test_columnar_equivalence.py`` enforces
this across policies, seeds, and fault configs.  One counter is
deliberately not reproduced (the columnar core has nothing to
serialize): ``metadata_bytes`` stays zero.

Unsupported configurations raise :class:`ColumnarUnsupportedError`
rather than silently diverging; the object engine remains the path for
user addressing, storage limits, and the adversarial fault models.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, compress, count, filterfalse, repeat
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.dtn.epidemic import EpidemicPolicy
from repro.dtn.first_contact import FirstContactPolicy
from repro.dtn.registry import get_policy
from repro.dtn.policy import CopyBudgetPolicy
from repro.emulation.encounters import EncounterTrace
from repro.emulation.engine import end_time as run_end_time
from repro.emulation.engine import order_coins
from repro.emulation.metrics import MetricsCollector
from repro.emulation.network import Injection
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector
from repro.faults.models import mask, plan_cut
from repro.replication.ids import ItemId, ReplicaId
from repro.replication.routing import DirectDeliveryPolicy

__all__ = [
    "ColumnarUnsupportedError",
    "ColumnarWorld",
    "UNREPLICATED_COUNTERS",
    "columnar_unsupported_reason",
    "comparable_metrics",
    "run_columnar",
]


class ColumnarUnsupportedError(ValueError):
    """The configuration needs machinery the columnar core does not model."""


# Policy kinds of the flat hot loop. A copy budget's rules are the
# policy's own (CopyBudgetPolicy); the other two keep no per-copy state.
_DIRECT = 0
_BUDGET = 1
_FIRST_CONTACT = 2

#: Adversarial fault channels the columnar transport does not model.
_UNSUPPORTED_FAULTS = (
    "crash_probability",
    "corruption_probability",
    "replay_probability",
    "fabrication_probability",
    "malformed_probability",
)


def _policy_kind(policy: Any) -> int:
    """Map a policy instance to its kind or raise."""
    if isinstance(policy, CopyBudgetPolicy):
        return _BUDGET
    if isinstance(policy, FirstContactPolicy):
        return _FIRST_CONTACT
    if isinstance(policy, DirectDeliveryPolicy):
        return _DIRECT
    raise ColumnarUnsupportedError(
        f"policy {type(policy).__name__} is not implemented by the "
        "columnar engine (supported: cimbiosys, epidemic, spray, "
        "first-contact)"
    )


def columnar_unsupported_reason(config: Any) -> Optional[str]:
    """Why ``config`` cannot run on the columnar engine (None = it can).

    The gate is deliberately conservative: anything the flat core does
    not reproduce draw-for-draw against the object engine is rejected.
    """
    if config.addressing != "bus":
        return "columnar engine supports bus addressing only"
    if config.storage_limit is not None:
        return "columnar engine does not model storage limits / eviction"
    if config.delete_on_receipt:
        return "columnar engine does not model delete_on_receipt"
    churn = getattr(config, "churn", None)
    if churn is not None and churn.enabled:
        return "columnar engine does not model churn lifecycles"
    try:
        _policy_kind(get_policy(config.policy, **config.policy_parameters))
    except ColumnarUnsupportedError as exc:
        return str(exc)
    faults = config.faults
    if faults is not None:
        for field in _UNSUPPORTED_FAULTS:
            if getattr(faults, field) > 0.0:
                return (
                    f"columnar engine does not model {field.split('_')[0]} "
                    "faults"
                )
    return None


def _dense_column(top: int, size: int) -> Any:
    """``size`` zeroed slots of the narrowest unsigned type that holds
    ``0..top``: a ``bytearray`` (11-19 % cheaper to index than an
    ``array("B")``) unless a value needs wider slots; None if no slot
    type is wide enough."""
    if top < 256:
        return bytearray(size)
    for code in "HIQ":
        if top < 1 << 8 * array(code).itemsize:
            return array(code, [0]) * size
    return None


class _Memo(dict):
    """A pure rule's answers, evaluated once per distinct argument."""

    def __init__(self, rule: Callable[[int], int]) -> None:
        self.rule = rule

    def __missing__(self, key: int) -> int:
        value = self[key] = self.rule(key)
        return value


class _Bus(NamedTuple):
    """The replication state of one live node."""

    # Knowledge and policy-local state in one slot per item: 0 unknown,
    # 1 known and never stamped (None in the object engine's
    # item.local()), v + 2 known with copy budget v. Epidemic's column
    # is dense (a bytearray or a wider array) if a slot holds its TTL;
    # any other is a dict of the known slots, asked by membership.
    column: Any
    # Holdings in the object engine's store → outbox → relay enumeration
    # order; an item is appended once, when it becomes known.
    store: List[int]
    outbox: List[int]
    relay: List[int]
    # Filter match set: {own address} ∪ relay addresses, mirroring
    # MultiAddressFilter.
    match: Set[int]


class ColumnarWorld:
    """One run's worth of flat state plus the batched event loop."""

    def __init__(
        self,
        trace: EncounterTrace,
        injections: Sequence[Injection],
        *,
        policy: str,
        policy_parameters: Optional[Mapping[str, Any]] = None,
        relay_sets: Optional[Mapping[str, FrozenSet[str]]] = None,
        bandwidth_limit: Optional[int] = None,
        faults: Optional[FaultConfig] = None,
        fault_seed: int = 0,
        seed: int = 0,
    ) -> None:
        self.trace = trace
        self.hosts: Tuple[str, ...] = trace.host_names
        n = len(self.hosts)

        # Address interning.  A host name's address id is its node id;
        # any other destination address seen in the workload is given
        # the next id from n on demand.
        self._addr_id: Dict[str, int] = {}
        self._relay_sets = relay_sets or {}

        # Per-node replication state, None until the node is live. It is
        # never cleared: a first-contact bus that emptied itself stays
        # live, which costs kernel entries, never correctness.
        self._buses: List[Optional[_Bus]] = [None] * n
        self._serials = array("q", [0] * n)

        # Item table (grows per injection).
        self._item_dest = array("q")
        self._item_origin = array("i")
        self._holders = array("i")
        self._item_ids: List[ItemId] = []

        self._policy = get_policy(policy, **dict(policy_parameters or {}))
        self._kind = _policy_kind(self._policy)

        self.bandwidth_limit = bandwidth_limit
        # One order coin per trace encounter, in trace order, whether or
        # not the encounter can move anything.
        self._orders = order_coins(seed)
        self._injections = sorted(injections, key=lambda inj: inj.time)
        # A live node's column. A dense one costs a slot per injection
        # (an item per injection at most), filled or not, and a dict
        # 42 to 73 B per known slot, so only epidemic, which fills one
        # slot in 11 on the metro run, gets the dense one; spray,
        # first-contact and direct delivery fill one in 100 to 400 there.
        self._new_column: Callable[[], Any] = dict
        if isinstance(self._policy, EpidemicPolicy):
            blank = _dense_column(self._policy.initial + 2, len(self._injections))
            if blank is not None:
                self._new_column = lambda: blank[:]
        self._dense = self._new_column is not dict
        # A copy budget's rules on column values (budget + 2; 1 is
        # unstamped), once per distinct value: a batch maps through them.
        self._ship: Optional[_Memo] = None
        self._keep: Optional[_Memo] = None
        if self._kind == _BUDGET:
            budget_policy = self._policy
            self._ship = _Memo(
                lambda v: budget_policy.shipped(v - 2 if v > 1 else None) + 2
            )
            kept = budget_policy.kept
            if kept is not None:
                self._keep = _Memo(lambda v: kept(v - 2) + 2 if v > 1 else v)

        self._injector: Optional[FaultInjector] = (
            FaultInjector(faults, seed=fault_seed)
            if faults is not None and faults.enabled
            else None
        )
        # The object engine routes every sync through FaultyTransport
        # whenever any channel model is armed; within the supported
        # subset that means truncation and/or duplication.
        self._transport_armed = (
            self._injector is not None
            and self._injector.config.has_transport_faults
        )

        self.metrics = MetricsCollector()

    # -- interning ---------------------------------------------------------

    def _node_id(self, host: str) -> Optional[int]:
        """``host``'s position in the sorted host names, or None: a
        bisection, not a name → id dict (3.2 MB at city scale)."""
        nid = bisect_left(self.hosts, host)
        return nid if self.hosts[nid : nid + 1] == (host,) else None

    def _intern_address(self, address: str) -> int:
        addr_id = self._node_id(address)
        if addr_id is None:
            addr_id = self._addr_id.setdefault(
                address, len(self.hosts) + len(self._addr_id)
            )
        return addr_id

    # -- event loop --------------------------------------------------------

    def run(self, end_time: Optional[float] = None) -> MetricsCollector:
        """Replay injections + encounters in event order; return metrics."""
        times = self.trace.times
        if end_time is None:
            # Bus addressing only, so no reassignment day extends the run.
            end_time = run_end_time(self.trace)
        # The schedule's order: an injection beats the encounters at its
        # instant (INJECT < ENCOUNTER band), so it closes the segment of
        # encounters strictly before it; nothing past the end time runs.
        stop = bisect_right(times, end_time)
        lo = 0
        for injection in self._injections:
            if injection.time > end_time:
                break
            hi = bisect_left(times, injection.time, lo, stop)
            self._run_segment(lo, hi)
            self._inject(injection)
            lo = hi
        self._run_segment(lo, stop)
        copies = dict(zip(self._item_ids, self._holders))
        self.metrics.record_end(end_time, copies.__getitem__)
        return self.metrics

    def _run_segment(self, lo: int, hi: int) -> None:
        """Trace encounters ``lo..hi``, which no injection falls among."""
        trace = self.trace
        # The coins come last: zip stops at the first exhausted column,
        # so none is drawn past the segment.
        rows = zip(trace.times[lo:hi], trace.a[lo:hi], trace.b[lo:hi], self._orders)
        encounter = self._encounter
        if self._injector is not None:
            # Backoff windows and the drop draw are per-encounter state
            # and rng: every encounter consults the injector.
            for row in rows:
                encounter(*row)
            return
        buses = self._buses
        idle = 0
        for now, a, b, order in rows:
            if buses[a] is None and buses[b] is None:
                idle += 1
            else:
                encounter(now, a, b, order)
        # Between two buses no item has reached nothing can move: one
        # encounter and two syncs that offer nothing, counted in bulk.
        self.metrics.record_empty_encounters(idle)

    def _match(self, nid: int) -> Set[int]:
        match = {nid}
        for address in self._relay_sets.get(self.hosts[nid], ()):
            match.add(self._intern_address(address))
        return match

    def _new_bus(self, match: Set[int]) -> _Bus:
        return _Bus(self._new_column(), [], [], [], match)

    def _inject(self, injection: Injection) -> None:
        nid = self._node_id(injection.source)
        if nid is None:
            # Bus-addressed workloads always name a node; mirror the
            # object engine's skip-rather-than-crash behaviour.
            return
        bus = self._buses[nid]
        if bus is None:
            bus = self._buses[nid] = self._new_bus(self._match(nid))
        serial = self._serials[nid]
        self._serials[nid] = serial + 1
        idx = len(self._item_ids)
        item_id = ItemId(ReplicaId(self.hosts[nid]), serial)
        self._item_ids.append(item_id)
        dest = self._intern_address(injection.destination)
        self._item_dest.append(dest)
        self._item_origin.append(nid)
        self._holders.append(1)
        bus.column[idx] = 1
        if dest in bus.match:
            bus.store.append(idx)
        else:
            bus.outbox.append(idx)
        self.metrics.record_injection(
            item_id,
            injection.source,
            injection.destination,
            injection.time,
            self.hosts[nid],
        )
        if dest == nid:
            # Sender and recipient ride the same bus today: delivered at
            # creation, exactly like the object engine's has_received
            # check right after injection.
            self.metrics.record_delivery(
                item_id, injection.time, self.hosts[nid], 1
            )

    def _encounter(self, now: float, ai: int, bi: int, order: Any) -> None:
        injector = self._injector
        metrics = self.metrics
        if injector is not None:
            name_a = self.hosts[ai]
            name_b = self.hosts[bi]
            if not injector.encounter_allowed(name_a, name_b, now):
                metrics.record_skipped_encounter("backoff")
                return
            if injector.should_drop_encounter():
                metrics.record_skipped_encounter("drop")
                return
        first, second = (ai, bi) if order else (bi, ai)
        budget = self.bandwidth_limit
        sent_a, interrupted_a = self._sync(first, second, now, budget)
        if budget is not None:
            budget = max(0, budget - sent_a)
        _, interrupted_b = self._sync(second, first, now, budget)
        metrics.record_encounter()
        if injector is not None:
            if injector.note_encounter_outcome(
                name_a, name_b, now, interrupted=interrupted_a or interrupted_b
            ):
                metrics.record_resumed_pair()

    def _sync(
        self, src: int, tgt: int, now: float, budget: Optional[int]
    ) -> Tuple[int, bool]:
        """One directed sync; returns (sent_total, interrupted)."""
        metrics = self.metrics
        source = self._buses[src]
        if source is None:
            # No item ever reached the source: every other counter
            # would gain 0 and an empty batch draws nothing from the
            # fault rng.
            metrics.record_sync_counts()
            return 0, False
        attr, store_s, outbox_s, relay_s, _ = source
        store_size = len(store_s) + len(outbox_s) + len(relay_s)
        dest = self._item_dest
        kind = self._kind
        policy = self._policy

        # Candidate enumeration: store → outbox → relay insertion order,
        # skipping what the target already knows (the object engine's
        # items_unknown_to fast path yields exactly this sequence).
        target = self._buses[tgt]
        if target is None:
            # No item has reached the target, so it knows none. It goes
            # live on its first delivery, below; until then its match
            # set is rebuilt per sync.
            tknow, tmatch = None, self._match(tgt)
            unknown = [*store_s, *outbox_s, *relay_s]
        else:
            tknow, _, _, _, tmatch = target
            known = tknow.__getitem__ if self._dense else tknow.__contains__
            unknown = list(filterfalse(known, chain(store_s, outbox_s, relay_s)))

        candidates = len(unknown)
        matched_ids: List[int] = []
        normal_ids: List[int] = []
        if kind == _DIRECT:
            matched_ids = [i for i in unknown if dest[i] in tmatch]
        elif kind == _FIRST_CONTACT:
            for i in unknown:
                if dest[i] in tmatch:
                    matched_ids.append(i)
                elif dest[i] != src:
                    # FirstContactPolicy holds items addressed to
                    # this node itself (local_addresses()).
                    normal_ids.append(i)
        else:
            # CopyBudgetPolicy.to_send on column values (budget + 2).
            stamped = policy.initial + 2
            least = policy.least_forwarded + 2
            for i in unknown:
                if dest[i] in tmatch:
                    matched_ids.append(i)
                else:
                    value = attr[i]
                    if value == 1:
                        # Lazy stamp on first policy inspection.
                        value = attr[i] = stamped
                    if value >= least:
                        normal_ids.append(i)

        # Bandwidth cap: filter matches (priority class 100) sort ahead
        # of normal entries (20), ties broken by enumeration index — the
        # capped batch is therefore a prefix of matched + normal.
        n_matched = len(matched_ids)
        total = n_matched + len(normal_ids)
        truncated = 0
        if budget is not None and total > budget:
            truncated = total - budget
            if budget <= n_matched:
                batch = matched_ids[:budget]
                sent_matching = budget
            else:
                batch = matched_ids + normal_ids[: budget - n_matched]
                sent_matching = n_matched
        else:
            batch = matched_ids + normal_ids if normal_ids else matched_ids
            sent_matching = n_matched
        sent_total = len(batch)

        # prepare_outgoing: snapshot shipped budgets, as the target's
        # column values, before any on_items_sent mutation (spray halves
        # *after* shipping).
        ship = self._ship
        shipped = (
            repeat(1)
            if ship is None
            else list(map(ship.__getitem__, map(attr.__getitem__, batch)))
        )

        # Transport: replicate FaultyTransport.deliver's draw order on
        # the injector rng (truncation plan, then one duplication draw
        # per surviving stream entry); an unarmed model and an empty
        # batch draw nothing.
        # A duplicated frame arrives next to its first, which the target
        # has just applied (the batch holds each item once and the target
        # knew none), so the object engine tolerates it as redundant.
        interrupted = False
        lost = 0
        redundant = 0
        delivered_n = sent_total
        if self._transport_armed and batch:
            injector = self._injector
            assert injector is not None
            config, rng = injector.config, injector.rng
            cut = plan_cut(config, sent_total, rng)
            if cut is not None:
                interrupted = True
                lost = sent_total - cut
                delivered_n = cut
            if delivered_n:
                redundant = sum(
                    mask(config.duplication_probability, delivered_n, rng)
                )

        # Source-side confirmation (each delivered entry once), *before*
        # the target applies — SyncSession.run's order, which matters for
        # first-contact holder counts at delivery time.
        keep = self._keep
        if keep is not None and delivered_n:
            for i in batch[:delivered_n]:
                attr[i] = keep[attr[i]]
        elif kind == _FIRST_CONTACT and delivered_n:
            holders = self._holders
            origin = self._item_origin
            smatch = source.match
            for i in batch[:delivered_n]:
                # The one list _inject or the apply below put it in.
                if dest[i] in smatch:
                    store_s.remove(i)
                elif origin[i] == src:
                    outbox_s.remove(i)
                else:
                    relay_s.remove(i)
                holders[i] -= 1

        # Target-side apply. The batch is its filter matches, then the
        # rest: the delivered prefix's matches go to the store, the
        # remainder to the relay.
        if delivered_n:
            if target is None:
                target = self._buses[tgt] = self._new_bus(tmatch)
                tknow = target.column
            delivered = batch[:delivered_n]
            stored = delivered[:sent_matching]
            target.store.extend(stored)
            target.relay.extend(delivered[sent_matching:])
            holders = self._holders
            for i, value in zip(delivered, shipped):
                tknow[i] = value
                holders[i] += 1
            item_ids = self._item_ids
            tgt_name = self.hosts[tgt]
            for i in stored:
                if dest[i] == tgt:
                    metrics.record_delivery(item_ids[i], now, tgt_name, holders[i])

        metrics.record_sync_counts(
            sent_total=sent_total,
            sent_matching=sent_matching,
            sent_relayed=sent_total - sent_matching,
            truncated=truncated,
            lost=lost,
            redundant=redundant,
            store_size=store_size,
            candidates=candidates,
            index_skipped=store_size - candidates,
            interrupted=interrupted,
        )
        return sent_total, interrupted

    # -- introspection (tests / equivalence harness) -----------------------

    def knowledge_of(self, host: str) -> FrozenSet[str]:
        """Known versions of ``host`` as ``"origin:counter"`` strings."""
        bus = self._buses[self._node_id(host)]
        if bus is None:
            return frozenset()
        column = bus.column
        known = column if isinstance(column, dict) else compress(count(), column)
        origin = self._item_origin
        item_ids = self._item_ids
        # Versions replicate IdFactory: the k-th item authored at a node
        # carries counter k+1 (serial k).
        return frozenset(
            f"{self.hosts[origin[i]]}:{item_ids[i].serial + 1}" for i in known
        )

    def holdings_of(self, host: str) -> Tuple[str, ...]:
        """Stored item ids of ``host`` in enumeration order."""
        bus = self._buses[self._node_id(host)]
        if bus is None:
            return ()
        ids = self._item_ids
        return tuple(
            str(ids[i])
            for holding in (bus.store, bus.outbox, bus.relay)
            for i in holding
        )


# -- config-driven entry points -------------------------------------------


def _world(config: Any, inputs: Any) -> ColumnarWorld:
    """A :class:`ColumnarWorld` over the whole of ``inputs``."""
    return ColumnarWorld(
        inputs.trace,
        inputs.injections,
        policy=config.policy,
        policy_parameters=config.policy_parameters,
        relay_sets=inputs.relay_sets,
        bandwidth_limit=config.bandwidth_limit,
        faults=config.faults,
        fault_seed=config.fault_seed,
        seed=config.encounter_order_seed,
    )


def build_world(
    config: Any,
    trace: Optional[EncounterTrace] = None,
    model: Optional[Any] = None,
) -> Tuple[ColumnarWorld, EncounterTrace]:
    """Construct a ready-to-run :class:`ColumnarWorld` for ``config``."""
    # Imported here: the experiments layer sits above this package.
    from repro.experiments.scenario import build_inputs

    reason = columnar_unsupported_reason(config)
    if reason is not None:
        raise ColumnarUnsupportedError(reason)
    inputs = build_inputs(config, trace, model)
    return _world(config, inputs), inputs.trace


def run_columnar(
    config: Any,
    trace: Optional[EncounterTrace] = None,
    model: Optional[Any] = None,
) -> Tuple[MetricsCollector, Dict[str, float]]:
    """Run ``config`` on the columnar engine.

    Returns ``(metrics, trace_summary)`` so the caller (normally
    :func:`repro.experiments.runner.run_experiment`) can wrap them in an
    :class:`~repro.experiments.runner.ExperimentResult` without a
    circular import.
    """
    world, trace = build_world(config, trace, model)
    trace_summary = trace.summary()
    metrics = world.run()
    return metrics, trace_summary


#: Metric counters outside the equivalence contract: the columnar core
#: never serialises a knowledge vector, so this stays at zero while the
#: object engine counts real request bytes.
UNREPLICATED_COUNTERS: Tuple[str, ...] = ("metadata_bytes",)


def comparable_metrics(metrics: MetricsCollector) -> Dict[str, Any]:
    """``metrics.to_dict()`` restricted to the equivalence contract.

    Both the equivalence tests and ``bench/paper_object.py`` compare engines
    through this view: everything in :meth:`MetricsCollector.to_dict`
    except :data:`UNREPLICATED_COUNTERS`.
    """
    data = metrics.to_dict()
    for key in UNREPLICATED_COUNTERS:
        data.pop(key, None)
    return data

