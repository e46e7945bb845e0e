"""``substrate_flood`` — the replication layer moving many items.

50 replicas under epidemic routing flood 3 000 items through 6 000
``EncounterSession``s over a loop-back ``Transport`` that delivers intact
and in order but hands over every 7th entry twice (no randomness, so
every run sees the same duplicates). ~24.5 items move per encounter and
candidates = items sent, so building the response, checksum stamping and
verification, apply and store writes dominate and enumeration waste is
absent: the opposite regime to ``paper_object``. A gain for enumeration
that costs the write path shows up here as a loss.

The tape is random pairs plus a closing chain sweep (0-1, 1-2, … n-1 and
back) and the TTL is effectively unbounded, so for every seed each item
reaches each replica exactly once: ``items × (replicas − 1)``
transmissions, identical final knowledge everywhere.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.api import EncounterSession, SessionConfig, SyncSession, get_policy
from repro.net import FrameDecoder, encode_frame
from repro.replication import (
    MultiAddressFilter,
    Replica,
    ReplicaId,
    SyncEndpoint,
    decode_batch_frame,
    encode_batch_frame,
    encode_knowledge,
)

from harness import (
    SAMPLED_LAYERS,
    Recorder,
    SpeedMeter,
    StackSampler,
    Tracer,
    cache_layers,
    passes,
    repeat_setup,
)

SIZES = {
    "full": dict(replicas=50, items=3000, encounters=6000),
    "tiny": dict(replicas=8, items=300, encounters=600),
}
DUPLICATE_EVERY = 7
#: Hops are bounded by the tape length; this never expires.
UNBOUNDED_TTL = 10**9
#: How many of the flood's real batch entries the wire probe replays.
WIRE_PROBE_ITEMS = 20000
CONFIG = SessionConfig()

Tape = Tuple[List[Tuple[int, int]], Dict[int, List[Tuple[int, int]]]]


def name_of(index: int) -> str:
    return f"flood-{index:03d}"


def build_tape(size: Dict[str, int], seed: int) -> Tape:
    """``(pairs, authored_before)``: who meets whom, who writes when."""
    rng = random.Random(seed)
    replicas = size["replicas"]
    sweep = [(i, i + 1) for i in range(replicas - 1)]
    drain = sweep + [(b, a) for a, b in reversed(sweep)]
    pairs = []
    for _ in range(size["encounters"] - len(drain)):
        a = rng.randrange(replicas)
        b = rng.randrange(replicas - 1)
        pairs.append((a, b + 1 if b >= a else b))
    # Authoring stops at 80 % so the tail meets converged peers too.
    horizon = max(1, int(len(pairs) * 0.8))
    authored_before: Dict[int, List[Tuple[int, int]]] = {}
    for _ in range(size["items"]):
        author = rng.randrange(replicas)
        destination = rng.randrange(replicas - 1)
        authored_before.setdefault(rng.randrange(horizon), []).append(
            (author, destination + 1 if destination >= author else destination)
        )
    return pairs + drain, authored_before


def build_population(replicas: int) -> List[SyncEndpoint]:
    endpoints = []
    for index in range(replicas):
        replica = Replica(
            ReplicaId(name_of(index)),
            MultiAddressFilter(own_address=name_of(index)),
        )
        policy = get_policy("epidemic", initial_ttl=UNBOUNDED_TTL).bind(replica)
        endpoints.append(SyncEndpoint(replica, policy))
    return endpoints


class Delivery:
    """What ``Transport.deliver`` returns: everything arrived."""

    truncated = False
    lost = 0

    def __init__(self, delivered: List[Any]) -> None:
        self.delivered = delivered


class DuplicatingLoopback:
    """An intact, in-order channel that delivers every Nth entry twice."""

    def __init__(self, keep_items: int = 0) -> None:
        self.carried = 0
        self.duplicates = 0
        #: The first ``keep_items`` entries' batches, for the wire probe.
        self.kept: List[List[Any]] = []
        self._keep_items = keep_items

    def deliver(self, batch: List[Any]) -> Delivery:
        if batch and self._keep_items > 0:
            self.kept.append(list(batch))
            self._keep_items -= len(batch)
        delivered = []
        for entry in batch:
            delivered.append(entry)
            self.carried += 1
            if self.carried % DUPLICATE_EVERY == 0:
                delivered.append(entry)
                self.duplicates += 1
        return Delivery(delivered)


def author(endpoints: List[SyncEndpoint], index: int, writes: Any) -> None:
    for writer, destination in writes:
        endpoints[writer].replica.create_item(
            payload=f"m{index}",
            attributes={
                "destination": name_of(destination),
                "source": name_of(writer),
            },
        )


#: The ``SyncStats`` counters a pass sums (exact; they repeat run to run).
COUNTERS = (
    "sent_total", "redundant_received", "store_size", "index_skipped",
    "filter_cache_hits", "filter_cache_misses",
    "checksum_cache_hits", "checksum_cache_misses", "metadata_bytes",
)


def _untraced_pass(
    tape: Tape, endpoints: List[SyncEndpoint], meter: SpeedMeter
) -> Dict[str, Any]:
    """The measured pass. Returns plain numbers only, so that nothing of
    this pass's heap is alive when a traced pass follows."""
    pairs, authored_before = tape
    channel = DuplicatingLoopback()
    factory = lambda source, target: channel  # noqa: E731
    clock = time.perf_counter
    stamps = []
    all_stats = []
    started = clock()
    for index, (a, b) in enumerate(pairs):
        if index in authored_before:
            author(endpoints, index, authored_before[index])
        opened = clock()
        all_stats += EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=float(index),
            config=CONFIG,
            transport_factory=factory,
        ).run()
        stamps.append((opened, clock()))
    wall_s = meter.seconds(started, clock())
    counters = {
        name: sum(getattr(stats, name) for stats in all_stats)
        for name in COUNTERS
    }
    return {
        "wall_s": wall_s,
        "latencies_ms": [meter.seconds(a, b) * 1000.0 for a, b in stamps],
        "syncs": len(all_stats),
        "duplicates": channel.duplicates,
        "state": final_state(endpoints),
        **counters,
    }


def _traced_pass(
    tape: Tape, endpoints: List[SyncEndpoint], tracer: Tracer
) -> Dict[str, Any]:
    """The same tape through the six stepwise ``SyncSession`` halves.

    Mirrors ``SyncSession.run()`` over a transport step for step, with a
    span around each half; the final state must equal the untraced one.
    """
    pairs, authored_before = tape
    channel = DuplicatingLoopback(keep_items=WIRE_PROBE_ITEMS)
    begin, end = tracer.begin, tracer.end
    workload = begin("workload")
    for index, (a, b) in enumerate(pairs):
        if index in authored_before:
            author(endpoints, index, authored_before[index])
        encounter = begin("encounter")
        first, second = endpoints[a], endpoints[b]
        EncounterSession(
            first=first, second=second, now=float(index), config=CONFIG
        ).begin()
        for source, target in ((first, second), (second, first)):
            sync = begin("sync")
            session = SyncSession(
                source=source, target=target, now=float(index), config=CONFIG
            )
            step = begin("session.build_request")
            request = session.build_request()
            end(step)
            step = begin("session.build_response")
            batch, stats = session.build_response(request)
            end(step)
            step = begin("session.stamp")
            stamped = session.stamp(batch)
            end(step)
            step = begin("session.deliver")
            outcome = channel.deliver(stamped)
            end(step)
            step = begin("session.confirm_sent")
            session.confirm_sent(outcome.delivered)
            end(step)
            step = begin("session.apply")
            session.apply(outcome.delivered, stats=stats)
            end(step)
            end(sync)
        end(encounter)
    end(workload)
    return {"wall_s": tracer.seconds(workload), "channel": channel}


def final_state(endpoints: List[SyncEndpoint]) -> List[Any]:
    return [
        (encode_knowledge(e.replica.knowledge), e.replica.stored_count)
        for e in endpoints
    ]


def wire_probe(
    batches: List[List[Any]], tracer: Tracer, recorder: Recorder
) -> Tuple[int, int]:
    """Loop the flood's real batches through codec and framing.

    In-process workloads never encode; this is the per-item cost the
    live swarm pays on top of them, measured on the same entries.
    Returns ``(items, wire bytes)``; the times are in the spans.
    """
    decoder = FrameDecoder()
    items = wire_bytes = 0
    intact = True
    probe = tracer.begin("wire_probe")
    for batch in batches:
        frame = tracer.call("codec.encode", encode_batch_frame, batch)
        data = tracer.call(
            "framing.encode", encode_frame, {"type": "sync-batch", "frame": frame}
        )
        messages = tracer.call("framing.decode", decoder.feed, data)
        decoded = tracer.call(
            "codec.decode", decode_batch_frame, messages[0]["frame"]
        )
        intact = intact and (
            [entry.item.item_id for entry in decoded]
            == [entry.item.item_id for entry in batch]
        )
        items += len(batch)
        wire_bytes += len(data)
    tracer.end(probe)
    recorder.check(intact, "wire probe: decoded batches differ from the sent ones")
    return items, wire_bytes


def run(
    size_name: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    recorder: Recorder,
    expected: Optional[Dict[str, Any]],
) -> None:
    size = SIZES[size_name]
    meter = recorder.meter

    def set_up() -> Tuple[Tape, List[SyncEndpoint]]:
        return build_tape(size, seed), build_population(size["replicas"])

    for _ in passes(seconds if tracer is None else 0.0):
        setup_s, (tape, endpoints) = meter.timed(set_up)
        recorder.setup_s.append(setup_s)
        gc.collect()
        untraced = _untraced_pass(tape, endpoints, meter)
        del endpoints
        recorder.add_timed_encounters(
            untraced["wall_s"], untraced["sent_total"], untraced["latencies_ms"]
        )
        recorder.operations(len(tape[0]))

    state = untraced["state"]
    recorder.check(
        all(entry == state[0] for entry in state),
        "final knowledge differs between replicas",
    )
    recorder.check(
        untraced["sent_total"] == size["items"] * (size["replicas"] - 1),
        f"{untraced['sent_total']} transmissions, expected every item once "
        "per other replica",
    )
    recorder.check(
        untraced["redundant_received"] == untraced["duplicates"],
        f"redundant_received {untraced['redundant_received']} != duplicates "
        f"injected {untraced['duplicates']}",
    )
    recorder.simulated = {
        "transmissions": untraced["sent_total"],
        "redundant_received": untraced["redundant_received"],
        "final_knowledge_sha256": hashlib.sha256(
            json.dumps(state[0], sort_keys=True).encode("utf-8")
        ).hexdigest(),
    }
    recorder.check_pinned(expected)

    if tracer is None:
        repeat_setup(recorder.setup_s, lambda: meter.timed(set_up)[0])
        return

    traced_endpoints = build_population(size["replicas"])
    gc.collect()
    with StackSampler() as sampler:
        traced = _traced_pass(tape, traced_endpoints, tracer)
    recorder.check(
        final_state(traced_endpoints) == state,
        "stepwise (traced) pass ended in a different state than run()",
    )
    del traced_endpoints
    layers = recorder.layers
    layers.update(
        cache_layers(
            filter_hits=untraced["filter_cache_hits"],
            filter_misses=untraced["filter_cache_misses"],
            checksum_hits=untraced["checksum_cache_hits"],
            checksum_misses=untraced["checksum_cache_misses"],
            index_skipped=untraced["index_skipped"],
            store_seen=untraced["store_size"],
            metadata_bytes=untraced["metadata_bytes"],
            syncs=untraced["syncs"],
        )
    )
    items, wire_bytes = wire_probe(traced["channel"].kept, tracer, recorder)
    spans_s = tracer.totals()
    for half in (
        "build_request", "build_response", "stamp",
        "deliver", "confirm_sent", "apply",
    ):
        layers[f"session.{half}_s"] = spans_s[f"session.{half}"]
    layers["codec.encode_us_per_item"] = spans_s["codec.encode"] / items * 1e6
    layers["codec.decode_us_per_item"] = spans_s["codec.decode"] / items * 1e6
    layers["framing.encode_mb_per_s"] = wire_bytes / 1e6 / spans_s["framing.encode"]
    layers["framing.decode_mb_per_s"] = wire_bytes / 1e6 / spans_s["framing.decode"]
    layers["wire.bytes_per_item"] = wire_bytes / items
    layers.update(sampler.self_shares(SAMPLED_LAYERS))
    layers["trace_overhead_share"] = (
        traced["wall_s"] - untraced["wall_s"]
    ) / untraced["wall_s"]
