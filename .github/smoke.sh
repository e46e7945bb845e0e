#!/usr/bin/env bash
# The smoke legs of CI, one per argument value; run from the repository
# root: bash .github/smoke.sh sweep|adversarial|swarm|churn
# Each leg drives the CLI end to end and asserts on the artifact it
# writes (uploaded by the workflow under the same file name).
set -euo pipefail
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

leg="${1:?usage: smoke.sh <leg>}"

CHURN_FLAGS="--churn-arrivals 0.15 --churn-departures 0.15
  --churn-crashes 0.3 --churn-amnesia 0.5
  --churn-free-riders 0.15 --reciprocity-threshold 0.4 --churn-seed 0"

case "$leg" in
sweep)
  # Parallel sweep (2 policies x 2 seeds, 2 workers), then a resume
  # that must skip every completed run.
  SWEEP="python -m repro sweep --policies epidemic spray --seeds 0 1
    --scale 0.25 --workers 2 --results-dir results/runs"
  $SWEEP | tee sweep-first.log
  $SWEEP | tee sweep-second.log
  grep -q "4 completed, 0 reused, 0 failed" sweep-first.log
  grep -q "0 completed, 4 reused, 0 failed" sweep-second.log
  # A figure reuses the sweep's seed-0 epidemic and spray runs and adds
  # its other three legs; a second call adds none and prints the rows a
  # figure without a store prints.
  FIGURE="python -m repro figure 8 --scale 0.25"
  runs() { ls results/runs/*.json | wc -l; }
  swept=$(runs)
  $FIGURE --results-dir results/runs > figure-first.log
  test "$(runs)" -eq $((swept + 3))
  $FIGURE --results-dir results/runs > figure-second.log
  test "$(runs)" -eq $((swept + 3))
  $FIGURE > figure-plain.log
  cmp figure-second.log figure-plain.log
  ;;

adversarial)
  # Invariant harness under adversarial faults (fixed seeds):
  # corruption, replay, fabrication, and malformed frames at p=0.2 over
  # ~200-encounter schedules; asserts convergence, at-most-once
  # delivery, and version-vector monotonicity.
  python -m pytest -q \
    tests/integration/test_adversarial_invariants.py \
    tests/integration/test_zero_fault_equivalence.py
  # Every fault model armed at once, through the CLI: each fault
  # counter the report prints must move, except backoff skips (this
  # schedule meets no pair inside its retry window).
  python -m repro run --policy epidemic --scale 0.25 \
    --fault-drop 0.1 --fault-truncation 0.2 --fault-duplication 0.2 \
    --fault-crash 0.05 --fault-corruption 0.2 --fault-replay 0.2 \
    --fault-fabrication 0.2 --fault-malformed 0.2 --fault-seed 23 \
    --json adversarial-metrics.json
  python - <<'EOF'
import json
from repro.cli import FAULT_COUNTER_KEYS
summary = json.load(open("adversarial-metrics.json"))["summary"]
for key in FAULT_COUNTER_KEYS:
    if key != "backoff_skips":
        assert summary[key] > 0, (key, summary)
print({key: summary[key] for key in FAULT_COUNTER_KEYS})
EOF
  ;;

swarm)
  # Live swarm replay with convergence parity: 8 real `repro serve`
  # processes over unix sockets replay the scale-0.25 DieselNet slice,
  # then the same config runs through the discrete-event emulator;
  # exits 1 unless every node reaches the identical holdings/knowledge
  # fixed point.
  python -m repro swarm --scale 0.25 --policy epidemic --parity \
    --output swarm-metrics.json
  python - <<'EOF'
import json
artifact = json.load(open("swarm-metrics.json"))
document = artifact["document"]
assert document["kind"] == "swarm", document
assert document["schema"] == 1, document
summary = document["summary"]
assert summary["injected"] > 0 and summary["delivered"] > 0, summary
assert len(artifact["fixed_points"]) >= 5, "not a real swarm"
print("nodes:", len(artifact["fixed_points"]),
      "delivered:", summary["delivered"],
      "transmissions:", summary["transmissions"])
EOF
  # The policies that ship routing state in the sync request, over 187
  # encounters: a request built at the wrong moment (before the first
  # sync's process_req) costs PROPHET 46 of 769 transmissions here and
  # fails the gate; MaxProp ships the same kind of state and is held to
  # the same bar, though this trace does not separate the two orders.
  # Spray and cimbiosys are the policies whose refusals park: a parked
  # copy leaves the sync walk (RoutingPolicy.refuses_for_good), and the
  # live side must still send what the emulator sends. First Contact is
  # the one policy whose on_items_sent releases the stored copy, and the
  # live path confirms a send at a different point than the in-process
  # encounter does.
  for policy in prophet maxprop spray cimbiosys first-contact; do
    python -m repro swarm --scale 0.4 --policy "$policy" --parity \
      --output "swarm-$policy-metrics.json"
  done
  # The live path where destinations are user addresses, which change
  # hosts daily: every destination reader (filters, PROPHET's to_send,
  # delivery) sees the addresses the emulator's nodes see.
  python -m repro swarm --scale 0.4 --policy prophet --addressing user \
    --parity --output swarm-prophet-user-metrics.json
  # The same under MaxProp: decoded hop lists (per-copy state) and user
  # addresses (attribute values) both feed routing, so a decoder that
  # shares one decoded value for another fails the gate.
  python -m repro swarm --scale 0.4 --policy maxprop --addressing user \
    --parity --output swarm-maxprop-user-metrics.json
  # Swarm parity integration tests (framing + budget legs; fixed points
  # and the whole metrics dump), and the unit tests of the schedule and
  # director that carry that parity.
  python -m pytest -q tests/net tests/emulation/test_engine.py \
    tests/integration/test_swarm_parity.py
  ;;

churn)
  # Emulator run under full churn. Scale 0.25 / churn seed 0 covers
  # every lifecycle path: a late arrival, a checkpoint rejoin, an
  # amnesiac rejoin, a graceful leave with handoff, and a
  # reciprocity-scored free rider.
  python -m repro run --policy epidemic --scale 0.25 \
    $CHURN_FLAGS --json churn-metrics.json
  python - <<'EOF'
import json
from repro.emulation.metrics import ChurnCounts
summary = json.load(open("churn-metrics.json"))["summary"]
# The schedule must actually exercise the lifecycle machinery.
assert summary["churn_crashes"] == 2, summary
assert summary["churn_rejoins"] == 2, summary
assert summary["churn_amnesiac_rejoins"] == 1, summary
assert summary["churn_leaves"] == 1, summary
assert summary["churn_handoffs"] == 1, summary
# Every churn counter the report prints must move.
for key in ChurnCounts().summary():
    if key != "reciprocity_scores":
        assert summary[key] > 0, (key, summary)
scores = summary["reciprocity_scores"]
assert min(scores.values()) < 0.4, scores  # the free rider shows
print("node-hours:", summary["node_hours_online"],
      "scores:", scores)
EOF
  # Live swarm under the same churn schedule, with parity gate: the
  # orchestrator kills, respawns, and drains 8 real `repro serve`
  # processes per the derived schedule; exits 1 unless the swarm
  # reaches the emulator's exact per-node fixed point.
  python -m repro swarm --scale 0.25 --policy epidemic --parity \
    $CHURN_FLAGS --output churn-swarm-metrics.json
  # PROPHET and MaxProp keep routing state. It rides in the checkpoint's
  # head line through the swarm's checkpoint rejoins and through the
  # emulator's crash restarts alike, so parity holds only if both
  # restore it the same way.
  for policy in prophet maxprop; do
    python -m repro swarm --scale 0.25 --policy "$policy" --parity \
      $CHURN_FLAGS --output "churn-$policy-swarm-metrics.json"
  done
  # The same churn under a storage limit: emulator and swarm must book
  # the same evictions, and some must happen. Each node reports its
  # evictions with its directive replies, so a crashed, departed or
  # respawned process takes none of them with it.
  python -m repro run --policy epidemic --scale 0.25 --storage-limit 3 \
    $CHURN_FLAGS --json churn-storage-metrics.json
  python -m repro swarm --scale 0.25 --policy epidemic --storage-limit 3 \
    --parity $CHURN_FLAGS --output churn-storage-swarm-metrics.json
  python - <<'EOF'
import json
emulated = json.load(open("churn-storage-metrics.json"))["summary"]
live = json.load(open("churn-storage-swarm-metrics.json"))["document"]["summary"]
assert emulated["evictions"] == live["evictions"] > 0, (
    emulated["evictions"], live["evictions"])
print("evictions:", emulated["evictions"])
EOF
  # Churn unit + parity integration tests (and the schedule/director
  # unit tests: lifecycle events ride the same step list).
  python -m pytest -q \
    tests/churn \
    tests/emulation/test_engine.py \
    tests/emulation/test_network_churn.py \
    tests/replication/test_peer_health_cycles.py \
    tests/replication/test_serving_cap.py \
    tests/integration/test_churn_parity.py
  ;;

*)
  echo "unknown smoke leg: $leg" >&2
  exit 2
  ;;
esac
