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
  grep -q "4 reused" sweep-second.log
  grep -q "4 ok, 0 missing, 0 failed, 0 invalid" sweep-second.log
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
  # live side must still send what the emulator sends.
  for policy in prophet maxprop spray cimbiosys; do
    python -m repro swarm --scale 0.4 --policy "$policy" --parity \
      --output "swarm-$policy-metrics.json"
  done
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
summary = json.load(open("churn-metrics.json"))["summary"]
# The schedule must actually exercise the lifecycle machinery.
assert summary["churn_crashes"] == 2, summary
assert summary["churn_rejoins"] == 2, summary
assert summary["churn_amnesiac_rejoins"] == 1, summary
assert summary["churn_leaves"] == 1, summary
assert summary["churn_handoffs"] == 1, summary
assert summary["node_hours_online"] > 0, summary
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
  # Churn unit + parity integration tests (and the schedule/director
  # unit tests: lifecycle events ride the same step list).
  python -m pytest -q \
    tests/churn \
    tests/emulation/test_engine.py \
    tests/emulation/test_network_churn.py \
    tests/replication/test_peer_health_cycles.py \
    tests/net/test_reconnect_cycles.py \
    tests/integration/test_churn_parity.py
  ;;

*)
  echo "unknown smoke leg: $leg" >&2
  exit 2
  ;;
esac
