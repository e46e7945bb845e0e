"""Convergence parity: a live multi-process swarm vs the emulator.

The acceptance bar for the live transport (docs/deployment.md): replaying
the same scaled DieselNet trace through N real ``repro serve`` OS
processes over unix sockets must reach exactly the per-node fixed point —
holdings and knowledge — that the discrete-event emulator computes. Not
statistically close: equal.
"""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.parity import compare_fixed_points, snapshot_emulator
from repro.experiments.scenario import build_scenario
from repro.net.swarm import SwarmConfig, run_swarm

#: Scale 0.25 gives 8 hosts / 24 encounters / 4 days — comfortably above
#: the ≥5-process bar while keeping each swarm run a few seconds.
SCALE = 0.25


def live_comparable(metrics):
    """``to_dict()`` minus ``copies_at_delivery``, the one field a live
    run cannot fill: it needs the emulator's global view of every store."""
    data = metrics.to_dict()
    for record in data["records"]:
        del record["copies_at_delivery"]
    return data


def run_parity(experiment):
    report = run_swarm(SwarmConfig(experiment=experiment))
    emulator = build_scenario(experiment).emulator
    expected = emulator.run()
    parity = compare_fixed_points(
        snapshot_emulator(emulator), report.fixed_points
    )
    # Both worlds book through one RunDirector: every counter and every
    # per-message record agrees, not only the replicas' fixed points.
    assert live_comparable(report.metrics) == live_comparable(expected)
    return report, parity


class TestSwarmParity:
    def test_epidemic_swarm_matches_emulator(self):
        experiment = ExperimentConfig(scale=SCALE, policy="epidemic")
        report, parity = run_parity(experiment)
        assert len(report.fixed_points) >= 5  # real OS processes
        assert parity.equal, f"diverged: {parity.detail}"
        summary = report.metrics.summary()
        assert summary["injected"] > 0
        assert summary["delivered"] > 0
        assert summary["encounters"] == 24

    def test_bandwidth_limited_spray_matches_emulator(self):
        """The per-encounter budget handoff survives the socket hop."""
        experiment = ExperimentConfig(
            scale=SCALE, policy="spray", bandwidth_limit=3
        )
        report, parity = run_parity(experiment)
        assert parity.equal, f"diverged: {parity.detail}"
        # A shared budget of 3 per encounter bounds total transmissions.
        summary = report.metrics.summary()
        assert summary["transmissions"] <= 3 * summary["encounters"]

    @pytest.mark.parametrize("policy", ["prophet", "maxprop", "first-contact"])
    def test_stateful_policies_match_emulator(self, policy):
        """The policies whose hooks carry state between the two syncs of an
        encounter. PROPHET and MaxProp ship from ``generate_req`` what
        ``process_req`` just moved; First Contact releases in
        ``on_items_sent`` what it handed off. A wire sequence that fires
        one of a node's hooks out of the emulator's order can move an item
        the emulator does not — PROPHET does, 198 transmissions for 208,
        when the second request is built before the first sync's
        ``process_req`` (docs/protocol.md §9.3) — and epidemic and spray
        cannot tell."""
        experiment = ExperimentConfig(scale=SCALE, policy=policy)
        report, parity = run_parity(experiment)
        assert parity.equal, f"diverged: {parity.detail}"
        assert report.metrics.summary()["transmissions"] > 0

    def test_swarm_artifact_uses_shared_summary_schema(self, tmp_path):
        experiment = ExperimentConfig(scale=SCALE, policy="epidemic")
        output = tmp_path / "swarm.json"
        report = run_swarm(SwarmConfig(experiment=experiment), output=str(output))
        artifact = json.loads(output.read_text())
        assert artifact["run_id"].startswith("swarm-")
        document = artifact["document"]
        # The same core keys `repro run --json` emits, plus kind/schema.
        for key in ("schema", "kind", "label", "scale", "fault_seed", "summary"):
            assert key in document
        assert document["kind"] == "swarm"
        assert document["summary"]["injected"] == report.metrics.summary()["injected"]
        assert artifact["fixed_points"] == report.fixed_points

    def test_swarm_rejects_fault_configs(self):
        experiment = ExperimentConfig(scale=SCALE, policy="epidemic").with_faults(
            truncation_probability=0.5
        )
        with pytest.raises(ValueError, match="simulation-only"):
            SwarmConfig(experiment=experiment)
