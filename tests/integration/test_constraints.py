"""Integration tests for bandwidth and storage constraints (Figures 9/10)."""

import os
import subprocess
import sys

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.traces.enron import generate_enron_model

SCALE = 0.5
TRACE = generate_dieselnet_trace(DieselNetConfig(scale=SCALE))
MODEL = generate_enron_model(n_users=ExperimentConfig(scale=SCALE).effective_users)


def run(policy, **constraint_kwargs):
    config = ExperimentConfig(scale=SCALE, policy=policy).with_constraints(
        **constraint_kwargs
    )
    return run_experiment(config, trace=TRACE, model=MODEL)


class TestBandwidthConstraint:
    def test_transmissions_bounded_by_encounters(self):
        result = run("epidemic", bandwidth_limit=1)
        assert result.metrics.transmissions <= result.metrics.encounters

    def test_constraint_reduces_traffic(self):
        free = run("epidemic")
        capped = run("epidemic", bandwidth_limit=1)
        assert capped.metrics.transmissions < free.metrics.transmissions

    def test_constraint_increases_delay(self):
        free = run("epidemic")
        capped = run("epidemic", bandwidth_limit=1)
        assert capped.metrics.fraction_delivered_within(
            12 * 3600
        ) <= free.metrics.fraction_delivered_within(12 * 3600)

    def test_dtn_policy_still_beats_baseline_under_cap(self):
        baseline = run("cimbiosys", bandwidth_limit=1)
        epidemic = run("epidemic", bandwidth_limit=1)
        # Under the 1-message budget relaying competes with direct
        # delivery for slots, but overall delivery still comes out ahead.
        assert (
            epidemic.metrics.delivery_ratio >= baseline.metrics.delivery_ratio
        )

    def test_truncation_reported(self):
        capped = run("epidemic", bandwidth_limit=1)
        assert capped.metrics.truncated_transmissions > 0


class TestStorageConstraint:
    def test_relay_occupancy_never_exceeds_cap(self):
        from repro.experiments.scenario import build_scenario

        config = ExperimentConfig(scale=SCALE, policy="epidemic").with_constraints(
            storage_limit=2
        )
        scenario = build_scenario(config, trace=TRACE, model=MODEL)
        violations = []

        original = scenario.emulator._run_encounter

        def checked(encounter):
            original(encounter)
            for node in scenario.nodes.values():
                if node.replica.relay_count > 2:
                    violations.append(node.name)

        scenario.emulator._run_encounter = checked
        scenario.emulator.run()
        assert violations == []

    def test_baseline_unaffected_by_storage_cap(self):
        free = run("cimbiosys")
        capped = run("cimbiosys", storage_limit=2)
        assert capped.metrics.delays() == free.metrics.delays()

    def test_cap_causes_evictions_for_flooding(self):
        capped = run("epidemic", storage_limit=2)
        assert capped.metrics.evictions > 0

    def test_flooding_still_beats_baseline_under_cap(self):
        baseline = run("cimbiosys", storage_limit=2)
        epidemic = run("epidemic", storage_limit=2)
        assert epidemic.metrics.fraction_delivered_within(
            12 * 3600
        ) >= baseline.metrics.fraction_delivered_within(12 * 3600)

    def test_cap_degrades_unconstrained_flooding(self):
        free = run("epidemic")
        capped = run("epidemic", storage_limit=2)
        assert capped.metrics.mean_copies_at_end() <= free.metrics.mean_copies_at_end()

    def test_random_eviction_is_the_same_run_in_every_process(self):
        """``str`` hashes are salted per interpreter; the "random" victim
        must not depend on them (each node of a live swarm is a process)."""
        script = (
            "import json\n"
            "from repro.experiments.config import ExperimentConfig\n"
            "from repro.experiments.runner import run_experiment\n"
            "config = ExperimentConfig(scale=0.3, policy='epidemic',\n"
            "    storage_limit=2, eviction_strategy='random')\n"
            "print(json.dumps(run_experiment(config).summary(), sort_keys=True))\n"
        )
        summaries = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={
                    **os.environ,
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": os.pathsep.join(sys.path),
                },
                check=True,
                capture_output=True,
                timeout=120,
            ).stdout
            for seed in ("1", "2")
        ]
        assert summaries[0] == summaries[1]
        assert b'"evictions": 0.0' not in summaries[0]


class TestCombinedConstraints:
    def test_both_constraints_compose(self):
        result = run("spray", bandwidth_limit=1, storage_limit=2)
        assert result.metrics.transmissions <= result.metrics.encounters
        assert result.metrics.delivered > 0
