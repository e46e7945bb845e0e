"""Microbenchmark of the emulation machinery itself.

Throughput of the end-to-end encounter pipeline — useful for sizing
larger-than-paper scenarios.
"""

from repro.dtn import EpidemicPolicy
from repro.emulation.encounters import Encounter, EncounterTrace
from repro.emulation.network import Emulator, Injection
from repro.emulation.node import EmulatedNode


def test_encounter_pipeline_throughput(benchmark):
    """Full emulation rate: 4 nodes, 200 encounters, 40 flooded messages."""

    def build_and_run():
        names = [f"n{i}" for i in range(4)]
        nodes = {name: EmulatedNode(name, EpidemicPolicy()) for name in names}
        encounters = [
            Encounter(
                9 * 3600.0 + i * 60.0,
                names[i % 4],
                names[(i + 1 + i % 3) % 4],
            )
            for i in range(200)
            if names[i % 4] != names[(i + 1 + i % 3) % 4]
        ]
        injections = [
            Injection(9 * 3600.0 + i * 10.0, names[i % 4], names[(i + 2) % 4], i)
            for i in range(40)
        ]
        emulator = Emulator(
            EncounterTrace(encounters), nodes, injections=injections
        )
        metrics = emulator.run()
        return metrics.delivered

    delivered = benchmark(build_and_run)
    assert delivered == 40  # dense mixing delivers everything
