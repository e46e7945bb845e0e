"""repro — a reproduction of "Peer-to-peer Data Replication Meets Delay
Tolerant Networking" (Gilbert, Ramasubramanian, Stuedi, Terry; ICDCS 2011).

The package layers, bottom to top:

* :mod:`repro.replication` — a Cimbiosys-style peer-to-peer *filtered*
  replication substrate: versioned items, content-based filters,
  version-vector knowledge, pairwise sync with eventual filter consistency
  and at-most-once delivery, and a pluggable routing-policy interface.
* :mod:`repro.dtn` — four DTN routing protocols implemented as replication
  policies: Epidemic, Spray and Wait, PROPHET, MaxProp (plus the
  direct-delivery baseline).
* :mod:`repro.messaging` — the DTN messaging application: messages are
  replicated items; filters deliver them.
* :mod:`repro.emulation` — deterministic trace-driven discrete-event
  emulation with bandwidth/storage constraints and metrics.
* :mod:`repro.traces` — DieselNet-like mobility and Enron-like e-mail
  workload generators, plus parsers for real data.
* :mod:`repro.experiments` — harnesses regenerating every table and figure
  of the paper's evaluation, plus the process-parallel sweep engine and
  its content-addressed run-artifact store.
* :mod:`repro.analysis` — statistics helpers.

The *supported* surface is :mod:`repro.api` — a curated, stability-policed
facade (see ``docs/api.md``). Everything else is importable but internal.
"""

__version__ = "1.19.0"

__all__ = [
    "analysis",
    "api",
    "dtn",
    "emulation",
    "experiments",
    "messaging",
    "replication",
    "traces",
]
