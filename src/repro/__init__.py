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

A package namespace binds only what is cheap to load. ``repro.api``,
``repro.experiments`` and ``repro.net``'s live-server names resolve on
first use (:func:`late_names`), so a process loads only the layers it
uses: the frame codec does not bring the event loop with it.
"""

import importlib

__version__ = "1.21.0"

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


def late_names(namespace, homes):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a module whose names
    in ``homes`` (home module → names) load on first use.

    A resolved name is bound in ``namespace``, so it is the home
    module's own object and the next lookup never gets here.
    """
    home_of = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name):
        if name not in home_of:
            module = namespace["__name__"]
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        namespace[name] = getattr(importlib.import_module(home_of[name]), name)
        return namespace[name]

    def __dir__():
        return sorted(namespace.keys() | home_of.keys())

    return __getattr__, __dir__
