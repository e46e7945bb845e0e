"""Policy registry: name → factory, and the paper's Table II as data.

Experiment configs refer to policies by name (``"epidemic"``, ``"spray"``,
``"prophet"``, ``"maxprop"``, ``"cimbiosys"``); the registry turns a name
plus optional parameter overrides into a fresh, unbound policy instance.
Every emulated node gets its own instance — policies hold per-host state.

:func:`get_policy` is the single supported entry point for turning a name
into an instance (names are case-insensitive). Each policy class's own
constructor defaults are the Table II values, so constructing a class
directly gives the same policy as looking its name up.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Tuple

from repro.replication.routing import DirectDeliveryPolicy, RoutingPolicy

from .epidemic import DEFAULT_TTL, EpidemicPolicy
from .first_contact import FirstContactPolicy
from .maxprop import DEFAULT_HOP_THRESHOLD, MaxPropPolicy
from .prophet import (
    DEFAULT_BETA,
    DEFAULT_GAMMA,
    DEFAULT_P_INIT,
    ProphetPolicy,
)
from .spray_wait import DEFAULT_COPIES, SprayAndWaitPolicy

PolicyFactory = Callable[..., RoutingPolicy]

_REGISTRY: Dict[str, PolicyFactory] = {}

#: Table II of the paper, as data (see repro.experiments.tables for the
#: rendered form).
TABLE_II_PARAMETERS: Dict[str, Dict[str, Any]] = {
    "epidemic": {"initial_ttl": DEFAULT_TTL},
    "spray": {"initial_copies": DEFAULT_COPIES},
    "prophet": {
        "p_init": DEFAULT_P_INIT,
        "beta": DEFAULT_BETA,
        "gamma": DEFAULT_GAMMA,
    },
    "maxprop": {"hop_threshold": DEFAULT_HOP_THRESHOLD},
}

#: Canonical ordering of policies in the paper's figures.
PAPER_POLICY_ORDER: Tuple[str, ...] = (
    "cimbiosys",
    "prophet",
    "spray",
    "epidemic",
    "maxprop",
)


def register_policy(name: str, factory: PolicyFactory) -> None:
    """Register a policy factory under ``name`` (overwrites silently).

    Names are case-insensitive: they are stored, listed, and looked up in
    lowercase.
    """
    _REGISTRY[name.lower()] = factory


def available_policies() -> Tuple[str, ...]:
    """Registered policy names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_policy(name: str, **parameters: Any) -> RoutingPolicy:
    """Instantiate the policy registered under ``name``.

    The single supported lookup path: resolves the (case-insensitive)
    name and passes the caller's ``parameters`` to its factory, whose
    defaults are the paper's Table II values. Unknown names raise
    :class:`KeyError` listing every registered policy.
    """
    key = name.lower()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; registered policies: "
            f"{', '.join(available_policies())}"
        ) from None
    return factory(**parameters)


def default_parameters(name: str) -> Mapping[str, Any]:
    """The Table II parameter set for ``name`` (empty for cimbiosys)."""
    return dict(TABLE_II_PARAMETERS.get(name, {}))


register_policy("cimbiosys", DirectDeliveryPolicy)
register_policy("first-contact", FirstContactPolicy)
register_policy("epidemic", EpidemicPolicy)
register_policy("spray", SprayAndWaitPolicy)
register_policy("prophet", ProphetPolicy)
register_policy("maxprop", MaxPropPolicy)
