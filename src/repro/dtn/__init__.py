"""Pluggable DTN routing policies for the replication substrate.

Implements the paper's Section V on the platform's ``IDTNPolicy`` plug
(:class:`~repro.replication.routing.RoutingPolicy`): the four
representative routing protocols — Epidemic routing, Spray and Wait,
PROPHET, and MaxProp — plus First Contact and a registry keyed by policy
name with Table II parameter defaults. The direct-delivery baseline
(unmodified Cimbiosys behaviour) is the platform's own and is re-exported
here.
"""

from repro.replication.routing import AddressProvider, DirectDeliveryPolicy

from . import codec as _codec  # registers PROPHET/MaxProp wire codecs
from .first_contact import FirstContactPolicy
from .epidemic import DEFAULT_TTL, TTL_ATTRIBUTE, EpidemicPolicy
from .maxprop import (
    DEFAULT_HOP_THRESHOLD,
    HOPLIST_ATTRIBUTE,
    MaxPropPolicy,
    MaxPropRequest,
)
from .prophet import (
    DEFAULT_AGING_UNIT,
    DEFAULT_BETA,
    DEFAULT_GAMMA,
    DEFAULT_P_INIT,
    ProphetPolicy,
    ProphetRequest,
)
from .registry import (
    PAPER_POLICY_ORDER,
    TABLE_II_PARAMETERS,
    available_policies,
    default_parameters,
    get_policy,
    register_policy,
)
from .spray_wait import COPIES_ATTRIBUTE, DEFAULT_COPIES, SprayAndWaitPolicy

__all__ = [
    "AddressProvider",
    "COPIES_ATTRIBUTE",
    "DEFAULT_AGING_UNIT",
    "DEFAULT_BETA",
    "DEFAULT_COPIES",
    "DEFAULT_GAMMA",
    "DEFAULT_HOP_THRESHOLD",
    "DEFAULT_P_INIT",
    "DEFAULT_TTL",
    "DirectDeliveryPolicy",
    "EpidemicPolicy",
    "FirstContactPolicy",
    "HOPLIST_ATTRIBUTE",
    "MaxPropPolicy",
    "MaxPropRequest",
    "PAPER_POLICY_ORDER",
    "ProphetPolicy",
    "ProphetRequest",
    "SprayAndWaitPolicy",
    "TABLE_II_PARAMETERS",
    "TTL_ATTRIBUTE",
    "available_policies",
    "default_parameters",
    "get_policy",
    "register_policy",
]
