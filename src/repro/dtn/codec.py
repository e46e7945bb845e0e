"""Wire codecs for the bundled routing-policy states.

Registers PROPHET's and MaxProp's sync-request payloads with the
platform's routing-state codec registry, so full sync sessions round-trip
through the JSON wire format. Importing this module is enough; it is
imported by :mod:`repro.dtn` at package load.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.replication.codec import (
    CodecError,
    decode_addresses,
    decode_item_id,
    decode_names,
    decode_number,
    decode_state_fields,
    encode_item_id,
    register_routing_codec,
)

from .maxprop import MaxPropRequest, _decode_location
from .prophet import ProphetRequest


def _encode_prophet(state: ProphetRequest) -> Dict[str, Any]:
    return {
        "addresses": sorted(state.addresses),
        "p": dict(state.predictabilities),
    }


def _decode_prophet(data: Any) -> ProphetRequest:
    addresses, p = decode_state_fields(data, ("addresses", "p"))
    return ProphetRequest(
        addresses=decode_addresses(addresses),
        predictabilities=decode_names(p, decode_number),
    )


def _encode_maxprop(state: MaxPropRequest) -> Dict[str, Any]:
    return {
        "node": state.node,
        "addresses": sorted(state.addresses),
        "vectors": {
            node: dict(vector) for node, vector in state.vectors.items()
        },
        "locations": {
            address: [node, stamp]
            for address, (node, stamp) in state.locations.items()
        },
        "acks": [encode_item_id(item_id) for item_id in sorted(state.acks)],
    }


def _decode_maxprop(data: Any) -> MaxPropRequest:
    node, addresses, vectors, locations, acks = decode_state_fields(
        data, ("node", "addresses", "vectors", "locations", "acks")
    )
    if type(node) is not str or type(acks) is not list:
        raise CodecError(f"bad maxprop node or acks: {node!r}, {acks!r}")
    return MaxPropRequest(
        node=node,
        addresses=decode_addresses(addresses),
        vectors=decode_names(
            vectors, lambda vector: decode_names(vector, decode_number)
        ),
        locations=decode_names(locations, _decode_location),
        acks=frozenset(decode_item_id(e) for e in acks),
    )


register_routing_codec(
    "prophet", ProphetRequest, _encode_prophet, _decode_prophet
)
register_routing_codec(
    "maxprop", MaxPropRequest, _encode_maxprop, _decode_maxprop
)
