"""Cross-commit pins of clean runs: the paper's nine evaluation legs,
first-contact, a bandwidth-capped spray, and the columnar engine's
answer to each leg it runs.

``results/*.txt`` pins summary rows and ``TestPinnedFaultSchedules`` pins
faulted runs; neither would notice a change in candidate enumeration
order on a bandwidth-capped leg that left the rows equal. These are the
sha256 of each leg's whole metrics dump at scale 0.5, with the seeds the
``paper_object`` benchmark workload derives from 42: e-mail 42,
assignment 43, workload 44, encounter order 45, filter 46, fault 47. A
change that moves one changes what a run produces; one that should not
(an optimisation, a refactor) is wrong if any moves.
"""

import hashlib
import json

import pytest

from repro.api import ChurnConfig, ExperimentConfig, FaultConfig, run_experiment

SEED = 42

LEGS = {
    "fig7.cimbiosys": (
        dict(policy="cimbiosys"),
        "8e7cab78706e2ed7964c6094881fc54809272ee006b6703ef080fee6730e7289",
    ),
    "fig7.epidemic": (
        dict(policy="epidemic"),
        "766740532aaac7098fade3b8a558607692446707c34d99314c4eba9aeda7a2e4",
    ),
    "fig7.spray": (
        dict(policy="spray"),
        "57acb00ee310b53d83e9713c2872846a7ed555948653fbbcbf313ca3b307180f",
    ),
    "fig7.prophet": (
        dict(policy="prophet"),
        "0a7cf13f58e6bf13223b1b059f81540463e774c9b77b7587091655ab12d82dab",
    ),
    "fig7.maxprop": (
        dict(policy="maxprop"),
        "f2529fb3f5dc0172d6d2dd771f1edac388162bc977d57c8fb710377d0977bb6c",
    ),
    "fig9.maxprop": (
        dict(policy="maxprop", bandwidth_limit=1),
        "f10fe7141556644139d102972d572fba1fd296e213900413f18380bbef1d342a",
    ),
    "fig10.maxprop": (
        dict(policy="maxprop", storage_limit=2),
        "7ff1e4cad8b5a3aa29ad7f775e644b4479228b017d63e2eff44865816a4629a3",
    ),
    "fig5.selected4": (
        dict(policy="cimbiosys", filter_strategy="selected", filter_k=4),
        "4636b702af0b80e6a550531d08b52f0085c50756c68c03247cacbda7bd6e7af6",
    ),
    "faults.epidemic": (
        dict(
            policy="epidemic",
            faults=FaultConfig(
                encounter_drop_probability=0.1,
                truncation_probability=0.2,
                duplication_probability=0.1,
            ),
        ),
        "6d4e11afb50187835cb0ff24ac5265fcb95c3ee286485c094335403527a2a49d",
    ),
    "first-contact": (
        dict(policy="first-contact"),
        "59cd5b076975ccffd75e7dbebff88cb8acc32771873ef63298f85edd47fc4ea0",
    ),
    "spray.bandwidth1": (
        dict(policy="spray", bandwidth_limit=1),
        "3d55ec6383c056edc2393867253b01ce4a37591168167ab1eaf8448ab0ff9ab2",
    ),
    # Legs whose policies park standing refusals out of the sync walk
    # (``RoutingPolicy.refuses_for_good``), and whose parked copies later
    # leave the index: evicted, replaced, moved by ``set_filter``, expunged
    # or dropped by a crash restart.
    "spray.storage2": (
        dict(policy="spray", storage_limit=2),
        "597d127e1c0f29a526962451c0fc8fcc4ec5a8379ce23863b7ec1b6d4c6cd479",
    ),
    "maxprop.user": (
        dict(policy="maxprop", addressing="user"),
        "3dbc42f986d06b4480f0b0096e6df6ae3e6a1319ef8ab707cc623efd3561dbee",
    ),
    "epidemic.ttl2": (
        dict(policy="epidemic", policy_parameters={"initial_ttl": 2}),
        "cfbbf4c10411095a6a945d9ad66d219f3decc0ee693d796a625d905be3da6fb7",
    ),
    "epidemic.delete_on_receipt": (
        dict(policy="epidemic", delete_on_receipt=True),
        "2f05fb883a96aa92f1451450a30205a3772202e0adcf81555bd51dc629bca372",
    ),
    "maxprop.churn": (
        dict(
            policy="maxprop",
            churn=ChurnConfig(
                seed=0,
                crash_fraction=0.3,
                departure_fraction=0.2,
                free_rider_fraction=0.15,
            ),
        ),
        "916d1a7d7707271cd8ae3eef96c8176f351afcd1f31684f439e949a3f7c41847",
    ),
    # Free riders that serve a few items per sync, under the session's
    # own bandwidth cap or none.
    "spray.budget_lie": (
        dict(
            policy="spray",
            churn=ChurnConfig(
                seed=0,
                free_rider_fraction=0.3,
                free_rider_mode="budget-lie",
                free_rider_budget=1,
            ),
        ),
        "176b31ff5077a8d14a3bcd306c20cf577da6fd78a72f03a1cf970bd2b2787f02",
    ),
    "epidemic.budget_lie.bandwidth3": (
        dict(
            policy="epidemic",
            bandwidth_limit=3,
            churn=ChurnConfig(
                seed=0,
                free_rider_fraction=0.3,
                free_rider_mode="budget-lie",
                free_rider_budget=2,
            ),
        ),
        "75f538b92decf946fae20898801d01836177b4fc5aa9dbca987c6469938c7053",
    ),
    # Churn paths the legs above miss: late arrivals, amnesiac rejoins and
    # the reciprocity gate (every churn counter moves here), and user
    # addresses re-dealt to hosts that crash, leave and come back.
    "epidemic.churn.reciprocity": (
        dict(
            policy="epidemic",
            churn=ChurnConfig(
                seed=0,
                arrival_fraction=0.15,
                departure_fraction=0.15,
                crash_fraction=0.3,
                amnesia_probability=0.5,
                free_rider_fraction=0.15,
                reciprocity_threshold=0.4,
            ),
        ),
        "c519932cf6caade7f3fcf49f35c32934c49eef296628da60f5168cf9229a8a67",
    ),
    "prophet.user.churn": (
        dict(
            policy="prophet",
            addressing="user",
            churn=ChurnConfig(
                seed=0,
                arrival_fraction=0.15,
                departure_fraction=0.15,
                crash_fraction=0.3,
            ),
        ),
        "e51616e93d5c1e85c603e70414051b90ca42850ed664b32693fea459d10bdbcb",
    ),
    # Legs whose policies read each copy's destination on the sync path:
    # PROPHET's per-destination comparison, First Contact's own-address
    # check, under user addresses that move between hosts daily.
    "prophet.user": (
        dict(policy="prophet", addressing="user"),
        "60662e351601e9585d2c66a01f0d059e02df0f6d6bd0e8c4ebc6c7308ce7fa36",
    ),
    "prophet.bandwidth1": (
        dict(policy="prophet", bandwidth_limit=1),
        "f1e68e9fb825410bf5274d3251dabb4bc30f9ae5cb68113924d46ca03428e6fb",
    ),
    "first-contact.user": (
        dict(policy="first-contact", addressing="user"),
        "dbe574d8458fccb604e3fcb2ce14f7c719825fbc895b2464c03f738724d50e55",
    ),
    # The columnar engine, which answers the object engine draw for draw
    # but keeps its own copy of the sync flow.
    "columnar.fig7.cimbiosys": (
        dict(policy="cimbiosys", engine="columnar"),
        "0ecdab7b1d1507de9d3fe848bad36915a96000419ce7a6a1579189283ccf39a6",
    ),
    "columnar.fig7.epidemic": (
        dict(policy="epidemic", engine="columnar"),
        "f205a1455ad2a0c84216492082eb60c896be3c6f77c9b206c35c8c6048f1d7ce",
    ),
    "columnar.fig7.spray": (
        dict(policy="spray", engine="columnar"),
        "51d2770bd85f100c6b63d6645e7cb86572358d67127d3e756aee35808d0ece66",
    ),
    "columnar.fig5.selected4": (
        dict(
            policy="cimbiosys",
            filter_strategy="selected",
            filter_k=4,
            engine="columnar",
        ),
        "f49314b79d43d91031d62792e5635cc0455570a87283e42175328918b4c41367",
    ),
    "columnar.faults.epidemic": (
        dict(
            policy="epidemic",
            faults=FaultConfig(
                encounter_drop_probability=0.1,
                truncation_probability=0.2,
                duplication_probability=0.1,
            ),
            engine="columnar",
        ),
        "01fedb6b08e4412c91983177e1267dbc9260a50cb48d56c9ec36e7e68091a247",
    ),
    "columnar.first-contact": (
        dict(policy="first-contact", engine="columnar"),
        "1d261f7411783367537f54416599e058dccebd9986b7afd744ac4947d7d809f7",
    ),
    "columnar.spray.bandwidth1": (
        dict(policy="spray", bandwidth_limit=1, engine="columnar"),
        "55a51d5f57a8976aeecb90a0b68f919239255afb133f15f0b28bf6af64a49f07",
    ),
}


@pytest.mark.parametrize("leg", list(LEGS))
def test_metrics_digest_is_pinned(leg):
    knobs, expected = LEGS[leg]
    config = ExperimentConfig(
        scale=0.5,
        email_seed=SEED,
        assignment_seed=SEED + 1,
        workload_seed=SEED + 2,
        encounter_order_seed=SEED + 3,
        filter_seed=SEED + 4,
        fault_seed=SEED + 5,
        **knobs,
    )
    dump = json.dumps(run_experiment(config).metrics.to_dict(), sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == expected
