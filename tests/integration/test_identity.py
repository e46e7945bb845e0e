"""What every distinct run configuration produces, as one committed table.

``identity.json`` holds one row per configuration, one row per line:

* ``name``;
* ``sha256``, of ``json.dumps(metrics.to_dict(), sort_keys=True)`` for
  the run;
* ``config``, only the knobs that differ from ``ExperimentConfig()``,
  with ``faults`` and ``churn`` nested as the fields that differ from
  ``FaultConfig()`` and ``ChurnConfig()``;
* optionally ``metro``, the ``MetroConfig`` fields of the generated
  city trace the run replays instead of the DieselNet trace.

``test_run_reproduces_its_row`` reruns every row. A change that should
move no run (a refactor, an optimisation) must leave every digest equal.
A change that moves runs on purpose rewrites the digests and commits the
table's diff, which names exactly the configs that moved::

    PYTHONPATH=src python -m tests.integration.test_identity

To add a row, append a line with a new ``name`` and its ``config`` (the
``sha256`` may be left out) and run the same command; it also trims each
config to the knobs that differ from the defaults.

To show which rows a change moves, and that each moved digest is what
the parent commit computes: edit the rows the change must touch (drop a
removed knob, rename, delete), regenerate the table under the parent's
``src/`` and diff it against the committed table, then rerun the rows
under the change's own code::

    parent=$(mktemp -d)
    git archive <parent-commit> src | tar -x -C "$parent"
    PYTHONPATH="$parent/src" python -m tests.integration.test_identity
    git diff tests/integration/identity.json
    PYTHONPATH=src python -m pytest -q tests/integration/test_identity.py

The diff names every row the edits moved, each with the parent's new
digest; the last command must pass, so the change computes what the
parent computes for every row.
``test_the_table_covers_every_policy_and_model`` fails when a registered
policy, a policy the columnar engine accepts, a fault model, churn, user
addressing or a resource limit appears in no row.
"""

import functools
import hashlib
import json
import pathlib
from dataclasses import fields

import pytest

from repro.api import (
    ChurnConfig,
    ExperimentConfig,
    FaultConfig,
    MetroConfig,
    available_policies,
    columnar_unsupported_reason,
    generate_metro_trace,
    run_experiment,
)

TABLE = pathlib.Path(__file__).with_name("identity.json")
ROWS = json.loads(TABLE.read_text(encoding="utf-8"))

FAULT_MODELS = tuple(
    spec.name for spec in fields(FaultConfig) if spec.name.endswith("_probability")
)


def knobs(config: ExperimentConfig) -> dict:
    """The fields of ``config`` that differ from the defaults, nested."""

    def changed(value, default):
        return {
            key: item
            for key, item in value.to_dict().items()
            if item != default.to_dict()[key]
        }

    base = ExperimentConfig().to_dict()
    out = {
        key: value
        for key, value in config.to_dict().items()
        if key not in ("faults", "churn") and value != base[key]
    }
    if config.faults is not None:
        out["faults"] = changed(config.faults, FaultConfig())
    if config.churn is not None:
        out["churn"] = changed(config.churn, ChurnConfig())
    return out


@functools.lru_cache(maxsize=None)
def _metro_trace(spec):
    return generate_metro_trace(MetroConfig(**dict(spec)))


def digest(row: dict) -> str:
    config = ExperimentConfig.from_dict(row["config"])
    metro = row.get("metro")
    trace = _metro_trace(tuple(sorted(metro.items()))) if metro else None
    metrics = run_experiment(config, trace=trace).metrics
    return hashlib.sha256(
        json.dumps(metrics.to_dict(), sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("row", ROWS, ids=[row["name"] for row in ROWS])
def test_run_reproduces_its_row(row):
    assert digest(row) == row["sha256"]


def test_the_table_covers_every_policy_and_model():
    configs = [ExperimentConfig.from_dict(row["config"]) for row in ROWS]
    assert len({row["name"] for row in ROWS}) == len(ROWS)
    runs = {json.dumps([r["config"], r.get("metro")], sort_keys=True) for r in ROWS}
    assert len(runs) == len(ROWS)
    assert all(row["config"] == knobs(config) for row, config in zip(ROWS, configs))

    by_engine = {"object": set(), "columnar": set()}
    for config in configs:
        by_engine[config.engine].add(config.policy)
    assert set(available_policies()) - by_engine["object"] == set()
    columnar = {
        policy
        for policy in available_policies()
        if columnar_unsupported_reason(ExperimentConfig(policy=policy)) is None
    }
    assert columnar - by_engine["columnar"] == set()

    armed = set()
    for config in configs:
        if config.faults is not None:
            armed.update(m for m in FAULT_MODELS if getattr(config.faults, m) > 0)
        if config.churn is not None and config.churn.enabled:
            armed.add("churn")
        if config.addressing == "user":
            armed.add("addressing=user")
        if config.storage_limit is not None:
            armed.add("storage_limit")
        if config.bandwidth_limit is not None:
            armed.add("bandwidth_limit")
    wanted = {
        *FAULT_MODELS, "churn", "addressing=user", "storage_limit", "bandwidth_limit"
    }
    assert wanted - armed == set()


def main() -> None:
    """Rewrite every row's digest (and trim its config) in place."""
    rows = []
    for row in ROWS:
        row = {"name": row["name"], "sha256": "", **row}
        row["config"] = knobs(ExperimentConfig.from_dict(row["config"]))
        row["sha256"] = digest(row)
        rows.append(row)
    TABLE.write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
