"""Tests for the content-addressed run-artifact store."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.store import (
    RUN_SCHEMA_VERSION,
    RunStore,
    StoreError,
    canonical_json,
    config_digest,
    run_id_for,
)

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])
    | st.text()
    | st.sampled_from(["é", "日本", "\U0001f600", "\ud800", '"\\', "\x00\n"]),
    lambda children: st.lists(children, max_size=5)
    | st.tuples(children, children)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=30,
)


@pytest.fixture(scope="module")
def small_result():
    return run_experiment(ExperimentConfig(scale=0.25, policy="epidemic"))


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "runs")


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(_JSON)
    def test_is_json_dumps_sorted_and_compact(self, data):
        expected = json.dumps(data, sort_keys=True, separators=(",", ":"))
        assert canonical_json(data) == expected

    def test_refuses_what_json_dumps_refuses(self):
        for value in ({1, 2}, b"bytes", object()):
            with pytest.raises(TypeError):
                canonical_json(value)


class TestContentAddressing:
    def test_run_id_is_policy_plus_digest(self):
        config = ExperimentConfig(scale=0.5, policy="spray")
        run_id = run_id_for(config)
        assert run_id == f"spray-{config_digest(config)}"
        assert len(config_digest(config)) == 16

    def test_equal_configs_share_an_address(self):
        a = ExperimentConfig(scale=0.5, policy="epidemic")
        b = ExperimentConfig(scale=0.5, policy="epidemic")
        assert run_id_for(a) == run_id_for(b)

    def test_any_field_change_moves_the_address(self):
        base = ExperimentConfig(scale=0.5, policy="epidemic")
        variants = [
            ExperimentConfig(scale=0.5, policy="spray"),
            ExperimentConfig(scale=0.5, policy="epidemic", trace_seed=43),
            ExperimentConfig(scale=0.5, policy="epidemic", bandwidth_limit=3),
        ]
        for variant in variants:
            assert run_id_for(variant) != run_id_for(base)


class TestSaveLoad:
    def test_round_trip_through_disk(self, store, small_result):
        path = store.save_result(small_result, wall_clock_s=1.5)
        assert path.exists()
        run_id = run_id_for(small_result.config)
        artifact = store.load_artifact(run_id)
        assert artifact["schema"] == RUN_SCHEMA_VERSION
        assert artifact["run_id"] == run_id
        assert artifact["wall_clock_s"] == 1.5
        loaded = store.load_result(run_id)
        assert loaded.summary() == small_result.summary()
        assert loaded.config == small_result.config

    def test_load_by_config(self, store, small_result):
        store.save_result(small_result)
        loaded = store.load_result(small_result.config)
        assert loaded.summary() == small_result.summary()

    def test_has_and_list(self, store, small_result):
        assert not store.has(small_result.config)
        assert store.list_run_ids() == []
        store.save_result(small_result)
        assert store.has(small_result.config)
        assert store.list_run_ids() == [run_id_for(small_result.config)]

    def test_missing_artifact_raises(self, store):
        with pytest.raises(StoreError, match="missing"):
            store.load_artifact("epidemic-deadbeefdeadbeef")


class TestValidation:
    def test_truncated_file_is_invalid_not_crash(self, store, small_result):
        path = store.save_result(small_result)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(StoreError, match="corrupt"):
            store.load_artifact(run_id_for(small_result.config))
        assert not store.has(small_result.config)

    def test_tampered_config_fails_content_check(self, store, small_result):
        path = store.save_result(small_result)
        artifact = json.loads(path.read_text())
        artifact["result"]["config"]["trace_seed"] += 1
        path.write_text(json.dumps(artifact))
        with pytest.raises(StoreError, match="content validation"):
            store.load_artifact(run_id_for(small_result.config))

    def test_unknown_schema_is_rejected(self, store, small_result):
        path = store.save_result(small_result)
        artifact = json.loads(path.read_text())
        artifact["schema"] = RUN_SCHEMA_VERSION + 1
        path.write_text(json.dumps(artifact))
        with pytest.raises(StoreError, match="schema"):
            store.load_artifact(run_id_for(small_result.config))

