"""Content-addressed artifact store for experiment runs.

Every completed run is persisted as one JSON file under a store root
(``results/runs/`` by convention). Runs are addressed by the digest of
their *config*: the config fully determines the run (everything is
seeded), so the digest names the result before it exists. That is what
makes sweeps resumable — a run whose artifact is already on disk and
validates does not need to be executed again — and what lets the figure
and report harnesses read results back instead of holding live
:class:`~repro.emulation.metrics.MetricsCollector` objects.

Layout::

    results/runs/
        epidemic-3f9c2ab41d07e6b2.json     one artifact per run
        spray-91be77a30c44d1f5.json

An artifact is an envelope around ``ExperimentResult.to_dict()``::

    {
      "schema": 1,
      "run_id": "epidemic-3f9c2ab41d07e6b2",
      "config_digest": "3f9c2ab41d07e6b2",
      "label": "epidemic",
      "wall_clock_s": 1.73,
      "result": {"config": ..., "metrics": ..., "trace_summary": ...}
    }

Validation recomputes the digest from the embedded config, so a tampered
or half-written artifact (writes are atomic: temp file + ``fsync`` +
``os.replace``) is detected rather than silently reused.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
from typing import Any, Dict, List, Optional, Union

from repro.replication.integrity import canonical_encoder
from repro.replication.persistence import write_atomic

from .config import ExperimentConfig
from .runner import ExperimentResult

#: Version of the artifact envelope; bump on incompatible layout changes.
RUN_SCHEMA_VERSION = 1

#: Conventional store root, relative to the repository/working directory.
DEFAULT_STORE_ROOT = pathlib.Path("results") / "runs"

_DIGEST_LENGTH = 16
_SAFE_POLICY = re.compile(r"[^a-z0-9_-]+")


class StoreError(RuntimeError):
    """An artifact is missing, unreadable, or fails content validation."""


#: Deterministic JSON used for digests and artifact bodies:
#: ``json.dumps(data, sort_keys=True, separators=(",", ":"))``.
canonical_json = canonical_encoder()


def config_digest(config: ExperimentConfig) -> str:
    """Hex digest of the canonical serialized config (the content address)."""
    payload = canonical_json(config.to_dict()).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:_DIGEST_LENGTH]


def run_id_for(config: ExperimentConfig) -> str:
    """``<policy>-<digest>`` — readable prefix, content-addressed suffix."""
    policy = _SAFE_POLICY.sub("-", config.policy.lower()) or "run"
    return f"{policy}-{config_digest(config)}"


class RunStore:
    """One directory of run artifacts, one file per run.

    The store is append-mostly and safe to share between sweeps: artifacts
    are keyed purely by config content, so two sweeps whose grids overlap
    share the overlapping runs.
    """

    def __init__(self, root: Union[str, pathlib.Path] = DEFAULT_STORE_ROOT):
        self.root = pathlib.Path(root)

    # -- paths ----------------------------------------------------------------------

    def path_for(self, run_id: str) -> pathlib.Path:
        return self.root / f"{run_id}.json"

    # -- queries --------------------------------------------------------------------

    def has(self, config: ExperimentConfig) -> bool:
        """True when a *valid* artifact for ``config`` is on disk."""
        run_id = run_id_for(config)
        if not self.path_for(run_id).exists():
            return False
        try:
            self.load_artifact(run_id)
        except StoreError:
            return False
        return True

    def list_run_ids(self) -> List[str]:
        """Run ids of every artifact file in the store, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.json"))

    # -- reading --------------------------------------------------------------------

    def load_artifact(self, run_id: str) -> Dict[str, Any]:
        """Read and validate one artifact envelope.

        Raises :class:`StoreError` if the file is missing, is not valid
        JSON, declares an unknown schema, or if the digest recomputed from
        the embedded config does not match the run id (content-address
        check).
        """
        path = self.path_for(run_id)
        try:
            raw = path.read_text()
        except OSError as exc:
            raise StoreError(f"missing run artifact {path}: {exc}") from exc
        try:
            artifact = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt run artifact {path}: {exc}") from exc
        if artifact.get("schema") != RUN_SCHEMA_VERSION:
            raise StoreError(
                f"run artifact {path} has schema "
                f"{artifact.get('schema')!r}, expected {RUN_SCHEMA_VERSION}"
            )
        try:
            config = ExperimentConfig.from_dict(artifact["result"]["config"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(
                f"run artifact {path} has an unreadable config: {exc}"
            ) from exc
        expected = run_id_for(config)
        if expected != run_id or artifact.get("run_id") != run_id:
            raise StoreError(
                f"run artifact {path} fails content validation: config "
                f"digests to {expected!r}, file claims {artifact.get('run_id')!r}"
            )
        return artifact

    def readable_artifacts(self) -> List[Dict[str, Any]]:
        """Every artifact :meth:`load_artifact` accepts, in run-id order.

        A report over the whole store reads these and skips the rest
        (say, an artifact whose config names a field that no longer
        exists).
        """
        artifacts: List[Dict[str, Any]] = []
        for run_id in self.list_run_ids():
            try:
                artifacts.append(self.load_artifact(run_id))
            except StoreError:
                continue
        return artifacts

    def load_result(
        self, key: Union[str, ExperimentConfig]
    ) -> ExperimentResult:
        """Load the :class:`ExperimentResult` for a run id or config."""
        run_id = key if isinstance(key, str) else run_id_for(key)
        artifact = self.load_artifact(run_id)
        return ExperimentResult.from_dict(artifact["result"])

    # -- writing --------------------------------------------------------------------

    def save_result(
        self, result: ExperimentResult, wall_clock_s: Optional[float] = None
    ) -> pathlib.Path:
        """Persist one run atomically; returns the artifact path."""
        run_id = run_id_for(result.config)
        artifact = {
            "schema": RUN_SCHEMA_VERSION,
            "run_id": run_id,
            "config_digest": config_digest(result.config),
            "label": result.config.label(),
            "wall_clock_s": wall_clock_s,
            "result": result.to_dict(),
        }
        path = self.path_for(run_id)
        self.root.mkdir(parents=True, exist_ok=True)
        write_atomic(path, (canonical_json(artifact), "\n"))
        return path
