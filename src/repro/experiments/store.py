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
        manifest-5a3e1c9b0d12.json         one manifest per sweep

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
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.replication.persistence import write_text_atomic

from .config import ExperimentConfig
from .runner import ExperimentResult

#: Version of the artifact envelope; bump on incompatible layout changes.
RUN_SCHEMA_VERSION = 1

#: Conventional store root, relative to the repository/working directory.
DEFAULT_STORE_ROOT = pathlib.Path("results") / "runs"

_DIGEST_LENGTH = 16
_SWEEP_DIGEST_LENGTH = 12
_SAFE_POLICY = re.compile(r"[^a-z0-9_-]+")


class StoreError(RuntimeError):
    """An artifact is missing, unreadable, or fails content validation."""


def canonical_json(data: Any) -> str:
    """Deterministic JSON used for digests and artifact bodies."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_digest(config: ExperimentConfig) -> str:
    """Hex digest of the canonical serialized config (the content address)."""
    payload = canonical_json(config.to_dict()).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:_DIGEST_LENGTH]


def run_id_for(config: ExperimentConfig) -> str:
    """``<policy>-<digest>`` — readable prefix, content-addressed suffix."""
    policy = _SAFE_POLICY.sub("-", config.policy.lower()) or "run"
    return f"{policy}-{config_digest(config)}"


class RunStore:
    """One directory of run artifacts plus sweep manifests.

    The store is append-mostly and safe to share between sweeps: artifacts
    are keyed purely by config content, so two sweeps whose grids overlap
    share the overlapping runs.
    """

    def __init__(self, root: Union[str, pathlib.Path] = DEFAULT_STORE_ROOT):
        self.root = pathlib.Path(root)

    # -- paths ----------------------------------------------------------------------

    def path_for(self, run_id: str) -> pathlib.Path:
        return self.root / f"{run_id}.json"

    def failure_path_for(self, run_id: str) -> pathlib.Path:
        """Sidecar recording that a run *failed* (timed out, crashed, or
        raised) — distinct from a run that simply never executed."""
        return self.root / f"{run_id}.failed.json"

    def manifest_path(self, sweep_id: str) -> pathlib.Path:
        return self.root / f"manifest-{sweep_id}.json"

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
        return sorted(
            path.stem
            for path in self.root.glob("*.json")
            if not path.name.startswith("manifest-")
            and not path.name.endswith(".failed.json")
        )

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
        path = self._write_atomic(self.path_for(run_id), artifact)
        # A successful run supersedes any stale failure record.
        self.clear_failure(run_id)
        return path

    # -- failure sidecars -----------------------------------------------------------

    def record_failure(
        self,
        run_id: str,
        label: str,
        error: str,
        wall_clock_s: Optional[float] = None,
    ) -> pathlib.Path:
        """Persist a failure sidecar for a run with no artifact.

        A timed-out or crashed worker leaves no result to store; the
        sidecar records *that it failed and why*, so a later
        :meth:`validate_manifest` distinguishes "failed" from "never ran",
        while :meth:`has` still reports the run as absent (resume retries
        it)."""
        payload = {
            "schema": RUN_SCHEMA_VERSION,
            "run_id": run_id,
            "label": label,
            "status": "failed",
            "error": error,
            "wall_clock_s": wall_clock_s,
        }
        return self._write_atomic(self.failure_path_for(run_id), payload)

    def load_failure(self, run_id: str) -> Optional[Dict[str, Any]]:
        """The failure sidecar for ``run_id``, or None if there is none."""
        path = self.failure_path_for(run_id)
        try:
            return json.loads(path.read_text())
        except OSError:
            return None
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt failure sidecar {path}: {exc}") from exc

    def clear_failure(self, run_id: str) -> None:
        try:
            self.failure_path_for(run_id).unlink()
        except OSError:
            pass

    def _write_atomic(
        self, path: pathlib.Path, payload: Dict[str, Any]
    ) -> pathlib.Path:
        self.root.mkdir(parents=True, exist_ok=True)
        write_text_atomic(path, canonical_json(payload) + "\n")
        return path

    # -- manifests ------------------------------------------------------------------

    def write_manifest(
        self, configs: Sequence[ExperimentConfig], workers: int
    ) -> pathlib.Path:
        """Record a sweep's full grid before any run executes.

        The manifest is itself content-addressed by the sorted run ids, so
        re-launching the same grid (the resume path) overwrites the same
        manifest file instead of accumulating duplicates.
        """
        runs = sorted(
            (
                {
                    "run_id": run_id_for(config),
                    "config_digest": config_digest(config),
                    "label": config.label(),
                }
                for config in configs
            ),
            key=lambda entry: entry["run_id"],
        )
        manifest = {
            "schema": RUN_SCHEMA_VERSION,
            "sweep_id": sweep_id_for(entry["run_id"] for entry in runs),
            "workers": workers,
            "runs": runs,
        }
        return self._write_atomic(
            self.manifest_path(manifest["sweep_id"]), manifest
        )

    def load_manifest(self, sweep_id: str) -> Dict[str, Any]:
        path = self.manifest_path(sweep_id)
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"unreadable sweep manifest {path}: {exc}") from exc

    def validate_manifest(self, sweep_id: str) -> Dict[str, str]:
        """Per-run status of a sweep: ``run_id → ok|missing|failed|invalid``.

        ``failed`` means no artifact exists but a failure sidecar does —
        the run executed and died (timeout, crash, exception) rather than
        never having been attempted.
        """
        manifest = self.load_manifest(sweep_id)
        statuses: Dict[str, str] = {}
        for entry in manifest["runs"]:
            run_id = entry["run_id"]
            if not self.path_for(run_id).exists():
                statuses[run_id] = (
                    "failed"
                    if self.failure_path_for(run_id).exists()
                    else "missing"
                )
                continue
            try:
                artifact = self.load_artifact(run_id)
            except StoreError:
                statuses[run_id] = "invalid"
                continue
            matches = artifact["config_digest"] == entry["config_digest"]
            statuses[run_id] = "ok" if matches else "invalid"
        return statuses


def sweep_id_for(run_ids: Iterable[str]) -> str:
    """Digest naming a sweep: the hash of its sorted run ids."""
    payload = canonical_json(sorted(run_ids)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:_SWEEP_DIGEST_LENGTH]
