"""The durable run registry: one directory per campaign/pipeline run.

A :class:`RunDirectory` is the on-disk record of one run::

    runs/<run-id>/
        manifest.json        # kind/schema tags, identity, status, digest
        trace.jsonl          # span/event trace (repro.telemetry/trace v1)
        metrics/
            snapshot-000001.json   # periodic registry snapshots
            latest.json            # atomically updated copy of the newest
        result.json          # final RunResult artifact (repro.api/run-result)

The manifest follows the repo-wide versioned-artifact pattern (``kind`` +
``schema_version`` headers); its ``config_digest`` is a sha256 over the
canonical JSON of the run's configuration, so two runs of the same setup
are recognizably siblings.  A campaign rewrites its latest metrics
snapshot whenever a round closes, which lets a *separate* process
(``repro top RUN_DIR``, ``repro runs show``) read live totals.

The :class:`RunRegistry` scans a root directory (default ``runs/``) and
backs the ``repro runs list/show/gc`` commands.  Everything here is
observation-only bookkeeping — a run behaves identically with or without
a run directory attached.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Dict, List, Optional

from repro._version import __version__
from repro.records import REQUIRED, check_fields, write_atomic

#: Artifact type tag of ``manifest.json``.
RUN_KIND = "repro.telemetry/run"
#: Bump on any backwards-incompatible manifest layout change.
RUN_SCHEMA_VERSION = 1

#: Default registry root (relative to the working directory).
DEFAULT_RUNS_ROOT = "runs"


class RunSchemaError(ValueError):
    """Raised when a loaded manifest is not a compatible run record."""


def config_digest(config: Dict[str, object]) -> str:
    """sha256 over the canonical JSON form of a configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _utc_stamp(when: Optional[float] = None) -> str:
    """ISO-8601 UTC timestamp (second precision)."""
    moment = time.time() if when is None else when
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(moment))


def _new_run_id() -> str:
    """A sortable, collision-resistant run id: UTC time + pid."""
    return time.strftime("%Y%m%d-%H%M%S", time.gmtime()) + f"-{os.getpid()}"


def _atomic_write_json(path: str, record: Dict[str, object]) -> None:
    write_atomic(path, json.dumps(record, indent=1, sort_keys=True) + "\n")


class RunDirectory:
    """One run's durable directory: manifest, trace, snapshots, result."""

    def __init__(self, path: str) -> None:
        self.path = os.path.abspath(path)
        self.run_id = os.path.basename(self.path)
        #: metrics snapshots this object has written.
        self.snapshot_seq = 0
        #: the last snapshot written: ``(metrics, types, path)``.
        self._last_snapshot: Optional[tuple] = None

    # -- layout -------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.path, "manifest.json")

    @property
    def trace_path(self) -> str:
        return os.path.join(self.path, "trace.jsonl")

    @property
    def metrics_dir(self) -> str:
        return os.path.join(self.path, "metrics")

    @property
    def result_path(self) -> str:
        return os.path.join(self.path, "result.json")

    # -- creation -----------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: str = DEFAULT_RUNS_ROOT,
        run_id: Optional[str] = None,
        command: str = "",
        target: Optional[str] = None,
        engine: Optional[str] = None,
        variants: Optional[List[str]] = None,
        config: Optional[Dict[str, object]] = None,
        extra: Optional[Dict[str, object]] = None,
    ) -> "RunDirectory":
        """Allocate a fresh run directory and write its manifest.

        ``config`` is any JSON-able mapping describing the run (a campaign
        spec dict, pipeline options, ...); only its digest and the mapping
        itself land in the manifest.
        """
        base_id = run_id or _new_run_id()
        os.makedirs(root, exist_ok=True)
        suffix = 0
        while True:
            run_id = f"{base_id}.{suffix}" if suffix else base_id
            path = os.path.join(root, run_id)
            try:
                # mkdir is the atomic claim: of two runs created in the
                # same second (concurrent submits), exactly one gets each
                # name and the other moves on to the next suffix.
                os.mkdir(path)
                break
            except FileExistsError:
                suffix += 1
        run = cls(path)
        os.makedirs(run.metrics_dir, exist_ok=True)
        manifest: Dict[str, object] = {
            "kind": RUN_KIND,
            "schema_version": RUN_SCHEMA_VERSION,
            "run_id": run_id,
            "version": __version__,
            "created_at": _utc_stamp(),
            "pid": os.getpid(),
            "command": command,
            "target": target,
            "engine": engine,
            "variants": list(variants) if variants is not None else [],
            "config": dict(config) if config is not None else {},
            "config_digest": config_digest(config or {}),
            "status": "running",
        }
        if extra:
            manifest.update(extra)
        _atomic_write_json(run.manifest_path, manifest)
        return run

    # -- manifest -----------------------------------------------------------
    def manifest(self) -> Dict[str, object]:
        """Load and validate ``manifest.json``.

        Raises:
            RunSchemaError: unreadable, not a JSON object, or missing or
            incompatible kind or schema tags.
        """
        try:
            with open(self.manifest_path, "rb") as handle:
                text = handle.read()
        except OSError as error:
            raise RunSchemaError(
                f"unreadable run manifest {self.manifest_path}: {error}")
        record = check_fields(text, {"kind": (str, REQUIRED),
                                     "schema_version": (int, REQUIRED)},
                              RunSchemaError)
        if record["kind"] != RUN_KIND:
            raise RunSchemaError(
                f"not a {RUN_KIND} manifest (kind={record['kind']!r})")
        version = record["schema_version"]
        if version < 1 or version > RUN_SCHEMA_VERSION:
            raise RunSchemaError(
                f"unsupported run schema_version {version} "
                f"(this library understands 1..{RUN_SCHEMA_VERSION})")
        return record

    def update_manifest(self, **fields: object) -> Dict[str, object]:
        """Merge fields into the manifest (atomic rewrite)."""
        record = self.manifest()
        record.update(fields)
        _atomic_write_json(self.manifest_path, record)
        return record

    def finalize(self, status: str = "completed",
                 **fields: object) -> Dict[str, object]:
        """Stamp the run's terminal status and finish time."""
        return self.update_manifest(status=status,
                                    finished_at=_utc_stamp(), **fields)

    # -- metrics snapshots ---------------------------------------------------
    def write_metrics_snapshot(self, telemetry) -> str:
        """Persist one registry snapshot; returns its path.

        Called by the campaign round loop when a round closes and by
        pipeline sessions and the campaign CLI at the end of a run.  A
        snapshot equal to the last one this object wrote (same metrics,
        same types) is not written again: its path is returned.
        """
        registry = telemetry.registry
        types: Dict[str, str] = {}
        for name in registry.counters():
            types[name] = "counter"
        for name in registry.gauges():
            types[name] = "gauge"
        for name in registry.histograms():
            types[name] = "histogram"
        metrics = registry.snapshot()
        types = dict(sorted(types.items()))
        last = self._last_snapshot
        if last is not None and last[:2] == (metrics, types):
            return last[2]
        self.snapshot_seq += 1
        record: Dict[str, object] = {
            "seq": self.snapshot_seq,
            "at": _utc_stamp(),
            "metrics": metrics,
            "types": types,
        }
        os.makedirs(self.metrics_dir, exist_ok=True)
        path = os.path.join(self.metrics_dir,
                            f"snapshot-{self.snapshot_seq:06d}.json")
        _atomic_write_json(path, record)
        _atomic_write_json(os.path.join(self.metrics_dir, "latest.json"),
                           record)
        self._last_snapshot = (metrics, types, path)
        return path

    def latest_metrics(self) -> Optional[Dict[str, object]]:
        """The newest metrics snapshot (None before the first write)."""
        path = os.path.join(self.metrics_dir, "latest.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def live_counts(self) -> Dict[str, object]:
        """The counters and gauges of the latest snapshot.

        What ``repro top`` and ``repro runs show`` read while the run
        records in another process.  A ``spool_offset`` in snapshots
        written by older versions is ignored.
        """
        snapshot = self.latest_metrics() or {}
        return {name: value
                for name, value in sorted(snapshot.get("metrics", {}).items())
                if isinstance(value, (int, float))}

    # -- result -------------------------------------------------------------
    def write_result(self, result) -> str:
        """Store the final :class:`repro.api.RunResult` artifact."""
        result.save(self.result_path)
        return self.result_path


class RunRegistry:
    """Scan/list/prune the run directories under one root."""

    def __init__(self, root: str = DEFAULT_RUNS_ROOT) -> None:
        self.root = root

    def create_run(self, **kwargs) -> RunDirectory:
        """Allocate a new run directory (see :meth:`RunDirectory.create`)."""
        return RunDirectory.create(root=self.root, **kwargs)

    def get(self, run_id: str) -> RunDirectory:
        """The run directory of one id (raises ``KeyError`` if absent)."""
        path = os.path.join(self.root, run_id)
        if not os.path.isfile(os.path.join(path, "manifest.json")):
            raise KeyError(f"no run {run_id!r} under {self.root}")
        return RunDirectory(path)

    def runs(self) -> List[RunDirectory]:
        """Every valid run directory, newest first (by run id)."""
        try:
            entries = sorted(os.listdir(self.root), reverse=True)
        except OSError:
            return []
        found: List[RunDirectory] = []
        for entry in entries:
            path = os.path.join(self.root, entry)
            if os.path.isfile(os.path.join(path, "manifest.json")):
                found.append(RunDirectory(path))
        return found

    def list_manifests(self) -> List[Dict[str, object]]:
        """Manifests of every readable run, newest first.

        Unreadable/foreign manifests are skipped, not fatal — the
        registry root may contain unrelated directories.
        """
        manifests: List[Dict[str, object]] = []
        for run in self.runs():
            try:
                manifests.append(run.manifest())
            except RunSchemaError:
                continue
        return manifests

    def gc(self, keep: int = 10, dry_run: bool = False) -> List[str]:
        """Delete all but the newest ``keep`` *finished* runs.

        Runs still marked ``running`` are never collected (a live
        campaign must not lose its directory); returns the removed (or,
        with ``dry_run``, would-be-removed) run ids, oldest first.
        """
        finished = [run for run in self.runs()
                    if self._status(run) != "running"]
        victims = finished[keep:] if keep > 0 else finished
        removed: List[str] = []
        for run in reversed(victims):
            removed.append(run.run_id)
            if not dry_run:
                shutil.rmtree(run.path, ignore_errors=True)
        return removed

    @staticmethod
    def _status(run: RunDirectory) -> str:
        try:
            return str(run.manifest().get("status", "unknown"))
        except RunSchemaError:
            return "unknown"


def format_runs_table(manifests: List[Dict[str, object]]) -> str:
    """Render ``repro runs list`` output (one line per run)."""
    if not manifests:
        return "no runs recorded"
    headers = ["run-id", "status", "command", "target", "engine", "created"]
    rows = []
    for manifest in manifests:
        rows.append([
            str(manifest.get("run_id", "?")),
            str(manifest.get("status", "?")),
            str(manifest.get("command", "") or "-"),
            str(manifest.get("target", "") or "-"),
            str(manifest.get("engine", "") or "-"),
            str(manifest.get("created_at", "?")),
        ])
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              for i in range(len(headers))]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)
