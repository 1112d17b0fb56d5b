"""Run registry: manifest round-trip, snapshots, listing and gc."""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from repro._version import __version__
from repro.telemetry import Telemetry
from repro.telemetry.runs import (
    RUN_KIND,
    RUN_SCHEMA_VERSION,
    RunDirectory,
    RunRegistry,
    RunSchemaError,
    config_digest,
    format_runs_table,
)


def test_manifest_round_trip(tmp_path):
    config = {"iterations": 200, "seed": 0}
    run = RunDirectory.create(
        root=str(tmp_path), command="campaign", target="jsmn", engine="jit",
        variants=["pht", "btb"], config=config, extra={"fingerprint": "abc"})
    manifest = run.manifest()
    assert manifest["kind"] == RUN_KIND
    assert manifest["schema_version"] == RUN_SCHEMA_VERSION
    assert manifest["run_id"] == run.run_id
    assert manifest["version"] == __version__
    assert manifest["status"] == "running"
    assert manifest["command"] == "campaign"
    assert manifest["target"] == "jsmn"
    assert manifest["engine"] == "jit"
    assert manifest["variants"] == ["pht", "btb"]
    assert manifest["config"] == config
    assert manifest["config_digest"] == config_digest(config)
    assert manifest["fingerprint"] == "abc"
    # Identical configurations digest identically; any change diverges.
    assert config_digest({"seed": 0, "iterations": 200}) == \
        manifest["config_digest"]
    assert config_digest({"iterations": 201, "seed": 0}) != \
        manifest["config_digest"]


def test_finalize_stamps_status_and_finish_time(tmp_path):
    run = RunDirectory.create(root=str(tmp_path), command="campaign")
    run.finalize(status="completed", rounds=4)
    manifest = run.manifest()
    assert manifest["status"] == "completed"
    assert manifest["rounds"] == 4
    assert manifest["finished_at"].endswith("Z")


def test_same_second_runs_get_disambiguating_suffixes(tmp_path):
    first = RunDirectory.create(root=str(tmp_path), run_id="fixed")
    second = RunDirectory.create(root=str(tmp_path), run_id="fixed")
    assert first.run_id == "fixed"
    assert second.run_id == "fixed.1"
    assert os.path.isdir(second.path)


def test_concurrent_runs_with_one_id_get_distinct_directories(tmp_path):
    """Runs created at once under one id (two submits in the same second)
    each claim their own directory."""
    workers, per_worker = 16, 8
    barrier = threading.Barrier(workers)
    runs, errors = [], []

    def create():
        try:
            barrier.wait(timeout=10)
            for _ in range(per_worker):
                runs.append(RunDirectory.create(root=str(tmp_path),
                                                run_id="fixed"))
        except Exception as error:  # reported by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=create) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len({run.path for run in runs}) == workers * per_worker
    for run in runs:
        assert run.manifest()["run_id"] == os.path.basename(run.path)


def test_foreign_manifest_is_rejected(tmp_path):
    run = RunDirectory.create(root=str(tmp_path))
    with open(run.manifest_path, "w", encoding="utf-8") as handle:
        json.dump({"kind": "something/else", "schema_version": 1}, handle)
    with pytest.raises(RunSchemaError, match="not a repro.telemetry/run"):
        run.manifest()
    with open(run.manifest_path, "w", encoding="utf-8") as handle:
        json.dump({"kind": RUN_KIND,
                   "schema_version": RUN_SCHEMA_VERSION + 1}, handle)
    with pytest.raises(RunSchemaError, match="unsupported"):
        run.manifest()


def test_metrics_snapshots_record_types_and_live_counts(tmp_path):
    run = RunDirectory.create(root=str(tmp_path))
    assert run.live_counts() == {}  # before the first snapshot
    bundle = Telemetry()
    bundle.registry.counter("fuzz.executions").inc(10)
    bundle.registry.gauge("fuzz.corpus_size").set(4)
    bundle.registry.histogram("fuzz.exec_s").observe(0.5)
    run.write_metrics_snapshot(bundle)
    snapshot = run.latest_metrics()
    assert snapshot["seq"] == 1
    assert snapshot["metrics"]["fuzz.executions"] == 10
    assert snapshot["types"]["fuzz.executions"] == "counter"
    assert snapshot["types"]["fuzz.corpus_size"] == "gauge"
    assert "spool_offset" not in snapshot
    # live_counts = the latest snapshot's numbers (histograms left out).
    bundle.registry.counter("fuzz.executions").inc(5)
    second = run.write_metrics_snapshot(bundle)
    assert run.live_counts() == {"fuzz.corpus_size": 4,
                                 "fuzz.executions": 15}
    # An unchanged registry writes no further snapshot.
    assert run.write_metrics_snapshot(bundle) == second
    assert run.snapshot_seq == 2
    assert sorted(os.listdir(run.metrics_dir)) == [
        "latest.json", "snapshot-000001.json", "snapshot-000002.json"]
    # Snapshots written by older versions carry a spool offset: ignored.
    with open(os.path.join(run.metrics_dir, "latest.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"seq": 3, "metrics": {"fuzz.executions": 20},
                   "spool_offset": 123}, handle)
    assert run.live_counts() == {"fuzz.executions": 20}


def test_registry_lists_newest_first_and_skips_foreign_dirs(tmp_path):
    registry = RunRegistry(str(tmp_path))
    registry.create_run(run_id="20260101-000000-1", command="campaign")
    registry.create_run(run_id="20260102-000000-1", command="fuzz")
    os.makedirs(tmp_path / "not-a-run")
    manifests = registry.list_manifests()
    assert [m["run_id"] for m in manifests] == [
        "20260102-000000-1", "20260101-000000-1"]
    table = format_runs_table(manifests)
    assert "20260102-000000-1" in table.splitlines()[2]
    assert registry.get("20260101-000000-1").run_id == "20260101-000000-1"
    with pytest.raises(KeyError):
        registry.get("missing")


def test_gc_keeps_newest_and_never_touches_running_runs(tmp_path):
    registry = RunRegistry(str(tmp_path))
    for index in range(4):
        run = registry.create_run(run_id=f"2026010{index}-000000-1")
        if index > 0:
            run.finalize(status="completed")
    # run 0 oldest..run 3 newest; run 0 is still "running".
    would = registry.gc(keep=1, dry_run=True)
    assert would == ["20260101-000000-1", "20260102-000000-1"]
    assert len(registry.runs()) == 4  # dry run removed nothing
    removed = registry.gc(keep=1)
    assert removed == would
    left = [run.run_id for run in registry.runs()]
    assert left == ["20260103-000000-1", "20260100-000000-1"]


def test_empty_registry_is_harmless(tmp_path):
    registry = RunRegistry(str(tmp_path / "never-created"))
    assert registry.runs() == []
    assert registry.list_manifests() == []
    assert registry.gc() == []
    assert format_runs_table([]) == "no runs recorded"


#: Manifests that are not run records: whole-record shapes and
#: ``schema_version`` values that are not an int (``bool`` is no number).
DAMAGED_MANIFESTS = {
    "list": "[]", "string": '"x"', "number": "3", "null": "null",
    "not_json": "{not json", "not_utf8": b"\xff\xfe",
    "version_string": {"schema_version": "x"},
    "version_null": {"schema_version": None},
    "version_list": {"schema_version": [1]},
    "version_bool": {"schema_version": True},
    "version_float": {"schema_version": 1.5},
}


def _damage_manifest(run: RunDirectory, shape) -> None:
    if isinstance(shape, dict):
        shape = json.dumps(dict({"kind": RUN_KIND}, **shape))
    if isinstance(shape, str):
        shape = shape.encode("utf-8")
    with open(run.manifest_path, "wb") as handle:
        handle.write(shape)


@pytest.mark.parametrize("shape", sorted(DAMAGED_MANIFESTS))
def test_damaged_manifest_is_a_schema_error(tmp_path, shape):
    registry = RunRegistry(str(tmp_path))
    good = registry.create_run(run_id="20260101-000000-1", command="fuzz")
    good.finalize(status="completed")
    bad = registry.create_run(run_id="20260102-000000-1")
    _damage_manifest(bad, DAMAGED_MANIFESTS[shape])
    with pytest.raises(RunSchemaError):
        bad.manifest()
    # the listing skips it, and gc counts it as a finished run of unknown
    # status
    assert [m["run_id"] for m in registry.list_manifests()] == [good.run_id]
    assert registry._status(bad) == "unknown"
    assert registry.gc(keep=1, dry_run=True) == [good.run_id]


def test_runs_cli_survives_a_damaged_manifest(tmp_path, capsys):
    from repro.api.cli import main

    registry = RunRegistry(str(tmp_path))
    good = registry.create_run(run_id="20260101-000000-1", command="fuzz")
    bad = registry.create_run(run_id="20260102-000000-1")
    _damage_manifest(bad, "[]")
    root = ["--root", str(tmp_path)]
    assert main(["runs", "list"] + root) == 0
    assert good.run_id in capsys.readouterr().out
    assert main(["runs", "show", bad.run_id] + root) == 2
    assert capsys.readouterr().err == (
        "error: record: not a JSON object\n")
