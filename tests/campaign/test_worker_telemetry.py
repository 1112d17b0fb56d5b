"""Worker telemetry across the fork boundary: counts, spool, bit-identity."""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign.scheduler import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import GroupStats
from repro.campaign.worker import WorkerResult, execute_task
from repro.campaign.spec import JobSpec
from repro.telemetry import MetricsSpool, Telemetry
from repro.telemetry import spool as telemetry_spool
from repro.telemetry.context import session as telemetry_session


def small_spec(**overrides):
    params = dict(targets=("gadgets",), tools=("teapot",),
                  iterations=30, rounds=2, shards=2, seed=13, workers=1)
    params.update(overrides)
    return CampaignSpec(**params)


def test_worker_result_round_trips_telemetry_counts():
    result = WorkerResult(job_id="j", target="gadgets", tool="teapot",
                          variant="vanilla", shard=0, round_index=0,
                          telemetry_counts={"fuzz.executions": 15,
                                            "engine.jit.cache.memo_hits": 2})
    record = json.loads(json.dumps(result.to_dict()))
    back = WorkerResult.from_dict(record)
    assert back.telemetry_counts == result.telemetry_counts
    # Pre-PR-8 records (no telemetry_counts key) deserialize empty.
    del record["telemetry_counts"]
    assert WorkerResult.from_dict(record).telemetry_counts == {}


def test_group_stats_checkpoint_omits_empty_telemetry_counts():
    stats = GroupStats()
    assert "telemetry_counts" not in stats.to_dict()
    stats.telemetry_counts["fuzz.executions"] = 30
    record = stats.to_dict()
    assert record["telemetry_counts"] == {"fuzz.executions": 30}
    assert GroupStats.from_dict(record).telemetry_counts == {
        "fuzz.executions": 30}


def test_simulated_forked_worker_spools_job_counts(tmp_path, monkeypatch):
    # execute_task in a "forked child" (pid differs from the enabler's)
    # must run the job under a fresh registry bundle, return the per-job
    # counter deltas and append them to the spool.
    spool_path = str(tmp_path / "spool.jsonl")
    telemetry_spool.enable(spool_path)
    monkeypatch.setattr(telemetry_spool, "_PARENT_PID", os.getpid() + 1)
    try:
        job = JobSpec(target="gadgets", tool="teapot", variant="vanilla",
                      shard=0, round_index=0, iterations=10, seed=13)
        result = execute_task((job, None))
    finally:
        telemetry_spool.disable()
    assert result.error == ""
    assert result.telemetry_counts["fuzz.executions"] == 10
    assert result.telemetry_counts["engine.executions"] == 10
    records, _ = telemetry_spool.read_records(spool_path)
    assert len(records) == 1
    assert records[0]["job_id"] == job.job_id
    assert records[0]["counts"] == result.telemetry_counts


def test_serial_campaign_counts_stay_in_parent_registry(tmp_path):
    # workers=1 runs jobs in-process: the parent registry counts live and
    # WorkerResult.telemetry_counts stays empty (no double counting).
    telemetry = Telemetry()
    telemetry.spool = MetricsSpool(str(tmp_path / "spool.jsonl"))
    with telemetry_session(telemetry):
        summary = run_campaign(small_spec())
    assert telemetry.registry.counter("fuzz.executions").value == 30
    assert telemetry.registry.counter("campaign.executions").value == 30
    assert summary.groups[0].telemetry_counts == {}
    assert os.path.getsize(telemetry.spool.path) == 0


def test_pool_campaign_merges_worker_counters_into_parent(tmp_path):
    telemetry = Telemetry()
    telemetry.spool = MetricsSpool(str(tmp_path / "spool.jsonl"))
    with telemetry_session(telemetry):
        summary = run_campaign(small_spec(workers=2))
    registry = telemetry.registry
    # Worker-side engine/fuzz counters surfaced into the campaign totals.
    assert registry.counter("fuzz.executions").value == 30
    assert registry.counter("engine.executions").value == 30
    assert registry.counter("engine.simulations").value > 0
    assert registry.counter("campaign.executions").value == 30
    # The merged per-group counts rode home in the summary too.
    group = summary.groups[0]
    assert group.telemetry_counts["fuzz.executions"] == 30
    # Every worker job left a spool record, all consumed by round merges.
    records, _ = telemetry_spool.read_records(telemetry.spool.path)
    assert len(records) == 4  # 2 shards x 2 rounds
    assert telemetry.spool.unconsumed() == {}


def test_pool_campaign_results_identical_with_and_without_telemetry(tmp_path):
    plain = run_campaign(small_spec(workers=2))
    telemetry = Telemetry()
    telemetry.spool = MetricsSpool(str(tmp_path / "spool.jsonl"))
    with telemetry_session(telemetry):
        observed = run_campaign(small_spec(workers=2))
    # Observation-only: the summary artifact is bit-identical, and the
    # runtime-only telemetry_counts never leak into the serialized form.
    assert observed.to_dict() == plain.to_dict()
    assert "telemetry_counts" not in json.dumps(observed.to_dict())


def test_service_campaign_counts_match_serial_under_a_session():
    # Service jobs run in forked children, where the session reads None;
    # their counter deltas must still reach the session, once each.
    def counts(scheduler):
        telemetry = Telemetry()
        with telemetry_session(telemetry):
            run_campaign(small_spec(workers=2), scheduler=scheduler)
        # Children report non-zero deltas only, and the jit cache
        # statistics (engine.jit.cache.*) only exist out of process.
        return {name: counter.value
                for name, counter in telemetry.registry.counters().items()
                if counter.value and name.startswith(("fuzz.", "engine."))
                and not name.startswith("engine.jit.cache.")}

    serial = counts("serial")
    assert serial["fuzz.executions"] == 30
    assert counts("service") == serial
