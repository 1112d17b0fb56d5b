"""Worker telemetry across the fork boundary: counts and bit-identity."""

from __future__ import annotations

import json

from repro.campaign.scheduler import CampaignScheduler, run_campaign
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import GroupStats
from repro.campaign.worker import WorkerResult
from repro.service.scheduler import ServiceCampaignScheduler
from repro.service.worker import _child_attempt
from repro.telemetry import Telemetry
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


def test_child_attempt_returns_job_counts():
    # What a service worker's child runs per job: under a fresh
    # registry-only bundle, returning the per-job counter deltas.
    job = JobSpec(target="gadgets", tool="teapot", variant="vanilla",
                  shard=0, round_index=0, iterations=10, seed=13)
    status, record = _child_attempt(job, None, True)
    assert status == "ok"
    result = WorkerResult.from_dict(record)
    assert result.error == ""
    assert result.telemetry_counts["fuzz.executions"] == 10
    assert result.telemetry_counts["engine.executions"] == 10
    # Without a session the child counts nothing.
    status, record = _child_attempt(job, None, False)
    assert WorkerResult.from_dict(record).telemetry_counts == {}


def test_serial_campaign_counts_stay_in_parent_registry():
    # The in-process loop runs jobs here: the parent registry
    # counts live and WorkerResult.telemetry_counts stays empty (no
    # double counting).
    telemetry = Telemetry()
    with telemetry_session(telemetry):
        summary = CampaignScheduler(small_spec()).run()
    assert telemetry.registry.counter("fuzz.executions").value == 30
    assert telemetry.registry.counter("campaign.executions").value == 30
    assert summary.groups[0].telemetry_counts == {}


def test_pool_campaign_merges_worker_counters_into_parent():
    telemetry = Telemetry()
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
    assert group.telemetry_counts["engine.executions"] == 30
    assert group.telemetry_counts == {
        name: counter.value
        for name, counter in registry.counters().items()
        if name.startswith(("fuzz.", "engine.")) and counter.value}


def test_pool_campaign_results_identical_with_and_without_telemetry():
    plain = run_campaign(small_spec(workers=2))
    telemetry = Telemetry()
    with telemetry_session(telemetry):
        observed = run_campaign(small_spec(workers=2))
    # Observation-only: the summary artifact is bit-identical, and the
    # runtime-only telemetry_counts never leak into the serialized form.
    assert observed.to_dict() == plain.to_dict()
    assert "telemetry_counts" not in json.dumps(observed.to_dict())


def test_service_campaign_counts_match_serial_under_a_session():
    # Service jobs run in forked children, where the session reads None;
    # their counter deltas must still reach the session, once each, and
    # the campaign.* counters of the driver land there too, once each.
    def counts(runner):
        telemetry = Telemetry()
        with telemetry_session(telemetry):
            runner(small_spec(workers=2)).run()
        # Children report non-zero deltas only, and the jit cache
        # statistics (engine.jit.cache.*) only exist out of process.
        return {name: counter.value
                for name, counter in telemetry.registry.counters().items()
                if counter.value
                and name.startswith(("fuzz.", "engine.", "campaign."))
                and not name.startswith("engine.jit.cache.")}

    serial = counts(CampaignScheduler)
    assert serial["fuzz.executions"] == 30
    assert serial["campaign.executions"] == 30
    assert serial["campaign.jobs_done"] == 4  # 2 shards x 2 rounds
    assert counts(ServiceCampaignScheduler) == serial
