"""The service-fleet campaign runner: bit-identical to the in-process loop."""

from __future__ import annotations

import pytest

from repro.campaign.scheduler import CampaignScheduler, StreamingIngestor
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import CampaignState
from repro.campaign.worker import WorkerResult, run_job
from repro.service.scheduler import ServiceCampaignScheduler


def small_spec(**overrides):
    params = dict(targets=("gadgets",), tools=("teapot",),
                  iterations=30, rounds=2, shards=2, seed=13, workers=2)
    params.update(overrides)
    return CampaignSpec(**params)


@pytest.fixture(scope="module")
def serial_summary():
    return CampaignScheduler(small_spec()).run()


def test_service_scheduler_matches_serial(serial_summary):
    summary = ServiceCampaignScheduler(small_spec()).run()
    assert summary.to_dict() == serial_summary.to_dict()


def test_service_scheduler_multi_variant_matches_serial():
    spec = small_spec(spec_variants=("pht", "btb"), iterations=40)
    serial = CampaignScheduler(spec).run()
    service = ServiceCampaignScheduler(spec).run()
    assert service.to_dict() == serial.to_dict()
    assert service.row("gadgets", "teapot").by_variant == \
        serial.row("gadgets", "teapot").by_variant


def test_service_resumes_a_batch_checkpoint(tmp_path, serial_summary):
    """Cross-runner resume: round 1 in-process, round 2 via the service."""
    spec = small_spec()
    ckpt = str(tmp_path / "campaign.json")
    scheduler = CampaignScheduler(spec, checkpoint_path=ckpt)

    def abort_on_round_2(message):
        if message.startswith("round 2"):
            raise KeyboardInterrupt
    scheduler._progress = abort_on_round_2
    with pytest.raises(KeyboardInterrupt):
        scheduler.run()
    assert CampaignState.load(ckpt).completed_rounds == 1

    resumed = ServiceCampaignScheduler(spec, checkpoint_path=ckpt).run(
        resume=True)
    assert resumed.to_dict() == serial_summary.to_dict()


def test_ingestor_buffers_out_of_order_results():
    """Arrival order never changes the merged state — only job order does."""
    spec = small_spec(rounds=1)
    jobs = spec.jobs_for_round(0)
    assert len(jobs) == 2
    results = [run_job(job) for job in jobs]

    def ingest(arrival_order):
        state = CampaignState(fingerprint=spec.fingerprint(),
                              spec_dict=spec.to_dict())
        ingestor = StreamingIngestor(state)
        ingestor.begin_round(jobs)
        merged_per_offer = [ingestor.offer(results[i])
                            for i in arrival_order]
        ingestor.finish_round()
        return state, merged_per_offer

    in_order, merged_a = ingest([0, 1])
    reversed_arrival, merged_b = ingest([1, 0])
    assert merged_a == [1, 1]   # each arrival merged immediately
    assert merged_b == [0, 2]   # held back, then the whole prefix at once
    assert in_order.to_dict() == reversed_arrival.to_dict()
    assert in_order.completed_rounds == 1


def test_ingestor_enforces_round_protocol():
    spec = small_spec(rounds=1)
    jobs = spec.jobs_for_round(0)
    state = CampaignState(fingerprint=spec.fingerprint(),
                          spec_dict=spec.to_dict())
    ingestor = StreamingIngestor(state)
    ingestor.begin_round(jobs)
    with pytest.raises(RuntimeError, match="unmerged"):
        ingestor.begin_round(jobs)
    with pytest.raises(RuntimeError, match="round incomplete"):
        ingestor.finish_round()


def test_ingestor_records_failed_jobs():
    spec = small_spec(rounds=1, shards=1)
    jobs = spec.jobs_for_round(0)
    state = CampaignState(fingerprint=spec.fingerprint(),
                          spec_dict=spec.to_dict())
    ingestor = StreamingIngestor(state)
    ingestor.begin_round(jobs)
    job = jobs[0]
    ingestor.offer(WorkerResult(
        job_id=job.job_id, target=job.target, tool=job.tool,
        variant=job.variant, shard=job.shard, round_index=job.round_index,
        error="RuntimeError: injected"))
    ingestor.finish_round()
    assert state.group_stats(job.group).failed_jobs == 1
    assert state.group_stats(job.group).executions == 0
