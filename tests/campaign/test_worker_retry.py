"""Per-job timeouts and bounded retries in the campaign worker path."""

from __future__ import annotations

import os
import threading
import time

import pytest

import repro.campaign.worker as worker_module
from repro.campaign.scheduler import CampaignScheduler, run_campaign
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.worker import JobTimeoutError, WorkerResult, execute_task


def _spec(**overrides):
    params = dict(targets=("gadgets",), tools=("teapot",),
                  variants=("vanilla",), iterations=20, rounds=1, shards=1,
                  seed=3)
    params.update(overrides)
    return CampaignSpec(**params)


def _job(**overrides):
    params = dict(target="gadgets", tool="teapot", iterations=5, seed=1)
    params.update(overrides)
    return JobSpec(**params)


def _ok_result(job):
    return WorkerResult(job_id=job.job_id, target=job.target, tool=job.tool,
                        variant=job.variant, shard=job.shard,
                        round_index=job.round_index, executions=5)


def test_retry_recovers_from_transient_failure(monkeypatch):
    calls = []

    def flaky(job, seeds=None):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("transient")
        return _ok_result(job)

    monkeypatch.setattr(worker_module, "run_job", flaky)
    monkeypatch.setattr(time, "sleep", lambda s: None)
    result = execute_task((_job(max_attempts=3, retry_backoff_s=0.01), None))
    assert result.error == ""
    assert result.executions == 5
    assert len(calls) == 2


def test_retry_budget_is_bounded_and_reported(monkeypatch):
    calls = []

    def always_fails(job, seeds=None):
        calls.append(1)
        raise RuntimeError("persistent")

    monkeypatch.setattr(worker_module, "run_job", always_fails)
    monkeypatch.setattr(time, "sleep", lambda s: None)
    result = execute_task((_job(max_attempts=3, retry_backoff_s=0.01), None))
    assert len(calls) == 3
    assert result.error == "RuntimeError: persistent (after 3 attempts)"
    assert "persistent" in result.traceback


def test_retry_backoff_is_exponential(monkeypatch):
    sleeps = []

    def always_fails(job, seeds=None):
        raise RuntimeError("nope")

    monkeypatch.setattr(worker_module, "run_job", always_fails)
    monkeypatch.setattr(time, "sleep", sleeps.append)
    execute_task((_job(max_attempts=4, retry_backoff_s=0.5), None))
    assert sleeps == [0.5, 1.0, 2.0]  # backoff * 2**(attempt-1)


def _live_children():
    """Pids of this process's children, zombies included (Linux)."""
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            children.add(int(entry))
    return children


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_pool_timeout_kills_a_spinning_job_at_one_worker(monkeypatch):
    # A job timeout sends even a single-worker campaign to worker
    # processes: a job that never returns is stopped at its deadline, not
    # abandoned on a thread that keeps spinning in the caller's process.
    real_run_job = worker_module.run_job

    def spins_on_shard_0(job, seeds=None):
        if job.shard == 0:
            while True:
                pass
        return real_run_job(job, seeds)

    monkeypatch.setattr(worker_module, "run_job", spins_on_shard_0)
    threads_before = threading.active_count()
    children_before = _live_children()
    messages = []
    summary = run_campaign(
        _spec(shards=3, workers=1, job_timeout_s=0.5),
        progress=messages.append)
    failures = [m for m in messages if "FAILED" in m]
    assert len(failures) == 1
    assert (f"{JobTimeoutError.__name__}: job exceeded its 0.5s "
            "wall-clock budget") in failures[0]
    group = summary.groups[0]
    assert group.failed_jobs == 1
    assert group.executions > 0  # the other two shards completed
    assert threading.active_count() == threads_before
    assert _live_children() <= children_before


def test_serial_scheduler_refuses_job_timeouts():
    with pytest.raises(ValueError, match="cannot enforce a job timeout"):
        CampaignScheduler(_spec(job_timeout_s=1.0)).run()


def test_profiled_pool_campaign_refuses_job_timeouts():
    # A profiled session keeps the fuzzing in this process, where a job
    # cannot be stopped at a deadline.
    from repro.telemetry import EngineProfiler, Telemetry
    from repro.telemetry.context import session

    with session(Telemetry(profiler=EngineProfiler())):
        with pytest.raises(ValueError, match="cannot enforce a job timeout"):
            run_campaign(_spec(job_timeout_s=1.0))


def test_spec_threads_robustness_knobs_into_jobs():
    spec = _spec(job_timeout_s=2.5, job_max_attempts=3,
                 job_retry_backoff_s=0.25)
    job = spec.jobs_for_round(0)[0]
    assert job.timeout_s == 2.5
    assert job.max_attempts == 3
    assert job.retry_backoff_s == 0.25


def test_robustness_knobs_do_not_change_fingerprint_or_old_checkpoints():
    plain = _spec()
    tuned = _spec(job_timeout_s=9.0, job_max_attempts=4,
                  job_retry_backoff_s=1.5)
    assert plain.fingerprint() == tuned.fingerprint()
    # Default knobs stay out of the serialized form entirely, so
    # pre-existing checkpoints remain byte-identical.
    record = plain.to_dict()
    assert "job_timeout_s" not in record
    assert "job_max_attempts" not in record
    assert "job_retry_backoff_s" not in record
    assert CampaignSpec.from_dict(tuned.to_dict()) == tuned


def test_job_spec_round_trips_with_and_without_knobs():
    plain = _job()
    record = plain.to_dict()
    assert "timeout_s" not in record
    assert "max_attempts" not in record
    assert JobSpec.from_dict(record) == plain
    tuned = _job(timeout_s=1.0, max_attempts=2, retry_backoff_s=0.1)
    assert JobSpec.from_dict(tuned.to_dict()) == tuned


def test_spec_validates_robustness_knobs():
    with pytest.raises(ValueError, match="job_timeout_s"):
        _spec(job_timeout_s=-1.0)
    with pytest.raises(ValueError, match="job_max_attempts"):
        _spec(job_max_attempts=0)
    with pytest.raises(ValueError, match="job_retry_backoff_s"):
        _spec(job_retry_backoff_s=-0.5)
