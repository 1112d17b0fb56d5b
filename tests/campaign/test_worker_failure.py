"""Worker error capture: a raising job fails structurally, not fatally."""

from __future__ import annotations

import pytest

import repro.campaign.worker as worker_module
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.campaign.worker import execute_task
from repro.telemetry import Telemetry, read_trace
from repro.telemetry import context as telemetry_context


def _spec(**overrides):
    params = dict(targets=("gadgets",), tools=("teapot",),
                  variants=("vanilla",), iterations=20, rounds=1, shards=1,
                  seed=3)
    params.update(overrides)
    return CampaignSpec(**params)


def _raise_run_job(job, seeds=None):
    raise RuntimeError("injected worker failure")


def test_execute_task_converts_exceptions_to_error_results(monkeypatch):
    monkeypatch.setattr(worker_module, "run_job", _raise_run_job)
    job = _spec().jobs_for_round(0)[0]
    result = execute_task((job, None))
    assert result.error == "RuntimeError: injected worker failure"
    assert "injected worker failure" in result.traceback
    assert result.job_id == job.job_id
    assert result.executions == 0
    assert result.elapsed_s >= 0


def test_scheduler_counts_failed_jobs_in_summary(monkeypatch):
    monkeypatch.setattr(worker_module, "run_job", _raise_run_job)
    summary = CampaignScheduler(_spec()).run()
    row = summary.row("gadgets", "teapot")
    assert row.failed_jobs == 1
    assert row.executions == 0
    assert summary.total_failed_jobs() == 1
    assert "1 job(s) FAILED" in summary.format_table()
    assert row.to_dict()["failed_jobs"] == 1


def test_failed_jobs_survive_checkpoint_round_trip(tmp_path, monkeypatch):
    from repro.campaign.store import CampaignState

    monkeypatch.setattr(worker_module, "run_job", _raise_run_job)
    checkpoint = tmp_path / "campaign.json"
    CampaignScheduler(_spec(), checkpoint_path=str(checkpoint)).run()
    state = CampaignState.load(str(checkpoint))
    assert state.group_stats(("gadgets", "teapot", "vanilla")).failed_jobs == 1


def test_failure_emits_job_failed_trace_event(tmp_path, monkeypatch):
    monkeypatch.setattr(worker_module, "run_job", _raise_run_job)
    trace_path = tmp_path / "trace.jsonl"
    telemetry = Telemetry.create(trace=str(trace_path))
    with telemetry_context.session(telemetry):
        CampaignScheduler(_spec()).run()
    telemetry.close()
    records = read_trace(str(trace_path))
    failed = [r for r in records if r.get("type") == "job_failed"]
    assert len(failed) == 1
    assert failed[0]["error"] == "RuntimeError: injected worker failure"
    assert "injected worker failure" in failed[0]["traceback"]
    assert telemetry.registry.value("campaign.jobs_failed") == 1


def test_healthy_campaign_reports_zero_failures():
    summary = CampaignScheduler(_spec()).run()
    assert summary.total_failed_jobs() == 0
    assert "FAILED" not in summary.format_table()
