"""`repro top`: sampling, frame rendering, throughput deltas, --once."""

from __future__ import annotations

import io

import pytest

from repro.telemetry import Telemetry, top
from repro.telemetry.runs import RunRegistry


def _service_sample(sampled_at=100.0, done=4, pending=2):
    return {
        "kind": "service",
        "target": "http://127.0.0.1:8642",
        "sampled_at": sampled_at,
        "health": {"status": "ok", "version": "0.0.0", "uptime_s": 12.5,
                   "observe": True},
        "queue": {"pending": pending, "leased": 1, "done": done,
                  "failed": 0, "submitted": done + pending + 1,
                  "fleet": {"workers": 2, "alive": 2, "busy": 1}},
        "fleet": {
            "counts": {"workers": 2, "alive": 2, "busy": 1, "completed": done},
            "workers": [
                {"name": "w0", "alive": True, "busy": True, "completed": 2,
                 "utilization": 0.75, "heartbeat_age_s": 0.1,
                 "current_job": {"campaign_id": "c0001-ab", "attempt": 1,
                                 "fingerprint": "deadbeefcafe"}},
                {"name": "w1", "alive": True, "busy": False, "completed": 2,
                 "utilization": 0.5, "heartbeat_age_s": 0.2,
                 "current_job": None},
            ],
        },
        "campaigns": [
            {"campaign_id": "c0001-ab", "status": "running",
             "rounds_completed": 1, "rounds": 2,
             "jobs_done": 4, "jobs_total": 8},
        ],
    }


def test_render_service_frame():
    frame = top.render_frame(_service_sample())
    assert "repro top — http://127.0.0.1:8642" in frame
    assert "2 pending / 1 leased / 4 done / 0 failed" in frame
    assert "2 workers, 2 alive, 1 busy" in frame
    assert "w0" in frame and "busy" in frame and "75%" in frame
    assert "#deadbeef" in frame  # fingerprint is truncated for display
    assert "c0001-ab" in frame and "running" in frame and "4/8" in frame
    # Without a previous sample there is no rate to report.
    assert "- jobs/s" in frame


def test_throughput_from_consecutive_samples():
    previous = _service_sample(sampled_at=100.0, done=4)
    current = _service_sample(sampled_at=102.0, done=10)
    frame = top.render_frame(current, previous)
    assert "3.0 jobs/s" in frame  # (10 - 4) done over 2 seconds


def test_render_run_dir_frame(tmp_path):
    registry = RunRegistry(str(tmp_path / "runs"))
    run = registry.create_run(command="campaign", config={"seed": 1})
    sample = top.sample_run_dir(run.path)
    assert sample["kind"] == "run_dir"
    frame = top.render_frame(sample)
    assert f"run {run.run_id}" in frame
    assert "campaign" in frame

    # A snapshot carrying the counters the campaign merge really emits:
    # the headline rows lead the table, in display order.
    bundle = Telemetry()
    for name, value in {"campaign.jobs_done": 8,
                        "campaign.reports_unique": 6,
                        "campaign.dedup_hits": 24}.items():
        bundle.registry.counter(name).inc(value)
    bundle.registry.gauge("campaign.rounds_completed").set(4)
    run.write_metrics_snapshot(bundle)
    frame = top.render_frame(top.sample_run_dir(run.path))
    rows = [line.split() for line in frame.splitlines()
            if line.startswith("campaign.")]
    assert rows[:3] == [["campaign.jobs_done", "8"],
                        ["campaign.rounds_completed", "4"],
                        ["campaign.reports_unique", "6"]]


def test_sample_dispatch_and_errors(tmp_path):
    with pytest.raises(top.TopError):
        top.sample(str(tmp_path / "not-a-run"))
    with pytest.raises(top.TopError):
        top.sample_service("http://127.0.0.1:1", timeout=0.5)


def test_run_top_once_writes_one_frame(tmp_path):
    registry = RunRegistry(str(tmp_path / "runs"))
    run = registry.create_run(command="fuzz", config={})
    stream = io.StringIO()
    assert top.run_top(run.path, once=True, stream=stream) == 0
    output = stream.getvalue()
    assert top.ANSI_CLEAR not in output  # --once stays pipe-clean
    assert f"run {run.run_id}" in output


def test_run_top_bad_target_exits_2(tmp_path, capsys):
    assert top.run_top(str(tmp_path / "missing"), once=True) == 2
    assert "error:" in capsys.readouterr().err
