"""One round loop: both runners leave the same checkpoint, trace and output.

The in-process :class:`CampaignScheduler` and the fleet's
:class:`ServiceCampaignScheduler` open, merge and close rounds through
:class:`repro.campaign.scheduler.RoundLoop`; only how a round's jobs run
differs.  These tests compare what each leaves behind, round by round.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.service.scheduler import ServiceCampaignScheduler
from repro.telemetry import Telemetry
from repro.telemetry.context import session as telemetry_session
from repro.telemetry.runs import RunRegistry
from repro.telemetry.tracing import read_trace

RUNNERS = {"in_process": CampaignScheduler,
           "fleet": ServiceCampaignScheduler}


def small_spec(**overrides):
    params = dict(targets=("gadgets",), tools=("teapot",),
                  iterations=30, rounds=2, shards=2, seed=13, workers=2)
    params.update(overrides)
    return CampaignSpec(**params)


def _checkpoint(tmp_path, runner, spec):
    path = str(tmp_path / f"{runner}.json")
    RUNNERS[runner](spec, checkpoint_path=path).run()
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    record["spec"].pop("workers")
    return record


def test_checkpoints_are_identical_across_runners(tmp_path):
    in_process = _checkpoint(tmp_path, "in_process", small_spec(workers=1))
    fleet = _checkpoint(tmp_path, "fleet", small_spec(workers=2))
    assert in_process["completed_rounds"] == 2
    assert fleet == in_process


def _round_trace(tmp_path, runner):
    """The campaign's events and round spans, plus its run directory."""
    run_dir = RunRegistry(str(tmp_path / runner)).create_run(
        command="campaign")
    telemetry = Telemetry.create(trace=run_dir.trace_path)
    telemetry.run_dir = run_dir
    progress = []
    with telemetry_session(telemetry):
        RUNNERS[runner](small_spec(),
                        checkpoint_path=str(tmp_path / f"{runner}.json"),
                        progress=progress.append).run()
    telemetry.close()
    sequence = []
    for record in read_trace(run_dir.trace_path):
        kind = record.get("type")
        if kind == "campaign_start":
            sequence.append((kind, record["fingerprint"], record["rounds"],
                             record["completed_rounds"], record["workers"]))
        elif kind == "job":
            sequence.append((kind, record["job_id"], record["executions"],
                             record["new_sites"], record.get("span")))
        elif (kind in ("span_start", "span_end")
              and str(record.get("name", "")).startswith("round:")):
            sequence.append((kind, record["name"]))
    progress = [line.replace(str(tmp_path / runner), "CKPT")
                for line in progress
                if not line.startswith("serving ")]
    snapshots = sorted(name for name in os.listdir(run_dir.metrics_dir)
                       if name.startswith("snapshot-"))
    return sequence, progress, snapshots


def test_traces_progress_and_snapshots_match_across_runners(tmp_path):
    in_process = _round_trace(tmp_path, "in_process")
    fleet = _round_trace(tmp_path, "fleet")
    sequence, progress, snapshots = in_process
    assert [entry[0] for entry in sequence] == [
        "campaign_start",
        "span_start", "job", "job", "span_end",
        "span_start", "job", "job", "span_end"]
    assert progress == [
        "round 1/2: 2 jobs over 2 worker(s)",
        "checkpoint written to CKPT.json",
        "round 2/2: 2 jobs over 2 worker(s)",
        "checkpoint written to CKPT.json"]
    # One metrics snapshot per round, written when the round closes.
    assert len(snapshots) == 2
    assert fleet == in_process


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_resuming_a_finished_fleet_checkpoint_redoes_nothing(tmp_path,
                                                             runner):
    spec = small_spec()
    path = str(tmp_path / "campaign.json")
    finished = ServiceCampaignScheduler(spec, checkpoint_path=path).run()
    telemetry = Telemetry()
    progress = []
    with telemetry_session(telemetry):
        resumed = RUNNERS[runner](spec, checkpoint_path=path,
                                  progress=progress.append).run(resume=True)
    assert resumed.to_dict() == finished.to_dict()
    assert progress[-1] == "resuming after 2 completed round(s)"
    assert telemetry.registry.counter("campaign.jobs_done").value == 0
