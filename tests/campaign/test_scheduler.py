"""End-to-end scheduler tests: determinism, corpus sync, checkpoint/resume.

All campaigns here fuzz the ``gadgets`` sample driver — it compiles in
milliseconds and every execution is a few hundred emulated instructions,
so whole multi-round matrices stay well under a second.
"""

import pytest

import repro.campaign.worker as worker_module
from repro.campaign.scheduler import CampaignScheduler, run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignState


def small_spec(**overrides):
    params = dict(targets=("gadgets",), tools=("teapot",),
                  iterations=30, rounds=2, shards=2, seed=13, workers=1)
    params.update(overrides)
    return CampaignSpec(**params)


@pytest.fixture(scope="module")
def baseline_summary():
    return run_campaign(small_spec())


def test_campaign_finds_gadgets_and_counts_executions(baseline_summary):
    row = baseline_summary.row("gadgets", "teapot")
    assert row.executions == 30
    assert row.unique_gadgets >= 1
    assert row.raw_reports >= row.unique_gadgets
    assert row.corpus_size >= 4  # the four seeds survive the sync
    assert any(cat.startswith("User-") for cat in row.by_category)


def test_same_spec_replays_identically(baseline_summary):
    again = run_campaign(small_spec())
    assert again.to_dict() == baseline_summary.to_dict()


def test_worker_count_does_not_change_results(baseline_summary):
    parallel = run_campaign(small_spec(workers=3))
    assert parallel.to_dict() == baseline_summary.to_dict()


def test_shard_count_is_part_of_the_result():
    sharded = run_campaign(small_spec(shards=3))
    unsharded = run_campaign(small_spec(shards=1))
    assert sharded.fingerprint != unsharded.fingerprint


def test_multi_tool_matrix_keeps_groups_separate():
    summary = run_campaign(small_spec(tools=("teapot", "specfuzz"),
                                      iterations=20))
    assert len(summary.groups) == 2
    teapot = summary.row("gadgets", "teapot")
    specfuzz = summary.row("gadgets", "specfuzz")
    assert teapot.executions == specfuzz.executions == 20
    # SpecFuzz cannot classify attacker control; Teapot can.
    assert all(cat.startswith("Unknown-") for cat in specfuzz.by_category)
    assert all(not cat.startswith("Unknown-") for cat in teapot.by_category)


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path, baseline_summary):
    spec = small_spec()
    ckpt = str(tmp_path / "campaign.json")

    # Run round 1, then abort before round 2 (a simulated kill).
    scheduler = CampaignScheduler(spec, checkpoint_path=ckpt)

    def abort_on_round_2(message):
        if message.startswith("round 2"):
            raise KeyboardInterrupt
    scheduler._progress = abort_on_round_2
    with pytest.raises(KeyboardInterrupt):
        scheduler.run()

    interrupted = CampaignState.load(ckpt)
    assert interrupted.completed_rounds == 1

    resumed = run_campaign(spec, checkpoint_path=ckpt, resume=True)
    assert resumed.to_dict() == baseline_summary.to_dict()

    # The final checkpoint records the completed campaign.
    final = CampaignState.load(ckpt)
    assert final.completed_rounds == spec.rounds


def test_resume_refuses_mismatched_spec(tmp_path):
    ckpt = str(tmp_path / "campaign.json")
    run_campaign(small_spec(rounds=1, iterations=8), checkpoint_path=ckpt)
    with pytest.raises(ValueError, match="fingerprint"):
        run_campaign(small_spec(rounds=1, iterations=12, seed=99),
                     checkpoint_path=ckpt, resume=True)


def test_resume_with_different_worker_count_is_allowed(tmp_path):
    spec = small_spec()
    ckpt = str(tmp_path / "campaign.json")
    scheduler = CampaignScheduler(spec, checkpoint_path=ckpt)

    def abort_on_round_2(message):
        if message.startswith("round 2"):
            raise KeyboardInterrupt
    scheduler._progress = abort_on_round_2
    with pytest.raises(KeyboardInterrupt):
        scheduler.run()

    resumed = run_campaign(spec.with_workers(3), checkpoint_path=ckpt,
                           resume=True)
    assert resumed.to_dict() == run_campaign(spec).to_dict()


def test_corpus_sync_redistributes_across_rounds(monkeypatch):
    """Round 2 workers start from the merged round-1 corpus."""
    spec = small_spec(rounds=2, shards=2)
    scheduler = CampaignScheduler(spec)
    seen_seed_counts = []
    original = worker_module.run_job

    def spy(job, seeds=None):
        seen_seed_counts.append((job.round_index, len(seeds)))
        return original(job, seeds)
    monkeypatch.setattr(worker_module, "run_job", spy)
    scheduler.run()

    round0 = [count for round_index, count in seen_seed_counts if round_index == 0]
    round1 = [count for round_index, count in seen_seed_counts if round_index == 1]
    # Round 0 shards the 4 target seeds; round 1 shards the merged corpus,
    # which has grown past the seeds.
    assert sum(round0) == 4
    assert sum(round1) > sum(round0)


def test_summary_table_renders():
    summary = run_campaign(small_spec(iterations=10, rounds=1))
    table = summary.format_table()
    assert "gadgets" in table
    assert "teapot" in table
    assert "unique gadget sites" in table


# ---------------------------------------------------------------------------
# Routing: run_campaign decides whether a campaign needs worker processes
# ---------------------------------------------------------------------------

class _ReachedFleet(Exception):
    """Raised by the stand-in FuzzService: the campaign went to the fleet."""


def _refuse_fleet(monkeypatch):
    """Make constructing the ephemeral service fleet raise."""
    import repro.service.scheduler as service_scheduler

    def refuse(*args, **kwargs):
        raise _ReachedFleet

    monkeypatch.setattr(service_scheduler, "FuzzService", refuse)


def test_default_campaign_runs_in_process_and_matches_the_fleet(
        monkeypatch, baseline_summary):
    from repro.service.scheduler import ServiceCampaignScheduler

    fleet = ServiceCampaignScheduler(small_spec()).run()
    _refuse_fleet(monkeypatch)
    summary = run_campaign(small_spec())
    assert summary.to_dict() == fleet.to_dict() == baseline_summary.to_dict()


def test_profiled_campaign_stays_in_process_at_any_worker_count(monkeypatch):
    from repro.telemetry import EngineProfiler, Telemetry
    from repro.telemetry.context import session

    _refuse_fleet(monkeypatch)
    telemetry = Telemetry(profiler=EngineProfiler())
    with session(telemetry):
        summary = run_campaign(small_spec(workers=2, rounds=1))
    assert summary.total_executions() == 30
    assert telemetry.profiler.hot_spots()


@pytest.mark.parametrize("overrides,serve", [
    ({"workers": 2}, False),
    ({"job_timeout_s": 30.0}, False),
    ({}, True),
], ids=["workers", "job_timeout", "serve"])
def test_campaigns_needing_worker_processes_reach_the_fleet(
        monkeypatch, overrides, serve):
    from repro.telemetry import Telemetry
    from repro.telemetry.context import session

    _refuse_fleet(monkeypatch)
    telemetry = Telemetry()
    if serve:
        telemetry.serve = ("127.0.0.1", 0)
    with session(telemetry):
        with pytest.raises(_ReachedFleet):
            run_campaign(small_spec(**overrides))
    # Nothing ran in this process before the fleet was asked for.
    assert telemetry.registry.counters() == {}
