"""The Pipeline facade, driven through ``repro.api`` alone.

The acceptance test of the facade: a full ``fuzz → harden → refuzz``
chain on the Kocher-samples target must reproduce the hardening
subsystem's 4/4 site elimination using **no direct subsystem imports** —
``repro.api`` is the only repro module this file touches.
"""

from __future__ import annotations

import json

import pytest

import repro.api as api


@pytest.fixture(scope="module")
def gadgets_run():
    """The canonical detect→patch→verify chain, facade-only."""
    return (api.pipeline(target="gadgets", seed=1234)
            .engine("fast")
            .fuzz(iterations=400)
            .harden("fence")
            .refuzz()
            .report())


def test_facade_reproduces_full_elimination(gadgets_run):
    refuzz = gadgets_run.stage("refuzz").payload
    assert len(refuzz["sites_before"]) == 4, "the Kocher samples report 4 sites"
    assert len(refuzz["eliminated"]) == 4
    assert refuzz["residual"] == []
    assert refuzz["new_sites"] == []
    assert refuzz["all_eliminated"] is True


def test_facade_run_carries_live_objects(gadgets_run):
    hardening = gadgets_run.hardening_result
    assert hardening is not None
    assert hardening.all_eliminated
    assert hardening.verify_executions == 400
    assert hardening.baseline_executions == 400
    assert gadgets_run.summary is not None
    assert len(gadgets_run.gadget_reports()) == 4


def test_facade_masking_beats_fence_everything():
    reports = (api.pipeline(target="gadgets", seed=1234)
               .fuzz(iterations=400).report().gadget_reports())

    def harden_with(strategy):
        return (api.pipeline(target="gadgets", seed=1234)
                .reports(reports).harden(strategy).refuzz()
                .report().hardening_result)

    mask = harden_with("mask")
    baseline = harden_with("fence-all")
    assert mask.all_eliminated and baseline.all_eliminated
    assert mask.overhead < baseline.overhead


def test_runs_are_deterministic():
    def one_run():
        return (api.pipeline(target="gadgets", seed=99)
                .fuzz(iterations=60).report())
    assert one_run().to_dict() == one_run().to_dict()


def test_artifact_round_trips(gadgets_run, tmp_path):
    path = tmp_path / "run.json"
    gadgets_run.save(str(path))
    loaded = api.RunResult.load(str(path))
    assert loaded.to_dict() == gadgets_run.to_dict()
    assert loaded.schema_version == api.SCHEMA_VERSION
    # The JSON-borne reports rebuild into real GadgetReport objects.
    assert [r.to_dict() for r in loaded.gadget_reports()] == \
        [r.to_dict() for r in gadgets_run.gadget_reports()]


def test_artifact_rejects_foreign_and_future_files(tmp_path):
    with pytest.raises(api.ResultSchemaError):
        api.RunResult.from_dict({"kind": "something-else"})
    future = {"kind": api.RESULT_KIND,
              "schema_version": api.SCHEMA_VERSION + 1, "stages": []}
    with pytest.raises(api.ResultSchemaError):
        api.RunResult.from_dict(future)
    # ...and the loader surfaces file-shaped problems the same way.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "nope"}))
    with pytest.raises(api.ResultSchemaError):
        api.RunResult.load(str(path))


def test_bench_stage_measures_overheads():
    run = (api.pipeline(target="jsmn")
           .bench(input_size=64, tools=("teapot",))
           .report())
    payload = run.stage("bench").payload
    assert payload["native_cycles"] > 0
    assert payload["tool_cycles"]["teapot"] > payload["native_cycles"]
    assert payload["normalized"]["teapot"] > 1.0


def test_campaign_stage_runs_a_matrix():
    run = (api.pipeline(seed=3)
           .campaign(targets=("gadgets",), iterations=20, rounds=2)
           .report())
    summary = run.stage("campaign").payload["summary"]
    (group,) = summary["groups"]
    assert group["target"] == "gadgets"
    assert group["executions"] == 20
    assert run.summary.row("gadgets", "teapot").executions == 20


# ---------------------------------------------------------------------------
# Builder validation
# ---------------------------------------------------------------------------

def test_stage_order_is_validated():
    with pytest.raises(api.PipelineError, match="fuzz\\(\\) or reports\\(\\)"):
        api.pipeline(target="gadgets").harden("fence")
    with pytest.raises(api.PipelineError, match="harden\\(\\)"):
        api.pipeline(target="gadgets").fuzz(10).refuzz()
    with pytest.raises(api.PipelineError, match="empty pipeline"):
        api.pipeline(target="gadgets").run()


def test_target_is_required_for_target_stages():
    with pytest.raises(api.PipelineError, match="requires a target"):
        api.pipeline().fuzz(10)
    with pytest.raises(api.PipelineError, match="requires a target"):
        api.pipeline().bench()


def test_bad_names_fail_at_build_time():
    with pytest.raises(api.PipelineError):
        api.pipeline(target="gadgets", variant="mystery")
    with pytest.raises(api.PipelineError):
        api.pipeline(target="gadgets", tool="angr")
    with pytest.raises(api.PipelineError):
        api.pipeline(target="gadgets").bench(tools=("valgrind",))


def test_stage_lookup_reports_executed_stages():
    run = api.pipeline(target="gadgets", seed=5).fuzz(iterations=10).report()
    with pytest.raises(KeyError, match="refuzz"):
        run.stage("refuzz")
    assert run.has_stage("fuzz") and not run.has_stage("harden")
