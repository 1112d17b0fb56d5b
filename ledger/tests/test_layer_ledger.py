"""Tests of the layer-ledger benchmark's own logic.

They check that a missing ground-truth site or a failed campaign fails
the run, that the result names every declared metric with its unit, and
that the benchmark refuses to run without the program under test.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(LEDGER)
sys.path.insert(0, LEDGER)

import catalog  # noqa: E402
import gates  # noqa: E402

from repro.core.config import TeapotConfig  # noqa: E402
from repro.core.teapot import TeapotRewriter, TeapotRuntime  # noqa: E402
from repro.targets import get_target  # noqa: E402
from repro.targets.injection import compile_vanilla  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
def test_result_names_every_metric_with_its_unit(trace):
    spec = catalog.load_benchmark()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = {entry["name"]: 1.5 for entry in declared}
    result = catalog.assemble(values, trace, correct=True, attempted=3,
                              failed=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"] == {
        entry["name"]: {"value": 1.5, "unit": entry["unit"]}
        for entry in declared}
    name = declared[0]["name"]
    with pytest.raises(ValueError, match="missing"):
        catalog.assemble({k: v for k, v in values.items() if k != name},
                         trace, correct=True, attempted=3, failed=0)
    with pytest.raises(ValueError, match="undeclared"):
        catalog.assemble(dict(values, bogus=1.0), trace, correct=True,
                         attempted=3, failed=0)


def test_reference_time_scales_times_and_rates_only():
    scaled = catalog.to_reference(
        {"exec_per_s": 10.0, "setup_s": 2.0, "runtime.exec_p50_ms": 4.0,
         "peak_rss_mb": 100.0, "service.queue_wait_p50_s": 1.0}, 0.5)
    assert scaled == {"exec_per_s": 20.0, "setup_s": 1.0,
                      "runtime.exec_p50_ms": 2.0, "peak_rss_mb": 100.0,
                      "service.queue_wait_p50_s": 0.5}


def _gadgets_seed_reports():
    """The vanilla driver, its Teapot build and the seeds' reports."""
    target = get_target("gadgets")
    vanilla = compile_vanilla(target)
    config = TeapotConfig()
    instrumented = TeapotRewriter(config).instrument(vanilla)
    runtime = TeapotRuntime(instrumented, config=config)
    reports = [report for seed in target.seeds
               for report in runtime.run(seed).reports]
    return vanilla, instrumented, reports


def test_missing_planted_sample_fails_the_gate():
    vanilla, instrumented, reports = _gadgets_seed_reports()
    regions = gates.sample_regions(vanilla)
    assert len(regions) == 4
    oracle = gates.SampleOracle(regions, instrumented)
    oracle.observe(reports)
    # The seeds reach samples 0, 2 and 3 directly; the masked-index sample
    # needs mutation, so the full gadgets-fuzz gate must fail here ...
    assert oracle.hit == {0, 2, 3}
    assert oracle.problems() == ["planted sample 1 was never reported"]
    # ... while the service gate, which requires only those three, passes.
    assert oracle.problems(gates.SERVICE_REQUIRED_SAMPLES) == []


def test_report_outside_the_samples_fails_the_gate():
    vanilla, instrumented, reports = _gadgets_seed_reports()
    oracle = gates.SampleOracle(gates.sample_regions(vanilla), instrumented)
    main = instrumented.function_at(reports[0].pc)
    stray = dataclasses.replace(reports[0], pc=main.address)
    oracle.observe(reports + [stray])
    assert any("outside every planted sample" in problem
               for problem in oracle.problems())


def test_failed_campaign_fails_the_gate():
    def no_oracle(tool):
        raise AssertionError("reports of a failed campaign are not read")

    failed = {"campaign_id": "c0001", "status": "failed", "error": "boom"}
    assert gates.campaign_problems(failed, {}, no_oracle) == [
        "campaign c0001 ended 'failed' (boom)"]
    vanilla, instrumented, reports = _gadgets_seed_reports()
    regions = gates.sample_regions(vanilla)
    completed = {"campaign_id": "c0002", "status": "completed",
                 "summary": {"groups": [{"failed_jobs": 1}]}}
    problems = gates.campaign_problems(
        completed,
        {"gadgets/teapot/vanilla": [r.to_dict() for r in reports]},
        lambda tool: gates.SampleOracle(regions, instrumented))
    assert problems == ["campaign c0002 has 1 failed job(s)"]


def test_service_busy_time_is_the_union_of_campaign_intervals():
    import servicework

    statuses = [{"created_at": 10.0, "finished_at": 11.0},
                {"created_at": 10.5, "finished_at": 11.5},
                {"created_at": 13.0, "finished_at": 14.0}]
    assert servicework.busy_s(statuses) == 2.5
    assert servicework.latency_s(
        {"submit_s": 0.25, "status": statuses[1]}) == 1.25


def test_gate_failure_makes_the_run_incorrect(monkeypatch, capsys):
    import run as ledger_run

    spec = catalog.load_benchmark()
    values = {entry["name"]: 1.0 for entry in spec["end_to_end"]}
    monkeypatch.setattr(ledger_run, "run_workload", lambda *args: {
        "values": values, "attempted": 5, "failed": 0, "detail": {},
        "problems": ["planted sample 1 was never reported"]})
    code = ledger_run.main(["--workload", "gadgets-fuzz", "--seed", "1",
                            "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr()
    assert code == 1
    assert json.loads(out.out.strip().splitlines()[-1])["correct"] is False
    assert "planted sample 1 was never reported" in out.err


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(LEDGER, tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "gadgets-fuzz",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
