"""The detect → patch → verify loop, end to end (the acceptance tests).

The repository's acceptance bar for the hardening subsystem:

* targeted hardening (fences at reported sites, SLH-style masking)
  eliminates **100 %** of the reported gadget sites on the Kocher samples
  and on the injected jsmn build under re-fuzz, and
* its measured cycle overhead is **strictly below** the
  fence-every-branch baseline.
"""

from __future__ import annotations

import json

import pytest

import repro.hardening.pipeline as hardening_pipeline
from repro.analysis.experiments import run_hardening_matrix
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.hardening.cli import main as harden_main
from repro.hardening.pipeline import (detect_reports, patch_binary,
                                      run_hardening, verify_patch)
from repro.service.scheduler import ServiceCampaignScheduler


@pytest.fixture(scope="module")
def gadgets_matrix():
    """One detect campaign + all three strategies on the Kocher samples."""
    (row,) = run_hardening_matrix(targets=("gadgets",), iterations=400,
                                  seed=1234)
    return row


@pytest.fixture(scope="module")
def jsmn_injected_matrix():
    """All three strategies on the Table-3-style injected jsmn build."""
    (row,) = run_hardening_matrix(targets=("jsmn",), variant="injected",
                                  iterations=60, seed=1234)
    return row


@pytest.mark.parametrize("strategy", ("fence", "mask"))
def test_targeted_hardening_eliminates_all_kocher_sites(
        gadgets_matrix, strategy):
    result = gadgets_matrix.results[strategy]
    assert result.sites_before, "the campaign must report gadget sites"
    assert result.all_eliminated
    assert result.residual == []
    assert len(result.eliminated) == len(result.sites_before)


@pytest.mark.parametrize("strategy", ("fence", "mask"))
def test_targeted_hardening_eliminates_all_injected_jsmn_sites(
        jsmn_injected_matrix, strategy):
    result = jsmn_injected_matrix.results[strategy]
    assert result.sites_before, "the injected gadgets must be reported"
    assert result.all_eliminated
    assert result.residual == []


@pytest.mark.parametrize("row_fixture",
                         ("gadgets_matrix", "jsmn_injected_matrix"))
def test_targeted_overhead_strictly_below_fence_everything(
        row_fixture, request):
    row = request.getfixturevalue(row_fixture)
    baseline = row.results["fence-all"]
    assert baseline.all_eliminated  # the sledgehammer works too…
    for strategy in ("fence", "mask"):
        result = row.results[strategy]
        # …but the targeted strategies pay strictly fewer cycles for the
        # same elimination on the reported sites.
        assert result.hardened_cycles < baseline.hardened_cycles, strategy
        assert result.overhead < row.baseline_overhead, strategy


def test_matrix_rows_serialize(gadgets_matrix):
    record = gadgets_matrix.as_dict()
    assert record["target"] == "gadgets"
    for strategy in ("fence", "mask", "fence-all"):
        assert record[strategy]["eliminated"] == record[strategy]["sites"]
        assert record[strategy]["residual"] == 0
    json.dumps(record)  # JSON-clean


def test_verification_campaign_matches_detection_budget(gadgets_matrix):
    result = gadgets_matrix.results["fence"]
    assert result.verify_executions == result.iterations


def test_hardening_without_reports_is_a_no_op():
    result = run_hardening("gadgets", "fence", iterations=40, seed=99,
                           reports=[])
    assert result.sites_before == []
    assert result.eliminated == [] and result.residual == []
    assert result.hardened_cycles == result.native_cycles
    assert not result.all_eliminated  # nothing to eliminate is not success


def test_service_verification_fuzzes_the_hardened_binary(monkeypatch):
    # The service's job processes must see binary_override: re-fuzzing
    # the original build with the detection spec would re-find every
    # site, so each would come back residual instead of eliminated.
    reports = detect_reports("gadgets", iterations=150, seed=7)
    patch = patch_binary("gadgets", "fence", reports=reports)
    spec = CampaignSpec(targets=("gadgets",), tools=("teapot",),
                        iterations=150, rounds=1, shards=1, seed=7,
                        workers=1, skip_uninjectable=False)

    def verify_with(runner):
        monkeypatch.setattr(hardening_pipeline, "run_campaign",
                            lambda spec: runner(spec).run())
        return verify_patch(patch, spec)

    serial = verify_with(CampaignScheduler)
    service = verify_with(ServiceCampaignScheduler)
    assert serial.eliminated and not serial.residual
    assert ((service.eliminated, service.residual, service.new_sites,
             service.executions) ==
            (serial.eliminated, serial.residual, serial.new_sites,
             serial.executions))


def test_results_are_deterministic():
    first = run_hardening("gadgets", "fence", iterations=120, seed=42)
    second = run_hardening("gadgets", "fence", iterations=120, seed=42)
    assert first.to_dict() == second.to_dict()


def test_cli_report_file_roundtrip(tmp_path, capsys):
    reports = detect_reports("gadgets", iterations=400, seed=1234)
    report_path = tmp_path / "reports.json"
    report_path.write_text(json.dumps([r.to_dict() for r in reports]))
    out_path = tmp_path / "hardening.json"

    exit_code = harden_main([
        "--target", "gadgets", "--strategy", "fence",
        "--iterations", "400", "--seed", "1234",
        "--report-in", str(report_path),
        "--json", str(out_path), "--quiet",
    ])
    assert exit_code == 0
    captured = capsys.readouterr()
    assert "strategy=fence" in captured.out

    (payload,) = json.loads(out_path.read_text())
    assert payload["strategy"] == "fence"
    assert payload["residual"] == []
    assert payload["sites_before"] and (
        len(payload["eliminated"]) == len(payload["sites_before"]))
    assert payload["overhead"] >= 1.0


def test_cli_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit):
        harden_main(["--target", "not-a-target", "--quiet"])
