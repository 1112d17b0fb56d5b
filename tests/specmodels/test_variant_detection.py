"""Acceptance tests: planted BTB/RSB/STL gadgets are detected, identically
on both engines, and the variant matrix threads end to end.

These pin the headline guarantees of the speculation-model subsystem:

* each planted gadget-sample target yields >= 2 (in fact exactly 4) unique
  sites under its own variant, attributed to that variant,
* the fast and legacy engines produce bit-identical results with any
  variant set active (differential harness extension),
* campaigns fan the (target x tool) matrix over a third, speculation-
  variant axis whose checkpoints resume across variant sets, and
* a PHT-only configuration remains exactly the classic behaviour.
"""

from __future__ import annotations

import pytest

from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter, TeapotRuntime
from repro.fuzzing.fuzzer import Fuzzer, FuzzTarget
from repro.targets import get_target
from repro.targets.injection import compile_vanilla

VARIANTS = ("btb", "rsb", "stl")

#: Per-variant unique-site floors on the planted gadget samples: the seed
#: replay alone finds these four (cache + port victims, two sites each);
#: fuzzing can only add sites on top.
EXPECTED_SITES = {"btb": 4, "rsb": 4, "stl": 4}


def test_target_listing_publishes_variant_capabilities():
    """``repro targets --json`` supersedes ad-hoc knowledge of which
    target plants which variant."""
    import repro.api as api

    records = {record["name"]: record for record in api.target_listing()}
    assert records["gadgets"]["variants"] == ["pht"]
    assert records["jsmn"]["variants"] == ["pht"]
    for variant in VARIANTS:
        assert variant in records[f"gadgets-{variant}"]["variants"], (
            f"gadgets-{variant} must advertise its planted variant")
    # The btb samples' function-pointer stores are themselves bypassable:
    # the capability list owns that fact (the CI golden pins the 2 sites).
    assert records["gadgets-btb"]["variants"] == ["btb", "stl"]


@pytest.fixture(scope="module")
def variant_binaries():
    binaries = {}
    for variant in VARIANTS:
        target = get_target(f"gadgets-{variant}")
        binaries[variant] = TeapotRewriter(TeapotConfig()).instrument(
            compile_vanilla(target))
    return binaries


def _campaign_record(result, fuzzer):
    return (
        result.executions,
        result.total_cycles,
        result.total_steps,
        result.crashes,
        result.hangs,
        result.corpus_size,
        result.normal_coverage,
        result.speculative_coverage,
        result.spec_stats,
        result.reports.to_dicts(),
        fuzzer.corpus.to_dicts(),
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_planted_sites_detected_identically_on_both_engines(
        variant, variant_binaries):
    """>= 2 planted sites per variant, bit-identical across engines."""
    target = get_target(f"gadgets-{variant}")
    binary = variant_binaries[variant]
    records = {}
    for engine in ("legacy", "fast"):
        config = TeapotConfig(engine=engine, variants=(variant,))
        fuzzer = Fuzzer(FuzzTarget(TeapotRuntime(binary, config=config)),
                        seeds=list(target.seeds), seed=7)
        result = fuzzer.run_campaign(60)
        records[engine] = _campaign_record(result, fuzzer)
        sites = {report.site for report in result.reports}
        assert len(sites) >= 2, f"{variant}: expected >= 2 planted sites"
        assert len(sites) >= EXPECTED_SITES[variant]
        assert {report.variant for report in result.reports} == {variant}
        # Speculation entries of the model were accounted separately.
        assert result.spec_stats[f"entered_{variant}"] > 0
    assert records["fast"] == records["legacy"], (
        f"{variant}: engines diverged")


def test_variant_off_means_no_variant_reports(variant_binaries):
    """With only PHT enabled, the planted BTB gadgets stay invisible."""
    target = get_target("gadgets-btb")
    config = TeapotConfig()   # variants=("pht",)
    fuzzer = Fuzzer(FuzzTarget(TeapotRuntime(variant_binaries["btb"],
                                             config=config)),
                    seeds=list(target.seeds), seed=7)
    result = fuzzer.run_campaign(30)
    assert all(report.variant == "pht" for report in result.reports)
    assert "entered_btb" not in result.spec_stats


def test_config_variant_selection_decides_the_simulated_variants(
        variant_binaries):
    """A runtime built from ``config.with_variants(...)`` simulates
    exactly those variants: the planted STL sites appear only with STL."""
    target = get_target("gadgets-stl")
    found = {}
    for variants in (("pht",), ("stl", "pht")):
        config = TeapotConfig().with_variants(*variants)
        assert config.variants == variants
        fuzzer = Fuzzer(FuzzTarget(TeapotRuntime(variant_binaries["stl"],
                                                 config=config)),
                        seeds=list(target.seeds), seed=3)
        found[variants] = {report.variant
                           for report in fuzzer.run_campaign(30).reports}
    assert found[("pht",)] <= {"pht"}
    assert "stl" in found[("stl", "pht")]


def test_campaign_variant_axis_and_resume_across_variant_sets(tmp_path):
    """Variants are a matrix axis; checkpoints resume across variant sets."""
    checkpoint = tmp_path / "variant-campaign.json"
    base = CampaignSpec(
        targets=("gadgets-stl",), tools=("teapot",), iterations=24,
        rounds=2, seed=5, spec_variants=("pht",),
    )
    first = CampaignScheduler(base, checkpoint_path=str(checkpoint)).run()
    row = first.row("gadgets-stl", "teapot")
    assert set(row.by_variant) <= {"pht"}

    # One job per (group, spec variant): the axis expands the matrix.
    grown = CampaignSpec(
        targets=("gadgets-stl",), tools=("teapot",), iterations=24,
        rounds=2, seed=5, spec_variants=("pht", "stl"),
    )
    assert len(grown.jobs_for_round(0)) == 2 * len(base.jobs_for_round(0))
    # PHT jobs keep their historic seeds: bit-identical single-variant runs.
    assert [job.seed for job in base.jobs_for_round(0)] == [
        job.seed for job in grown.jobs_for_round(0) if job.spec_variant == "pht"
    ]

    # The fingerprint ignores the variant axis, so the PHT checkpoint
    # resumes under the grown variant set (finished rounds stay cached).
    assert grown.fingerprint() == base.fingerprint()
    resumed = CampaignScheduler(grown, checkpoint_path=str(checkpoint)).run(
        resume=True)
    resumed_row = resumed.row("gadgets-stl", "teapot")
    assert resumed_row.executions == row.executions
    assert resumed_row.by_variant == row.by_variant


def test_campaign_multi_variant_reports_are_attributed(tmp_path):
    spec = CampaignSpec(
        targets=("gadgets-stl",), tools=("teapot",), iterations=16,
        rounds=1, seed=5, spec_variants=("pht", "stl"),
    )
    summary = CampaignScheduler(spec).run()
    row = summary.row("gadgets-stl", "teapot")
    assert row.by_variant.get("stl", 0) >= 2
    assert row.to_dict()["by_variant"] == row.by_variant
    # Executions doubled: each variant fuzzes the full budget.
    assert row.executions == 2 * spec.iterations


def test_spectaint_only_non_pht_matrix_is_rejected():
    """A matrix that would expand to zero jobs fails loudly at spec time."""
    with pytest.raises(ValueError, match="pht"):
        CampaignSpec(targets=("gadgets",), tools=("spectaint",),
                     iterations=8, spec_variants=("btb",))


def test_hardening_breakdown_splits_partially_mitigated_sites():
    """A site whose PHT path died but whose STL path survived counts as
    eliminated-for-pht and residual-for-stl."""
    from repro.hardening.pipeline import _variant_breakdown

    eliminated = [{"variants": ["pht"]}]
    residual = [{"variants": ["pht", "stl"], "residual_variants": ["stl"]}]
    new = [{"variants": ["btb"]}]
    breakdown = _variant_breakdown(eliminated, residual, new)
    assert breakdown["pht"] == {"eliminated": 2, "residual": 0, "new": 0}
    assert breakdown["stl"] == {"eliminated": 0, "residual": 1, "new": 0}
    assert breakdown["btb"] == {"eliminated": 0, "residual": 0, "new": 1}
    # Records predating residual_variants fall back to all-residual.
    legacy = _variant_breakdown([], [{"variants": ["pht", "stl"]}], [])
    assert legacy["pht"]["residual"] == 1
    assert legacy["stl"]["residual"] == 1


def test_spectaint_jobs_stay_pht_only():
    spec = CampaignSpec(
        targets=("gadgets",), tools=("teapot", "spectaint"), iterations=8,
        rounds=1, seed=1, spec_variants=("pht", "btb"),
    )
    jobs = spec.jobs_for_round(0)
    spectaint = [job for job in jobs if job.tool == "spectaint"]
    assert {job.spec_variant for job in spectaint} == {"pht"}
    teapot = [job for job in jobs if job.tool == "teapot"]
    assert {job.spec_variant for job in teapot} == {"pht", "btb"}


def test_specfuzz_baseline_gains_variants(variant_binaries):
    """The SpecFuzz baseline detects planted STL sites too (novel: the
    original tool is PHT-only)."""
    from repro.baselines.specfuzz import (
        SpecFuzzConfig,
        SpecFuzzRewriter,
        SpecFuzzRuntime,
    )

    target = get_target("gadgets-stl")
    config = SpecFuzzConfig(variants=("stl",))
    binary = SpecFuzzRewriter(config).instrument(compile_vanilla(target))
    records = {}
    for engine in ("legacy", "fast"):
        runtime = SpecFuzzRuntime(binary,
                                  config=config.with_engine(engine))
        outcomes = []
        sites = set()
        for seed in target.seeds:
            result = runtime.run(seed)
            outcomes.append((result.status, result.cycles, result.steps,
                             [r.to_dict() for r in result.reports]))
            sites.update(r.site for r in result.reports)
        records[engine] = outcomes
        assert len(sites) >= 2
        assert all(site[3] == "stl" for site in sites)
    assert records["fast"] == records["legacy"]
