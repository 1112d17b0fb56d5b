"""The facade must be a re-plumbing, not a re-implementation.

The fuzz and campaign stages are compared against the campaign
scheduler they wrap (``run_campaign``): identical campaign summaries.
Combined with the golden-table tests in ``tests/analysis``, this pins
the bit-identical-routing acceptance criterion.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.campaign.scheduler import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.fuzzing.fuzzer import CampaignResult


def test_fuzz_stage_matches_direct_campaign():
    spec = CampaignSpec(targets=("gadgets",), tools=("teapot",),
                        variants=("vanilla",), iterations=40, rounds=1,
                        shards=1, seed=21, skip_uninjectable=False)
    direct = run_campaign(spec)
    facade = (api.pipeline(target="gadgets", seed=21)
              .fuzz(iterations=40).report())
    assert facade.summary.to_dict() == direct.to_dict()
    assert facade.stage("fuzz").payload["fingerprint"] == direct.fingerprint


def test_campaign_stage_matches_direct_campaign():
    spec = CampaignSpec(targets=("gadgets", "jsmn"), tools=("teapot",),
                        variants=("vanilla",), iterations=30, rounds=2,
                        shards=2, seed=8)
    direct = run_campaign(spec)
    facade = api.pipeline().campaign(spec=spec).report()
    assert facade.stage("campaign").payload["summary"] == direct.to_dict()


def test_fuzz_stage_embeds_a_campaign_result():
    # The fuzz payload is a superset of CampaignResult.to_dict(): the
    # embedded record round-trips through the dataclass without glue.
    run = api.pipeline(target="gadgets", seed=21).fuzz(iterations=40).report()
    payload = run.stage("fuzz").payload
    rebuilt = CampaignResult.from_dict(payload)
    assert rebuilt.to_dict() == {
        key: payload[key] for key in rebuilt.to_dict()
    }
    assert rebuilt.executions == 40
    assert rebuilt.gadget_count() == payload["unique_gadgets"]


def test_engine_choice_is_result_invariant_through_the_facade():
    fast = (api.pipeline(target="gadgets", seed=13, engine="fast")
            .fuzz(iterations=40).report())
    legacy = (api.pipeline(target="gadgets", seed=13, engine="legacy")
              .fuzz(iterations=40).report())
    fast_payload = dict(fast.stage("fuzz").payload)
    legacy_payload = dict(legacy.stage("fuzz").payload)
    # The engine is recorded in the spec but never affects outcomes.
    assert fast_payload.pop("spec")["engine"] == "fast"
    assert legacy_payload.pop("spec")["engine"] == "legacy"
    assert fast_payload == legacy_payload
