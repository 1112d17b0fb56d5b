"""CampaignResult serialization: the to_dict/from_dict round-trip.

``CampaignResult`` historically lacked the stable serialization its
siblings (``Corpus``, ``GadgetReport``, ``ReportCollection``) had, which
forced bespoke glue anywhere a whole fuzzing outcome had to cross a
process or file boundary.  These tests pin the exact round-trip the
:class:`repro.api.RunResult` artifact relies on.
"""

from __future__ import annotations

import json

from repro.fuzzing.fuzzer import CampaignResult
from repro.sanitizers.reports import (
    AttackerClass,
    Channel,
    GadgetReport,
    ReportCollection,
)


def _sample_result() -> CampaignResult:
    reports = ReportCollection()
    reports.add(GadgetReport(tool="teapot", channel=Channel.CACHE,
                             attacker=AttackerClass.USER, pc=0x1000,
                             branch_addresses=(0x990, 0x9a0), depth=2,
                             description="bounds-check bypass"))
    reports.add(GadgetReport(tool="teapot", channel=Channel.MDS,
                             attacker=AttackerClass.MASSAGE, pc=0x2000,
                             branch_addresses=(0x990,), depth=1))
    # A duplicate site bumps total_raw without adding a unique report.
    reports.add(GadgetReport(tool="teapot", channel=Channel.CACHE,
                             attacker=AttackerClass.USER, pc=0x1000,
                             branch_addresses=(0x990,), depth=3))
    return CampaignResult(
        executions=120, total_cycles=98765, total_steps=43210,
        crashes=3, hangs=1, corpus_size=17, normal_coverage=240,
        speculative_coverage=88, reports=reports,
        spec_stats={"simulations_started": 52, "rollbacks": 12},
    )


def test_round_trip_is_exact():
    result = _sample_result()
    rebuilt = CampaignResult.from_dict(result.to_dict())
    assert rebuilt.to_dict() == result.to_dict()
    assert rebuilt.executions == result.executions
    assert rebuilt.gadget_count() == result.gadget_count() == 2
    assert rebuilt.reports.total_raw == result.reports.total_raw == 3
    assert rebuilt.count_by_category() == result.count_by_category()
    assert rebuilt.spec_stats == result.spec_stats


def test_serialized_form_is_json_clean_and_stable():
    record = _sample_result().to_dict()
    assert json.loads(json.dumps(record)) == record
    # Reports are sorted by site and spec_stats by key: stable output.
    pcs = [r["pc"] for r in record["reports"]]
    assert pcs == sorted(pcs)
    assert list(record["spec_stats"]) == sorted(record["spec_stats"])


def test_from_dict_tolerates_missing_optionals():
    rebuilt = CampaignResult.from_dict({"executions": 5})
    assert rebuilt.executions == 5
    assert rebuilt.gadget_count() == 0
    assert rebuilt.spec_stats == {}
