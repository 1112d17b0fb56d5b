"""Tests for gadget-report dedup, merge and serialization semantics."""

import pytest

from repro.sanitizers.reports import (
    AttackerClass,
    Channel,
    GadgetReport,
    ReportCollection,
)


def make_report(pc=0x100, channel=Channel.CACHE, attacker=AttackerClass.USER,
                tool="teapot", depth=1, description="", variant="pht"):
    return GadgetReport(
        tool=tool, channel=channel, attacker=attacker, pc=pc,
        branch_addresses=(0x40, 0x44), depth=depth, description=description,
        variant=variant,
    )


# -- dedup -----------------------------------------------------------------

def test_variant_is_part_of_the_site():
    """A PHT and an STL gadget at the same pc are different findings."""
    pht = make_report(pc=0x100)
    stl = make_report(pc=0x100, variant="stl")
    assert pht.site != stl.site

    collection = ReportCollection()
    assert collection.add(pht)
    assert collection.add(stl)           # not silently merged
    assert not collection.add(make_report(pc=0x100, variant="stl"))
    assert len(collection) == 2
    assert collection.count_by_variant() == {"pht": 1, "stl": 1}


def test_variant_survives_serialization_round_trip():
    report = make_report(variant="btb")
    rebuilt = GadgetReport.from_dict(report.to_dict())
    assert rebuilt == report
    assert rebuilt.variant == "btb"


def test_from_dict_defaults_missing_variant_to_pht():
    """Pre-variant records (old checkpoints, saved report files) load as
    conditional-branch findings."""
    record = make_report().to_dict()
    del record["variant"]
    rebuilt = GadgetReport.from_dict(record)
    assert rebuilt.variant == "pht"
    assert rebuilt == make_report()


@pytest.mark.parametrize("edit, error", [
    (lambda record: record.pop("tool"), "tool: missing"),
    (lambda record: record.update(pc="0x100"), "pc: wrong type"),
    (lambda record: record.update(channel="radio"), "channel: bad value"),
    (lambda record: record.update(branch_addresses=["x"]),
     "branch_addresses: wrong item type"),
])
def test_from_dict_names_the_damaged_field(edit, error):
    record = make_report().to_dict()
    edit(record)
    with pytest.raises(ValueError) as excinfo:
        GadgetReport.from_dict(record)
    assert str(excinfo.value) == error


def test_collection_dedups_by_site():
    collection = ReportCollection()
    assert collection.add(make_report())
    # Same site, different metadata: still a duplicate.
    assert not collection.add(make_report(depth=3, description="again"))
    assert len(collection) == 1
    assert collection.total_raw == 2


def test_distinct_sites_are_kept_separate():
    collection = ReportCollection()
    collection.add(make_report(pc=0x100))
    collection.add(make_report(pc=0x104))
    collection.add(make_report(pc=0x100, channel=Channel.MDS))
    collection.add(make_report(pc=0x100, attacker=AttackerClass.MASSAGE))
    assert len(collection) == 4


# -- merge ------------------------------------------------------------------

def test_merge_dedups_across_collections():
    left = ReportCollection()
    left.extend([make_report(pc=0x100), make_report(pc=0x104)])
    right = ReportCollection()
    right.extend([make_report(pc=0x104), make_report(pc=0x108)])

    new = left.merge(right)
    assert new == 1
    assert len(left) == 3
    # Raw totals sum so cross-worker dedup ratios stay meaningful.
    assert left.total_raw == 4


def test_merge_keeps_first_seen_report():
    left = ReportCollection()
    left.add(make_report(depth=1))
    right = ReportCollection()
    right.add(make_report(depth=9))
    left.merge(right)
    assert left.reports()[0].depth == 1


# -- serialization ----------------------------------------------------------

def test_report_dict_round_trip():
    report = make_report(description="oob load")
    rebuilt = GadgetReport.from_dict(report.to_dict())
    assert rebuilt == report
    assert rebuilt.site == report.site
    assert rebuilt.category == report.category


def test_collection_to_dicts_is_sorted_and_stable():
    collection = ReportCollection()
    collection.add(make_report(pc=0x200))
    collection.add(make_report(pc=0x100))
    collection.add(make_report(pc=0x100, channel=Channel.PORT))
    sites = [
        (d["channel"], d["attacker"], d["pc"]) for d in collection.to_dicts()
    ]
    assert sites == sorted(sites)

    # Insertion order must not affect the serialized form.
    other = ReportCollection()
    other.add(make_report(pc=0x100, channel=Channel.PORT))
    other.add(make_report(pc=0x100))
    other.add(make_report(pc=0x200))
    assert other.to_dicts() == collection.to_dicts()


def test_collection_from_dicts_round_trip():
    collection = ReportCollection()
    collection.add(make_report(pc=0x100))
    collection.add(make_report(pc=0x100))  # raw duplicate
    collection.add(make_report(pc=0x104, channel=Channel.MDS))

    rebuilt = ReportCollection.from_dicts(collection.to_dicts(),
                                          total_raw=collection.total_raw)
    assert len(rebuilt) == len(collection)
    assert rebuilt.total_raw == 3
    assert rebuilt.to_dicts() == collection.to_dicts()
    assert rebuilt.count_by_category() == collection.count_by_category()
