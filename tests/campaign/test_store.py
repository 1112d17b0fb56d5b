"""Tests for the cross-worker report store and checkpoint state."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.store import (
    CampaignState,
    CheckpointError,
    GroupStats,
    ReportStore,
    group_key_str,
    parse_group_key,
)
from repro.fuzzing.corpus import Corpus
from repro.sanitizers.reports import AttackerClass, Channel, GadgetReport

KEY = ("jsmn", "teapot", "vanilla")


def report_dicts(*pcs):
    return [
        GadgetReport(tool="teapot", channel=Channel.CACHE,
                     attacker=AttackerClass.USER, pc=pc,
                     branch_addresses=(), depth=1).to_dict()
        for pc in pcs
    ]


def test_group_key_round_trip():
    assert parse_group_key(group_key_str(KEY)) == KEY


def test_store_dedups_across_workers():
    store = ReportStore()
    assert store.add_serialized(KEY, report_dicts(0x100, 0x104)) == 2
    # A second worker found one overlapping and one new site.
    assert store.add_serialized(KEY, report_dicts(0x104, 0x108)) == 1
    assert store.unique_count(KEY) == 3
    assert store.total_unique() == 3
    # Raw occurrences (including worker-local duplicates) are preserved.
    assert store.add_serialized(KEY, report_dicts(0x100), raw_count=5) == 0
    assert store.collection(KEY).total_raw == 9


def test_add_serialized_is_idempotent():
    """Feeding the same worker payload twice must not inflate uniques.

    The service queue's exactly-once completion leans on this: a
    re-delivered result merges to the same unique-site totals.
    """
    store = ReportStore()
    payload = report_dicts(0x100, 0x104, 0x108)
    assert store.add_serialized(KEY, payload, raw_count=3) == 3
    assert store.add_serialized(KEY, payload, raw_count=3) == 0
    assert store.unique_count(KEY) == 3
    assert store.collection(KEY).count_by_variant() == \
        ReportStore.from_dict(store.to_dict()).collection(KEY).count_by_variant()


def test_cross_order_merge_same_uniques():
    """Site dedup is order-independent: shuffled payloads, same totals."""
    payloads = [report_dicts(0x100, 0x104), report_dicts(0x104, 0x108),
                report_dicts(0x108, 0x10c), report_dicts(0x100)]
    forward = ReportStore()
    for payload in payloads:
        forward.add_serialized(KEY, payload)
    shuffled = ReportStore()
    for payload in reversed(payloads):
        shuffled.add_serialized(KEY, payload)
    assert forward.total_unique() == shuffled.total_unique() == 4
    assert forward.collection(KEY).count_by_variant() == \
        shuffled.collection(KEY).count_by_variant()
    assert forward.collection(KEY).total_raw == \
        shuffled.collection(KEY).total_raw


def test_store_keeps_groups_separate():
    store = ReportStore()
    store.add_serialized(KEY, report_dicts(0x100))
    store.add_serialized(("jsmn", "specfuzz", "vanilla"), report_dicts(0x100))
    assert store.total_unique() == 2
    assert store.keys() == [("jsmn", "specfuzz", "vanilla"), KEY]


def test_store_dict_round_trip():
    store = ReportStore()
    store.add_serialized(KEY, report_dicts(0x100, 0x104), raw_count=7)
    rebuilt = ReportStore.from_dict(store.to_dict())
    assert rebuilt.unique_count(KEY) == 2
    assert rebuilt.collection(KEY).total_raw == 7
    assert rebuilt.to_dict() == store.to_dict()


def test_state_checkpoint_round_trip(tmp_path):
    state = CampaignState(fingerprint="abc123", spec_dict={"targets": ["jsmn"]},
                          completed_rounds=2)
    corpus = Corpus([b"seed"])
    corpus.add(b"found", 3, 1, reason="speculative")
    state.corpora[KEY] = corpus
    stats = state.group_stats(KEY)
    stats.executions = 40
    stats.spec_stats["rollbacks"] = 9
    state.store.add_serialized(KEY, report_dicts(0x100))

    path = str(tmp_path / "ckpt.json")
    state.save(path)
    # The checkpoint is plain JSON (documented format).
    with open(path) as handle:
        raw = json.load(handle)
    assert raw["version"] == 1
    assert raw["completed_rounds"] == 2

    loaded = CampaignState.load(path)
    assert loaded.fingerprint == "abc123"
    assert loaded.completed_rounds == 2
    assert loaded.corpora[KEY].to_bytes_list() == [b"seed", b"found"]
    assert loaded.corpora[KEY].entries[1].reason == "speculative"
    assert loaded.stats[KEY].executions == 40
    assert loaded.stats[KEY].spec_stats == {"rollbacks": 9}
    assert loaded.store.unique_count(KEY) == 1
    assert loaded.to_dict() == state.to_dict()


def test_state_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 99, "fingerprint": "x", "spec": {}}))
    with pytest.raises(ValueError, match="version"):
        CampaignState.load(str(path))


def test_group_stats_round_trip():
    stats = GroupStats(executions=10, crashes=2, normal_coverage=5,
                       spec_stats={"a": 1})
    assert GroupStats.from_dict(stats.to_dict()) == stats


def _valid_checkpoint():
    state = CampaignState(fingerprint="abc123", spec_dict={"targets": ["jsmn"]},
                          completed_rounds=1)
    state.corpora[KEY] = Corpus([b"seed"])
    state.group_stats(KEY).spec_stats["rollbacks"] = 9
    state.store.add_serialized(KEY, report_dicts(0x100))
    return state.to_dict()


def _with(**fields):
    record = _valid_checkpoint()
    record.update(fields)
    return record


@pytest.mark.parametrize("record,field", [
    ([], "JSON object"),
    ("str", "JSON object"),
    (5, "JSON object"),
    ({"version": 1}, "'fingerprint'"),
    (_with(corpora=5), "'corpora'"),
    (_with(stats={group_key_str(KEY): {"spec_stats": {"rollbacks": "x"}}}),
     "'stats'"),
    (_with(stats={group_key_str(KEY): []}), "'stats'"),
    (_with(reports={group_key_str(KEY): {"reports": [{"pc": 1}]}}),
     "'reports'"),
    (_with(reports={"not-a-group": {}}), "'reports'"),
], ids=["list", "string", "number", "no-fingerprint", "corpora-number",
        "stats-bad-counter", "stats-list", "reports-bad-entry",
        "reports-bad-key"])
def test_malformed_checkpoints_raise_checkpoint_errors(tmp_path, record,
                                                       field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    with pytest.raises(CheckpointError, match=field):
        CampaignState.load(str(path))


def test_checkpoint_that_is_not_json_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CheckpointError, match="not JSON"):
        CampaignState.load(str(path))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8)

_PATHS = [(), ("version",), ("fingerprint",), ("spec",),
          ("completed_rounds",), ("corpora",), ("corpora", "jsmn/teapot/vanilla"),
          ("stats",), ("stats", "jsmn/teapot/vanilla"),
          ("stats", "jsmn/teapot/vanilla", "spec_stats"),
          ("reports",), ("reports", "jsmn/teapot/vanilla"),
          ("reports", "jsmn/teapot/vanilla", "reports")]


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(_PATHS), value=_JSON)
def test_any_json_in_any_checkpoint_field_loads_or_raises_typed(path, value):
    """Replacing any field of a valid checkpoint (or the whole of it) with
    any small JSON value either loads a state that round-trips, or raises
    :class:`CheckpointError` — never another exception."""
    record = _valid_checkpoint()
    if path:
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        record = value
    try:
        state = CampaignState.from_dict(record)
    except CheckpointError:
        return
    again = CampaignState.from_dict(json.loads(json.dumps(state.to_dict())))
    assert again.to_dict() == state.to_dict()
