"""Report dedup store and campaign checkpoint state.

The :class:`ReportStore` aggregates gadget reports from every worker of a
campaign, deduplicating by gadget site — (channel, attacker, pc) — within
each (target, tool, variant) group, exactly as :class:`ReportCollection`
does within one fuzzing process.  The :class:`CampaignState` bundles the
store with the synchronized corpora and per-group counters and serializes
the whole thing as JSON, which is the checkpoint/resume format of
``python -m repro.campaign``.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fuzzing.corpus import Corpus
from repro.fuzzing.fuzzer import FuzzCounts
from repro.records import REQUIRED, check_fields, read_record, write_record
from repro.sanitizers.reports import ReportCollection

#: Checkpoint format version; bump on incompatible layout changes.
CHECKPOINT_VERSION = 1

GroupKey = Tuple[str, str, str]


class CheckpointError(ValueError):
    """A checkpoint that is not a campaign state: names the bad field."""


#: checkpoint fields: (types, default), and how a message names one.
_FIELDS = {"version": (int, 0), "fingerprint": (str, REQUIRED),
           "spec": (dict, REQUIRED), "completed_rounds": (int, 0),
           "corpora": (dict, {}), "stats": (dict, {}), "reports": (dict, {})}
_LABEL = "checkpoint {!r}"


def group_key_str(key: GroupKey) -> str:
    """Encode a (target, tool, variant) key for JSON object keys."""
    return "/".join(key)

def parse_group_key(text: str) -> GroupKey:
    """Decode :func:`group_key_str` output."""
    target, tool, variant = text.split("/")
    return (target, tool, variant)


@dataclass(kw_only=True)
class GroupStats(FuzzCounts):
    """Summed execution counters of one (target, tool, variant) group."""

    #: jobs that raised instead of completing (their payloads are empty and
    #: contribute nothing to the other counters).
    failed_jobs: int = 0
    #: summed worker-side telemetry counter deltas (``fuzz.*``,
    #: ``engine.*``, ``engine.jit.cache.*`` — see
    #: :attr:`repro.campaign.worker.WorkerResult.telemetry_counts`).
    #: Observation-only bookkeeping: empty in non-telemetry campaigns and
    #: serialized only when non-empty, so checkpoints written with
    #: telemetry off keep the layout they had before the field existed.
    telemetry_counts: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return write_record(self, omit_defaults=("telemetry_counts",))

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "GroupStats":
        return read_record(cls, record, ValueError)


class ReportStore:
    """Cross-worker gadget-report deduplication, grouped per campaign cell."""

    def __init__(self) -> None:
        self._collections: Dict[GroupKey, ReportCollection] = {}

    def collection(self, key: GroupKey) -> ReportCollection:
        """The (created-on-demand) collection of one group."""
        if key not in self._collections:
            self._collections[key] = ReportCollection()
        return self._collections[key]

    def add_serialized(self, key: GroupKey,
                       report_dicts: List[Dict[str, object]],
                       raw_count: int = 0) -> int:
        """Merge one worker's serialized reports; returns new unique sites."""
        incoming = ReportCollection.from_dicts(report_dicts)
        collection = self.collection(key)
        new = collection.merge(incoming)
        # ``merge`` added ``incoming.total_raw`` (== len(report_dicts));
        # account for occurrences the worker deduplicated locally.
        if raw_count > len(report_dicts):
            collection.total_raw += raw_count - len(report_dicts)
        return new

    def keys(self) -> List[GroupKey]:
        """All groups with at least one report collection, sorted."""
        return sorted(self._collections)

    def unique_count(self, key: GroupKey) -> int:
        """Unique gadget sites of one group (0 if the group is unknown)."""
        collection = self._collections.get(key)
        return len(collection) if collection is not None else 0

    def total_unique(self) -> int:
        """Unique gadget sites across every group."""
        return sum(len(c) for c in self._collections.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (stable ordering)."""
        return {
            group_key_str(key): {
                "reports": self._collections[key].to_dicts(),
                "total_raw": self._collections[key].total_raw,
            }
            for key in self.keys()
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "ReportStore":
        store = cls()
        for key_text, entry in record.items():
            store._collections[parse_group_key(key_text)] = (
                ReportCollection.from_dicts(
                    entry.get("reports", []),
                    total_raw=int(entry.get("total_raw", 0)),
                )
            )
        return store


@dataclass
class CampaignState:
    """Everything a campaign needs to resume: corpora, reports, counters."""

    fingerprint: str
    spec_dict: Dict[str, object]
    completed_rounds: int = 0
    corpora: Dict[GroupKey, Corpus] = field(default_factory=dict)
    stats: Dict[GroupKey, GroupStats] = field(default_factory=dict)
    store: ReportStore = field(default_factory=ReportStore)

    def corpus(self, key: GroupKey) -> Optional[Corpus]:
        return self.corpora.get(key)

    def group_stats(self, key: GroupKey) -> GroupStats:
        if key not in self.stats:
            self.stats[key] = GroupStats()
        return self.stats[key]

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "spec": self.spec_dict,
            "completed_rounds": self.completed_rounds,
            "corpora": {
                group_key_str(key): corpus.to_dicts()
                for key, corpus in sorted(self.corpora.items())
            },
            "stats": {
                group_key_str(key): stats.to_dict()
                for key, stats in sorted(self.stats.items())
            },
            "reports": self.store.to_dict(),
        }

    @classmethod
    def from_dict(cls, record: object) -> "CampaignState":
        """Rebuild a state from :meth:`to_dict` output (or its JSON bytes).

        Raises :class:`CheckpointError`, naming the field, for anything
        else — valid JSON of the wrong shape included.
        """
        record = check_fields(record, _FIELDS, CheckpointError, _LABEL)
        version = record["version"]
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        if record["completed_rounds"] < 0:
            raise CheckpointError(
                f"{_LABEL.format('completed_rounds')}: negative")
        state = cls(fingerprint=record["fingerprint"],
                    spec_dict=dict(record["spec"]),
                    completed_rounds=record["completed_rounds"])
        for name, attribute, parse in (
                ("corpora", "corpora", lambda value: {
                    parse_group_key(key): Corpus.from_dicts(entries)
                    for key, entries in value.items()}),
                ("stats", "stats", lambda value: {
                    parse_group_key(key): GroupStats.from_dict(stats)
                    for key, stats in value.items()}),
                ("reports", "store", ReportStore.from_dict)):
            try:
                setattr(state, attribute, parse(record[name]))
            except (AttributeError, KeyError, OverflowError, TypeError,
                    ValueError) as error:
                raise CheckpointError(
                    f"{_LABEL.format(name)}: {type(error).__name__}: "
                    f"{error}") from error
        return state

    def save(self, path: str) -> None:
        """Write the checkpoint atomically (tmp file + rename)."""
        directory = os.path.dirname(os.path.abspath(path)) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(prefix=".campaign-", suffix=".json",
                                        dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

    @classmethod
    def load(cls, path: str) -> "CampaignState":
        """Read a checkpoint written by :meth:`save`."""
        with open(path, "rb") as handle:
            return cls.from_dict(handle.read())
