"""Fuzzing corpus: interesting inputs kept for further mutation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.records import read_record, write_record

#: Why an entry was kept: seeded, novel normal coverage, novel speculative
#: coverage, both axes at once, a crashing input, or merged from a peer
#: corpus (campaign corpus sync).
KEEP_REASONS = ("seed", "normal", "speculative", "both", "crash", "merge")


@dataclass
class CorpusEntry:
    """One saved input and the coverage it achieved when first executed."""

    data: bytes
    normal_coverage: int = 0
    speculative_coverage: int = 0
    executions: int = 0
    reason: str = "seed"

    @property
    def coverage_signature(self) -> Tuple[int, int]:
        """(normal, speculative) coverage sizes when the entry was added."""
        return (self.normal_coverage, self.speculative_coverage)

    def to_dict(self) -> Dict[str, object]:
        """Serialize for campaign checkpoints (data as hex)."""
        return write_record(self)

    @classmethod
    def from_dict(cls, record: object, error: type = ValueError,
                  label: str = "{}") -> "CorpusEntry":
        """Rebuild an entry from :meth:`to_dict` output; a field that does
        not read back raises ``error``, named through ``label``."""
        return read_record(cls, record, error, label)


class Corpus:
    """A deduplicated pool of interesting inputs."""

    def __init__(self, seeds: Optional[List[bytes]] = None) -> None:
        self.entries: List[CorpusEntry] = []
        self._seen = set()
        for seed in seeds or []:
            self.add(seed, 0, 0)

    def __len__(self) -> int:
        return len(self.entries)

    def add(
        self,
        data: bytes,
        normal_coverage: int,
        speculative_coverage: int,
        reason: str = "seed",
    ) -> bool:
        """Add an input if it is not already present; returns ``True`` if added.

        ``reason`` records which coverage axis justified keeping the entry
        (one of :data:`KEEP_REASONS`) so campaign-level corpus analysis can
        tell speculative-coverage finds from normal-coverage finds.
        """
        if data in self._seen:
            return False
        self._seen.add(data)
        self.entries.append(
            CorpusEntry(data, normal_coverage, speculative_coverage, reason=reason)
        )
        return True

    def merge(self, other: "Corpus") -> int:
        """Fold another corpus's entries in; returns how many were new.

        Entries keep their recorded coverage but are tagged ``merge`` so a
        sync'd entry is distinguishable from one this corpus discovered.
        """
        added = 0
        for entry in other.entries:
            if self.add(entry.data, entry.normal_coverage,
                        entry.speculative_coverage, reason="merge"):
                added += 1
        return added

    def to_bytes_list(self) -> List[bytes]:
        """All stored inputs in insertion order (round-trips via ``Corpus()``)."""
        return [entry.data for entry in self.entries]

    def shards(self, count: int) -> List[List[bytes]]:
        """Split the inputs round-robin into ``count`` shards.

        Every shard is guaranteed at least one input (the first entry is
        replicated into shards that would otherwise come up empty), so each
        campaign worker always has something to mutate.
        """
        if count < 1:
            raise ValueError("shard count must be >= 1")
        data = self.to_bytes_list()
        shards: List[List[bytes]] = [[] for _ in range(count)]
        for index, item in enumerate(data):
            shards[index % count].append(item)
        if data:
            for shard in shards:
                if not shard:
                    shard.append(data[0])
        return shards

    def to_dicts(self) -> List[Dict[str, object]]:
        """Serialize every entry (campaign checkpoint format)."""
        return [entry.to_dict() for entry in self.entries]

    @classmethod
    def from_dicts(cls, records: List[Dict[str, object]]) -> "Corpus":
        """Rebuild a corpus from :meth:`to_dicts` output."""
        corpus = cls()
        for record in records:
            entry = CorpusEntry.from_dict(record)
            if entry.data not in corpus._seen:
                corpus._seen.add(entry.data)
                corpus.entries.append(entry)
        return corpus

    def select(self, index: int) -> CorpusEntry:
        """Pick an entry for mutation (round-robin by index)."""
        if not self.entries:
            raise IndexError("corpus is empty")
        entry = self.entries[index % len(self.entries)]
        entry.executions += 1
        return entry

    def total_bytes(self) -> int:
        """Total size of all stored inputs."""
        return sum(len(e.data) for e in self.entries)
