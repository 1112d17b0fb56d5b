"""Gadget report records and aggregation helpers.

A :class:`GadgetReport` is what the detection policies hand to the fuzzer
when an integrity check fires during speculation simulation (paper §6.2.3).
Reports are deduplicated by *gadget site* — the program counter of the
transmitting instruction together with the channel, the attacker class and
the speculation variant (PHT/BTB/RSB/STL) whose simulation surfaced it —
because fuzzing revisits the same gadget many times.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.records import read_record, write_record


class Channel(enum.Enum):
    """Side channel through which a gadget leaks (paper Fig. 6)."""

    MDS = "mds"
    CACHE = "cache"
    PORT = "port"


class AttackerClass(enum.Enum):
    """How the attacker controls the leaking access (paper §7.3 naming)."""

    USER = "user"        # attacker-directly controlled (User-*)
    MASSAGE = "massage"  # attacker-indirectly controlled (Massage-*)
    UNKNOWN = "unknown"  # baselines that cannot classify control


@dataclass(frozen=True)
class GadgetReport:
    """One detected Spectre gadget occurrence."""

    tool: str
    channel: Channel
    attacker: AttackerClass
    pc: int
    branch_addresses: Tuple[int, ...] = ()
    depth: int = 0
    description: str = ""
    #: speculation variant whose simulation surfaced the gadget ("pht",
    #: "btb", "rsb", "stl", or a third-party model name).
    variant: str = "pht"

    @property
    def site(self) -> Tuple[str, str, int, str]:
        """Deduplication key: (channel, attacker, transmitting pc, variant).

        The variant is part of the site: a PHT gadget and an STL gadget at
        the same program counter are different findings (they need
        different mitigations) and must never be silently merged.
        """
        return (self.channel.value, self.attacker.value, self.pc,
                self.variant)

    @property
    def category(self) -> str:
        """Category label in the paper's Table 4 style, e.g. ``User-Cache``."""
        return f"{self.attacker.value.capitalize()}-{self.channel.value.upper() if self.channel is Channel.MDS else self.channel.value.capitalize()}"

    def to_dict(self) -> Dict[str, object]:
        """Stable, JSON-ready serialization (campaign checkpoints, workers)."""
        return write_record(self)

    @classmethod
    def from_dict(cls, record: object, error: type = ValueError,
                  label: str = "{}") -> "GadgetReport":
        """Rebuild a report from :meth:`to_dict` output; a field that does
        not read back raises ``error``, named through ``label``.

        Records written before the multi-variant world carry no
        ``variant`` field; they were all produced by conditional-branch
        simulation, so the field defaults to ``"pht"``.
        """
        return read_record(cls, record, error, label)


class ReportCollection:
    """A deduplicated set of gadget reports with category accounting."""

    def __init__(self) -> None:
        self._by_site: Dict[Tuple[str, str, int], GadgetReport] = {}
        self.total_raw = 0

    def add(self, report: GadgetReport) -> bool:
        """Add a report; returns ``True`` if its site was new."""
        self.total_raw += 1
        if report.site in self._by_site:
            return False
        self._by_site[report.site] = report
        return True

    def extend(self, reports: Iterable[GadgetReport]) -> None:
        """Add many reports."""
        for report in reports:
            self.add(report)

    def merge(self, other: "ReportCollection") -> int:
        """Fold another collection's unique reports in; returns new sites.

        ``total_raw`` sums so cross-worker dedup ratios stay meaningful:
        the merged collection counts every raw occurrence either side saw.
        """
        new = 0
        for report in other._by_site.values():
            if report.site not in self._by_site:
                self._by_site[report.site] = report
                new += 1
        self.total_raw += other.total_raw
        return new

    def to_dicts(self) -> List[Dict[str, object]]:
        """Serialize the unique reports, sorted by site for stable output."""
        return [
            self._by_site[site].to_dict() for site in sorted(self._by_site)
        ]

    @classmethod
    def from_dicts(cls, records: Iterable[Dict[str, object]],
                   total_raw: int = 0) -> "ReportCollection":
        """Rebuild a collection from :meth:`to_dicts` output."""
        collection = cls()
        for record in records:
            collection.add(GadgetReport.from_dict(record))
        # ``add`` counted each record once; restore the recorded raw total
        # when the checkpoint carried one.
        if total_raw:
            collection.total_raw = total_raw
        return collection

    def __len__(self) -> int:
        return len(self._by_site)

    def __iter__(self) -> Iterator[GadgetReport]:
        return iter(self._by_site.values())

    def reports(self) -> List[GadgetReport]:
        """All unique reports."""
        return list(self._by_site.values())

    def count_by_category(self) -> Dict[str, int]:
        """Unique gadget counts per ``Attacker-Channel`` category."""
        counts: Dict[str, int] = {}
        for report in self._by_site.values():
            counts[report.category] = counts.get(report.category, 0) + 1
        return counts

    def count_by_variant(self) -> Dict[str, int]:
        """Unique gadget counts per speculation variant."""
        counts: Dict[str, int] = {}
        for report in self._by_site.values():
            counts[report.variant] = counts.get(report.variant, 0) + 1
        return counts

    def count(
        self,
        channel: Optional[Channel] = None,
        attacker: Optional[AttackerClass] = None,
    ) -> int:
        """Count unique reports matching the given channel/attacker filters."""
        total = 0
        for report in self._by_site.values():
            if channel is not None and report.channel is not channel:
                continue
            if attacker is not None and report.attacker is not attacker:
                continue
            total += 1
        return total
