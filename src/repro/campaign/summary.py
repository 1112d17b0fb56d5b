"""Campaign summaries: the Table-3/Table-4-style output of a matrix run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.campaign.store import CampaignState, group_key_str
from repro.fuzzing.fuzzer import FuzzCounts
from repro.records import write_record
from repro.sanitizers.reports import ReportCollection


@dataclass(kw_only=True)
class GroupSummary(FuzzCounts):
    """One row of the campaign table: one (target, tool, variant) group."""

    target: str
    tool: str
    variant: str
    corpus_size: int = 0
    unique_gadgets: int = 0
    raw_reports: int = 0
    #: jobs of this group that raised instead of completing.
    failed_jobs: int = 0
    by_category: Dict[str, int] = field(default_factory=dict)
    #: unique gadget sites per speculation variant ("pht", "btb", ...).
    by_variant: Dict[str, int] = field(default_factory=dict)
    #: summed worker-side telemetry counter deltas of this group
    #: (observation-only; deliberately *not* serialized by ``to_dict``,
    #: which is the bit-identity basis of the replay tests — a campaign
    #: with telemetry on must summarize identically to one without).
    telemetry_counts: Dict[str, int] = field(default_factory=dict)
    #: the deduplicated reports themselves (not serialized by ``to_dict``;
    #: the experiment harness classifies them against ground truth).
    collection: ReportCollection = field(default_factory=ReportCollection)

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.target, self.tool, self.variant)

    def to_dict(self) -> Dict[str, object]:
        return write_record(self, exclude=("telemetry_counts", "collection"))


@dataclass
class CampaignSummary:
    """The final product of a campaign: per-group rows plus totals."""

    fingerprint: str
    rounds_completed: int
    groups: List[GroupSummary] = field(default_factory=list)

    def row(self, target: str, tool: str, variant: str = "vanilla") -> GroupSummary:
        """Look up one group's row."""
        for group in self.groups:
            if group.key == (target, tool, variant):
                return group
        raise KeyError(f"no group {group_key_str((target, tool, variant))!r}")

    def total_unique_gadgets(self) -> int:
        return sum(group.unique_gadgets for group in self.groups)

    def total_executions(self) -> int:
        return sum(group.executions for group in self.groups)

    def total_failed_jobs(self) -> int:
        return sum(group.failed_jobs for group in self.groups)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form; also the equality basis of the replay tests."""
        return {
            "fingerprint": self.fingerprint,
            "rounds_completed": self.rounds_completed,
            "groups": [group.to_dict() for group in self.groups],
        }

    def format_table(self) -> str:
        """Render the per-target gadget table (paper Table 4 style)."""
        categories = sorted({
            category for group in self.groups for category in group.by_category
        })
        headers = (["target", "tool", "variant", "execs", "crash", "corpus",
                    "cov(n/s)", "gadgets", "raw"] + categories)
        rows: List[List[str]] = []
        for group in self.groups:
            rows.append([
                group.target, group.tool, group.variant,
                str(group.executions), str(group.crashes),
                str(group.corpus_size),
                f"{group.normal_coverage}/{group.speculative_coverage}",
                str(group.unique_gadgets), str(group.raw_reports),
            ] + [str(group.by_category.get(c, 0)) for c in categories])
        widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
                  else len(headers[i]) for i in range(len(headers))]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "  ".join("-" * widths[i] for i in range(len(headers))),
        ]
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        lines.append("")
        total = (
            f"{len(self.groups)} groups, {self.total_executions()} executions, "
            f"{self.total_unique_gadgets()} unique gadget sites "
            f"({self.rounds_completed} rounds)"
        )
        failed = self.total_failed_jobs()
        if failed:
            total += f" — {failed} job(s) FAILED"
        lines.append(total)
        return "\n".join(lines)


def summarize(state: CampaignState) -> CampaignSummary:
    """Build the summary rows from a (possibly resumed) campaign state."""
    summary = CampaignSummary(
        fingerprint=state.fingerprint,
        rounds_completed=state.completed_rounds,
    )
    keys = sorted(set(state.stats) | set(state.corpora) | set(state.store.keys()))
    for key in keys:
        target, tool, variant = key
        stats = state.group_stats(key)
        corpus = state.corpus(key)
        collection = state.store.collection(key)
        group = GroupSummary(
            target=target, tool=tool, variant=variant,
            corpus_size=len(corpus) if corpus is not None else 0,
            unique_gadgets=len(collection),
            raw_reports=collection.total_raw,
            failed_jobs=stats.failed_jobs,
            by_category=collection.count_by_category(),
            by_variant=collection.count_by_variant(),
            telemetry_counts=dict(stats.telemetry_counts),
            collection=collection,
        )
        group.merge(stats)
        summary.groups.append(group)
    return summary
