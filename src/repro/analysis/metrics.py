"""Detection metrics: mapping gadget reports to ground truth (Table 3).

The paper scores detectors on artificially injected gadgets: every report
that does not correspond to an injected gadget counts as a false positive,
and injected gadgets that produce no report count as false negatives
(paper §7.2).  Reports are attributed to injected gadgets at *function*
granularity — a report whose program counter falls inside a function that
received an injection is credited to that function's gadgets — because the
injected snippet is the only attacker-reachable code in that function under
the Table 3 taint configuration (the normal input taint sources are
disabled, so only ``attack_input()`` data carries the User tag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.loader.binary_format import TelfBinary
from repro.sanitizers.reports import AttackerClass, GadgetReport
from repro.targets.injection import InjectedTarget


@dataclass
class DetectionScore:
    """TP/FP/FN counts plus derived precision and recall (a Table 3 cell)."""

    ground_truth: int
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 1.0 when nothing was reported at all."""
        reported = self.true_positives + self.false_positives
        if reported == 0:
            return 1.0
        return self.true_positives / reported

    @property
    def recall(self) -> float:
        """TP / GT."""
        if self.ground_truth == 0:
            return 1.0
        return self.true_positives / self.ground_truth

    def as_row(self) -> Dict[str, float]:
        """The score as a Table 3 style row."""
        return {
            "GT": self.ground_truth,
            "TP": self.true_positives,
            "FP": self.false_positives,
            "FN": self.false_negatives,
            "precision": round(self.precision, 3),
            "recall": round(self.recall, 3),
        }


def _function_of(binary: TelfBinary, pc: int) -> Optional[str]:
    symbol = binary.function_at(pc)
    if symbol is None:
        return None
    name = symbol.name
    # Reports from the Shadow Copy map back to the original function.
    if name.endswith("$spec"):
        name = name[: -len("$spec")]
    return name


def classify_reports(
    injected: InjectedTarget,
    reports: Iterable[GadgetReport],
    instrumented_binary: TelfBinary,
    require_user_attacker: bool = True,
) -> DetectionScore:
    """Score a detector's reports against an injected target's ground truth.

    Args:
        injected: the injection result carrying the ground truth.
        reports: the (deduplicated) reports the detector produced.
        instrumented_binary: the binary the reports' program counters refer
            to (the instrumented one for Teapot/SpecFuzz, the original for
            SpecTaint).
        require_user_attacker: only count reports classified as
            attacker-direct (used for Teapot/SpecTaint, whose policies
            distinguish attacker classes; SpecFuzz cannot and passes False).
    """
    gadget_functions = injected.functions_with_gadgets()
    hit_functions: Set[str] = set()
    false_positives = 0
    for report in reports:
        if require_user_attacker and report.attacker is AttackerClass.MASSAGE:
            continue
        function = _function_of(instrumented_binary, report.pc)
        if function is not None and function in gadget_functions:
            hit_functions.add(function)
        else:
            false_positives += 1

    true_positives = 0
    false_negatives = 0
    for gadget in injected.gadgets:
        if gadget.function in hit_functions:
            true_positives += 1
        else:
            false_negatives += 1
    return DetectionScore(
        ground_truth=injected.ground_truth_count,
        true_positives=true_positives,
        false_positives=false_positives,
        false_negatives=false_negatives,
    )


def precision_recall(true_positives: int, false_positives: int,
                     ground_truth: int) -> Tuple[float, float]:
    """Convenience helper returning ``(precision, recall)``."""
    score = DetectionScore(
        ground_truth=ground_truth,
        true_positives=true_positives,
        false_positives=false_positives,
        false_negatives=ground_truth - true_positives,
    )
    return score.precision, score.recall
