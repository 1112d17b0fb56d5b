"""Coverage-guided mutational fuzzer.

Drives an instrumented binary (wrapped in a :class:`FuzzTarget`) over
mutated inputs, keeping those that reach new *normal* or *speculative*
coverage (paper §6.3 tracks the two separately) and collecting the gadget
reports the detection policy raises.  The loop is a faithful, deterministic
miniature of the honggfuzz persistent-mode campaigns used in the paper's
experiments: the paper fuzzes each binary for 24 hours, this reproduction
fuzzes for a configurable number of iterations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.fuzzing.corpus import Corpus
from repro.fuzzing.mutators import Mutator
from repro.records import read_record, write_record
from repro.runtime.emulator import ExecutionResult
from repro.sanitizers.reports import ReportCollection
from repro.telemetry.context import active as _active_telemetry
from repro.telemetry.metrics import merge_counts


class FuzzTarget:
    """Adapter between the fuzzer and an executable runtime.

    Any object with a ``run(data) -> ExecutionResult`` method and an
    optional ``coverage`` attribute (a
    :class:`repro.coverage.sancov.CoverageRuntime`) can be fuzzed:
    :class:`repro.core.teapot.TeapotRuntime`, the baselines' runtimes, or a
    bare :class:`repro.runtime.emulator.Emulator`.
    """

    def __init__(self, runtime) -> None:
        self.runtime = runtime

    def execute(self, data: bytes) -> ExecutionResult:
        """Run one input."""
        return self.runtime.run(data)

    def coverage_signature(self):
        """Current (normal, speculative) coverage sizes, or ``(0, 0)``."""
        coverage = getattr(self.runtime, "coverage", None)
        if coverage is None:
            return (0, 0)
        return coverage.new_coverage_signature()


@dataclass
class FuzzCounts:
    """The counters of a fuzzing outcome, from one job to a campaign group.

    :meth:`merge` is their one merge rule, and their JSON form is the
    :func:`~repro.records.write_record` of the record that holds them.
    """

    executions: int = 0
    crashes: int = 0
    hangs: int = 0
    total_cycles: int = 0
    total_steps: int = 0
    #: coverage sizes: coverage maps are per runtime, so outcomes of
    #: different runtimes keep the peak rather than a sum.
    normal_coverage: int = 0
    speculative_coverage: int = 0
    spec_stats: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "FuzzCounts") -> None:
        """Fold ``other``'s counters into these."""
        self.executions += other.executions
        self.crashes += other.crashes
        self.hangs += other.hangs
        self.total_cycles += other.total_cycles
        self.total_steps += other.total_steps
        self.normal_coverage = max(self.normal_coverage,
                                   other.normal_coverage)
        self.speculative_coverage = max(self.speculative_coverage,
                                        other.speculative_coverage)
        merge_counts(self.spec_stats, other.spec_stats)


@dataclass(kw_only=True)
class CampaignResult(FuzzCounts):
    """Aggregated outcome of a fuzzing campaign."""

    corpus_size: int = 0
    reports: ReportCollection = field(default_factory=ReportCollection)

    def gadget_count(self) -> int:
        """Number of unique gadget sites found."""
        return len(self.reports)

    def count_by_category(self) -> Dict[str, int]:
        """Unique gadget counts per ``Attacker-Channel`` category."""
        return self.reports.count_by_category()

    def to_dict(self) -> Dict[str, object]:
        """Stable JSON-ready form, so campaign artifacts — e.g.
        :class:`repro.api.RunResult` — can embed a whole fuzzing outcome
        without bespoke glue."""
        return dict(write_record(self, exclude=("reports",)),
                    reports=self.reports.to_dicts(),
                    raw_reports=self.reports.total_raw)

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "CampaignResult":
        """Rebuild a result from :meth:`to_dict` output (exact round-trip)."""
        result = read_record(cls, record, ValueError, exclude=("reports",))
        result.reports = ReportCollection.from_dicts(
            record.get("reports", []),
            total_raw=int(record.get("raw_reports", 0)))
        return result


class Fuzzer:
    """Deterministic coverage-guided fuzzer."""

    def __init__(
        self,
        target: FuzzTarget,
        seeds: Optional[List[bytes]] = None,
        seed: int = 0,
        max_input_size: int = 1024,
    ) -> None:
        self.target = target
        self.corpus = Corpus(seeds or [b"\x00"])
        self.rng = random.Random(seed)
        self.mutator = Mutator(self.rng, max_size=max_input_size)
        #: total executions performed so far (the resumable loop's cursor).
        self.executions = 0
        #: the last execution's ``spec_stats``: a runtime's counters are
        #: cumulative, so each execution contributes its difference.
        self._spec_mark: Dict[str, int] = {}

    def run_campaign(self, iterations: int) -> CampaignResult:
        """Fuzz for a fixed number of executions and aggregate the findings."""
        return self.run_chunk(iterations)

    def run_chunk(
        self, iterations: int, into: Optional[CampaignResult] = None
    ) -> CampaignResult:
        """Run ``iterations`` more executions from the current loop state.

        The fuzzer keeps its cursor (``self.executions``), RNG and corpus
        between calls, so ``run_chunk(10); run_chunk(10)`` is execution-wise
        identical to ``run_chunk(20)`` — this is what lets a campaign worker
        pause at a sync point and later resume deterministically.  Pass
        ``into`` to accumulate several chunks into one result.
        """
        result = into if into is not None else CampaignResult()
        telemetry = _active_telemetry()
        if telemetry is not None:
            registry = telemetry.registry
            execs_counter = registry.counter("fuzz.executions")
            crash_counter = registry.counter("fuzz.crashes")
            hang_counter = registry.counter("fuzz.hangs")
            corpus_gauge = registry.gauge("fuzz.corpus_size")
            heartbeat = telemetry.heartbeat
        for _ in range(iterations):
            data = self._next_input(self.executions)
            before = self.target.coverage_signature()
            exec_result = self.target.execute(data)
            after = self.target.coverage_signature()
            self.executions += 1

            result.executions += 1
            result.total_cycles += exec_result.cycles
            result.total_steps += exec_result.steps
            if exec_result.status == "crash":
                result.crashes += 1
            elif exec_result.status == "fuel":
                result.hangs += 1
            result.reports.extend(exec_result.reports)
            stats = exec_result.spec_stats
            if stats:
                mark = self._spec_mark
                merge_counts(result.spec_stats,
                             {key: value - mark.get(key, 0)
                              for key, value in stats.items()})
                self._spec_mark = stats

            if after != before or exec_result.status == "crash":
                self.corpus.add(data, after[0], after[1],
                                reason=self._keep_reason(before, after, exec_result))

            if telemetry is not None:
                execs_counter.inc()
                if exec_result.status == "crash":
                    crash_counter.inc()
                elif exec_result.status == "fuel":
                    hang_counter.inc()
                if len(exec_result.reports):
                    for variant, count in (
                        result.reports.count_by_variant().items()
                    ):
                        registry.gauge(f"fuzz.sites.{variant}").set(count)
                if heartbeat is not None:
                    heartbeat.tick()

        result.corpus_size = len(self.corpus)
        if telemetry is not None:
            corpus_gauge.set(result.corpus_size)
        final = self.target.coverage_signature()
        result.normal_coverage, result.speculative_coverage = final
        return result

    @staticmethod
    def _keep_reason(before, after, exec_result) -> str:
        """Which coverage axis (or crash) justified keeping the input."""
        novel_normal = after[0] > before[0]
        novel_speculative = after[1] > before[1]
        if novel_normal and novel_speculative:
            return "both"
        if novel_normal:
            return "normal"
        if novel_speculative:
            return "speculative"
        return "crash"

    # -- internals ------------------------------------------------------------
    def _next_input(self, index: int) -> bytes:
        # Replay the seed corpus first so seeds always contribute coverage,
        # then mutate corpus entries round-robin.
        if index < len(self.corpus.entries):
            return self.corpus.entries[index].data
        entry = self.corpus.select(self.rng.randrange(len(self.corpus)))
        return self.mutator.mutate(entry.data)
