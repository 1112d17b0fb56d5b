"""Campaign worker: run one fuzzing job and return a picklable result.

Workers are plain top-level functions so a service worker's child
process can run them; everything they return is primitive data (ints,
strings, dicts) that crosses process boundaries cheaply.  Compiled and
instrumented binaries are memoised per process — a child that executes
several shards of the same target compiles it once (children fork from
the scheduling process, so they also inherit its memo), and the serial
path compiles each (target, variant, tool) combination exactly once per
campaign.
"""

from __future__ import annotations

import time
import traceback as _traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.specfuzz import SpecFuzzConfig, SpecFuzzRewriter, SpecFuzzRuntime
from repro.baselines.spectaint import SpecTaintAnalyzer, SpecTaintConfig
from repro.campaign.spec import JobSpec
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter, TeapotRuntime
from repro.fuzzing.corpus import CorpusEntry
from repro.fuzzing.fuzzer import Fuzzer, FuzzCounts, FuzzTarget
from repro.loader.binary_format import TelfBinary
from repro.targets import get_target
from repro.targets.injection import compile_vanilla, inject_gadgets
from repro.plugins import DEFAULT_ENGINE
from repro.records import read_record, write_record
from repro.sanitizers.reports import GadgetReport

#: Per-process caches; keyed by (target, variant) and (target, variant, tool).
_BINARY_CACHE: Dict[Tuple[str, str], TelfBinary] = {}
_INSTRUMENTED_CACHE: Dict[Tuple[str, str, str], TelfBinary] = {}
#: Prebuilt binaries substituted for the compiled build of a (target,
#: variant) — the hardening verification loop re-fuzzes a rewritten binary
#: through the ordinary campaign machinery this way (see
#: :func:`binary_override`).
_BINARY_OVERRIDES: Dict[Tuple[str, str], TelfBinary] = {}


@dataclass(frozen=True)
class Tool:
    """What one detector name means: its configuration, rewriter and runtime.

    A tool without a ``rewriter`` analyses the unmodified binary on its own
    emulator, as SpecTaint's DBI model does: its configuration selects
    neither the engine nor the speculation variant (it is PHT-only).
    """

    config: type
    rewriter: Optional[type]
    runtime: type

    def make_config(self, engine: str, spec_variant: str = "pht"):
        """The configuration on ``engine``, simulating ``spec_variant``."""
        if self.rewriter is None:
            return self.config()
        return self.config(engine=engine, variants=(spec_variant,))

    def instrument(self, binary: TelfBinary, config) -> TelfBinary:
        """``binary`` as this tool runs it."""
        if self.rewriter is None:
            return binary
        return self.rewriter(config).instrument(binary)


#: The detectors of the paper's evaluation, in the order of
#: :data:`~repro.campaign.spec.TOOLS`: the one place a tool name is given
#: its meaning.
TOOL_TABLE: Dict[str, Tool] = {
    "teapot": Tool(TeapotConfig, TeapotRewriter, TeapotRuntime),
    "specfuzz": Tool(SpecFuzzConfig, SpecFuzzRewriter, SpecFuzzRuntime),
    "spectaint": Tool(SpecTaintConfig, None, SpecTaintAnalyzer),
}


@contextmanager
def binary_override(target_name: str, variant: str, binary: TelfBinary):
    """Substitute a prebuilt binary for one (target, variant) combination.

    While the context is active, :func:`compiled_binary` returns ``binary``
    and :func:`instrumented_binary` instruments it afresh on every call
    (bypassing the per-process memo, which would otherwise serve the
    original build).  A process forked before the override was installed
    will not see it; a service fleet's workers fork their children on
    their first job, so campaigns started inside the context do.
    """
    key = (target_name, variant)
    previous = _BINARY_OVERRIDES.get(key)
    _BINARY_OVERRIDES[key] = binary
    try:
        yield
    finally:
        if previous is None:
            _BINARY_OVERRIDES.pop(key, None)
        else:
            _BINARY_OVERRIDES[key] = previous


def compiled_binary(target_name: str, variant: str) -> TelfBinary:
    """The (memoised) vanilla or injected build of a target."""
    key = (target_name, variant)
    override = _BINARY_OVERRIDES.get(key)
    if override is not None:
        return override
    if key not in _BINARY_CACHE:
        target = get_target(target_name)
        if variant == "injected":
            _BINARY_CACHE[key] = inject_gadgets(target).binary
        elif variant == "vanilla":
            _BINARY_CACHE[key] = compile_vanilla(target)
        else:
            raise ValueError(f"unknown variant {variant!r}")
    return _BINARY_CACHE[key]


def _tool_config(tool: str, variant: str, engine: str = DEFAULT_ENGINE,
                 spec_variant: str = "pht"):
    """The detector configuration for one (tool, variant) combination.

    The ``injected`` variant reproduces the Table 3 methodology for Teapot:
    ordinary taint sources off (only ``attack_input()`` is attacker-direct)
    and the Massage policy off to avoid attacker-indirect noise.
    """
    config = TOOL_TABLE[tool].make_config(engine, spec_variant)
    if tool == "teapot" and variant == "injected":
        config = replace(config, massage_enabled=False,
                         taint_sources_enabled=False)
    return config


def instrumented_binary(target_name: str, tool: str, variant: str) -> TelfBinary:
    """The (memoised) tool-instrumented build of a target.

    SpecTaint analyses the original binary (DBI-style), so its
    "instrumented" binary is the plain compiled one.
    """
    def build() -> TelfBinary:
        return TOOL_TABLE[tool].instrument(
            compiled_binary(target_name, variant), _tool_config(tool, variant))

    if (target_name, variant) in _BINARY_OVERRIDES:
        # Overridden builds are never memoised: the cache key cannot tell
        # the override apart from the registry build.
        return build()
    key = (target_name, variant, tool)
    if key not in _INSTRUMENTED_CACHE:
        _INSTRUMENTED_CACHE[key] = build()
    return _INSTRUMENTED_CACHE[key]


def build_runtime(target_name: str, tool: str, variant: str,
                  engine: str = DEFAULT_ENGINE, spec_variant: str = "pht"):
    """A fresh runtime (coverage maps and all) for one job."""
    return TOOL_TABLE[tool].runtime(
        instrumented_binary(target_name, tool, variant),
        config=_tool_config(tool, variant, engine, spec_variant))


@dataclass(kw_only=True)
class WorkerResult(FuzzCounts):
    """Everything one job hands back to the scheduler (picklable)."""

    job_id: str
    target: str
    tool: str
    variant: str
    shard: int
    round_index: int
    #: unique gadget reports, serialized (``GadgetReport.to_dict``).
    reports: List[Dict[str, object]] = field(default_factory=list)
    #: raw (pre-dedup) report occurrences, for dedup-ratio accounting.
    raw_reports: int = 0
    #: the worker's final corpus, serialized (``CorpusEntry.to_dict``).
    corpus: List[Dict[str, object]] = field(default_factory=list)
    #: non-empty when the job raised instead of completing; the scheduler
    #: records the failure (``job_failed`` trace event, failed-job counters)
    #: and skips merging the (empty) payload.
    error: str = ""
    #: formatted traceback of the failure, for the trace sink.
    traceback: str = ""
    #: wall-clock seconds the job took (success or failure).
    elapsed_s: float = 0.0
    #: worker-side telemetry counter deltas (``fuzz.*``, ``engine.*``,
    #: ``engine.jit.cache.*``) captured when the job ran in a service
    #: worker's child during a telemetry-enabled campaign; empty otherwise
    #: (in serial campaigns the active registry counts these live).
    #: Additive field: older results deserialize with it empty.
    telemetry_counts: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def for_job(cls, job: JobSpec, **fields: object) -> "WorkerResult":
        """A result carrying ``job``'s identity plus ``fields``."""
        return cls(job_id=job.job_id, target=job.target, tool=job.tool,
                   variant=job.variant, shard=job.shard,
                   round_index=job.round_index, **fields)

    @property
    def group(self) -> Tuple[str, str, str]:
        return (self.target, self.tool, self.variant)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (stable ordering, exact round trip)."""
        return write_record(self)

    @classmethod
    def from_dict(cls, record: object) -> "WorkerResult":
        """Rebuild a result from :meth:`to_dict` output; a ``ValueError``
        names the first field that does not read back, down to the fields
        of each report and corpus entry (``reports[0].tool: missing``)."""
        result = read_record(cls, record, ValueError)
        for name, reader in (("reports", GadgetReport.from_dict),
                             ("corpus", CorpusEntry.from_dict)):
            for index, entry in enumerate(getattr(result, name)):
                reader(entry, ValueError, f"{name}[{index}].{{}}")
        return result


def run_job(job: JobSpec, seeds: Optional[Sequence[bytes]] = None) -> WorkerResult:
    """Execute one fuzzing job from scratch.

    ``seeds`` is the corpus shard the scheduler assigned; when omitted the
    target's own seed inputs are used (round 0 of a fresh campaign).
    """
    if seeds is None:
        seeds = list(get_target(job.target).seeds)
    runtime = build_runtime(job.target, job.tool, job.variant, job.engine,
                            job.spec_variant)
    fuzzer = Fuzzer(
        FuzzTarget(runtime),
        seeds=list(seeds),
        seed=job.seed,
        max_input_size=job.max_input_size,
    )
    result = fuzzer.run_chunk(job.iterations)
    worker_result = WorkerResult.for_job(
        job, reports=result.reports.to_dicts(),
        raw_reports=result.reports.total_raw,
        corpus=fuzzer.corpus.to_dicts())
    worker_result.merge(result)
    return worker_result


class JobTimeoutError(Exception):
    """A job exceeded its :attr:`JobSpec.timeout_s` wall-clock budget."""


#: How one attempt of a job runs: ``(job, seeds) -> WorkerResult``, raising
#: on failure (a timeout is a :class:`JobTimeoutError`).
AttemptRunner = Callable[[JobSpec, Optional[List[bytes]]], WorkerResult]


def execute_task(task: Tuple[JobSpec, Optional[List[bytes]]],
                 run_attempt: Optional[AttemptRunner] = None,
                 ) -> WorkerResult:
    """Run one (job, seeds) task with the job's retry policy.

    A raising job is converted into an error-carrying :class:`WorkerResult`
    instead of propagating (and tearing the whole round down with it): the
    scheduler records the failure and the campaign's other jobs survive.
    Each attempt goes through ``run_attempt`` — :func:`run_job` in the
    calling process by default (the in-process loop), or the service
    fleet's runner that executes the attempt in the worker's own process
    and kills it at the job's timeout (see :mod:`repro.service.worker`) —
    so the retry and backoff policy below is the same everywhere.
    """
    if run_attempt is None:
        run_attempt = run_job
    job, seeds = task
    started = time.perf_counter()
    attempts = max(1, job.max_attempts)
    result = None
    for attempt in range(1, attempts + 1):
        try:
            result = run_attempt(job, seeds)
            break
        except Exception as exc:  # noqa: BLE001 - isolate the failing job
            if attempt < attempts:
                # Deterministic exponential backoff before the retry; a
                # retried job replays from its derived seed, so a
                # transient failure costs time, never correctness.
                time.sleep(job.retry_backoff_s * (2 ** (attempt - 1)))
                continue
            suffix = (f" (after {attempts} attempts)" if attempts > 1 else "")
            result = WorkerResult.for_job(
                job,
                error=f"{type(exc).__name__}: {exc}{suffix}",
                traceback=_traceback.format_exc(),
            )
    result.elapsed_s = time.perf_counter() - started
    return result


def clear_caches() -> None:
    """Drop the per-process binary caches (tests / memory pressure)."""
    _BINARY_CACHE.clear()
    _INSTRUMENTED_CACHE.clear()
