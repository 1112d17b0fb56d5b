"""Campaign worker: run one fuzzing job and return a picklable result.

Workers are plain top-level functions so the scheduler can fan them out
over a ``multiprocessing`` pool; everything they return is primitive data
(ints, strings, dicts) that crosses process boundaries cheaply.  Compiled
and instrumented binaries are memoised per process — a pool worker that
executes several shards of the same target compiles it once, and the
serial (``workers=1``) path compiles each (target, variant, tool)
combination exactly once per campaign.
"""

from __future__ import annotations

import threading
import time
import traceback as _traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.specfuzz import SpecFuzzConfig, SpecFuzzRewriter, SpecFuzzRuntime
from repro.baselines.spectaint import SpecTaintAnalyzer, SpecTaintConfig
from repro.campaign.spec import JobSpec
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter, TeapotRuntime
from repro.fuzzing.fuzzer import Fuzzer, FuzzTarget
from repro.loader.binary_format import TelfBinary
from repro.targets import get_target
from repro.targets.injection import compile_vanilla, inject_gadgets
from repro.plugins import DEFAULT_ENGINE

#: Per-process caches; keyed by (target, variant) and (target, variant, tool).
_BINARY_CACHE: Dict[Tuple[str, str], TelfBinary] = {}
_INSTRUMENTED_CACHE: Dict[Tuple[str, str, str], TelfBinary] = {}
#: Prebuilt binaries substituted for the compiled build of a (target,
#: variant) — the hardening verification loop re-fuzzes a rewritten binary
#: through the ordinary campaign machinery this way (see
#: :func:`binary_override`).
_BINARY_OVERRIDES: Dict[Tuple[str, str], TelfBinary] = {}


@contextmanager
def binary_override(target_name: str, variant: str, binary: TelfBinary):
    """Substitute a prebuilt binary for one (target, variant) combination.

    While the context is active, :func:`compiled_binary` returns ``binary``
    and :func:`instrumented_binary` instruments it afresh on every call
    (bypassing the per-process memo, which would otherwise serve the
    original build).  Intended for serial (``workers=1``) campaigns: a
    pool forked before the override was installed will not see it.
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

    ``engine`` selects the emulator engine for the tools that support it
    (teapot and specfuzz); SpecTaint models a DBI system with its own
    emulator subclass and always runs on the legacy engine.  ``spec_variant``
    selects the speculation model the job simulates; SpecTaint is PHT-only
    (the campaign spec never emits other variants for it).
    """
    variants = (spec_variant,)
    if tool == "teapot":
        if variant == "injected":
            return TeapotConfig(massage_enabled=False, taint_sources_enabled=False,
                                engine=engine, variants=variants)
        return TeapotConfig(engine=engine, variants=variants)
    if tool == "specfuzz":
        return SpecFuzzConfig(engine=engine, variants=variants)
    if tool == "spectaint":
        return SpecTaintConfig()
    raise ValueError(f"unknown tool {tool!r}")


def instrumented_binary(target_name: str, tool: str, variant: str) -> TelfBinary:
    """The (memoised) tool-instrumented build of a target.

    SpecTaint analyses the original binary (DBI-style), so its
    "instrumented" binary is the plain compiled one.
    """
    def build() -> TelfBinary:
        binary = compiled_binary(target_name, variant)
        config = _tool_config(tool, variant)
        if tool == "teapot":
            binary = TeapotRewriter(config).instrument(binary)
        elif tool == "specfuzz":
            binary = SpecFuzzRewriter(config).instrument(binary)
        return binary

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
    config = _tool_config(tool, variant, engine, spec_variant)
    binary = instrumented_binary(target_name, tool, variant)
    if tool == "teapot":
        return TeapotRuntime(binary, config=config)
    if tool == "specfuzz":
        return SpecFuzzRuntime(binary, config=config)
    return SpecTaintAnalyzer(binary, config=config)


@dataclass
class WorkerResult:
    """Everything one job hands back to the scheduler (picklable)."""

    job_id: str
    target: str
    tool: str
    variant: str
    shard: int
    round_index: int
    executions: int = 0
    crashes: int = 0
    hangs: int = 0
    total_cycles: int = 0
    total_steps: int = 0
    normal_coverage: int = 0
    speculative_coverage: int = 0
    spec_stats: Dict[str, int] = field(default_factory=dict)
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
    #: ``engine.jit.cache.*``) captured when the job ran in a forked pool
    #: worker of a telemetry-enabled campaign; empty otherwise (in serial
    #: campaigns the parent registry counts these live).  Additive field:
    #: results serialized before PR 8 deserialize with it empty.
    telemetry_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def group(self) -> Tuple[str, str, str]:
        return (self.target, self.tool, self.variant)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (stable ordering, exact round trip)."""
        return {
            "job_id": self.job_id,
            "target": self.target,
            "tool": self.tool,
            "variant": self.variant,
            "shard": self.shard,
            "round_index": self.round_index,
            "executions": self.executions,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "total_cycles": self.total_cycles,
            "total_steps": self.total_steps,
            "normal_coverage": self.normal_coverage,
            "speculative_coverage": self.speculative_coverage,
            "spec_stats": dict(sorted(self.spec_stats.items())),
            "reports": list(self.reports),
            "raw_reports": self.raw_reports,
            "corpus": list(self.corpus),
            "error": self.error,
            "traceback": self.traceback,
            "elapsed_s": self.elapsed_s,
            "telemetry_counts": dict(sorted(self.telemetry_counts.items())),
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "WorkerResult":
        """Rebuild a result from :meth:`to_dict` output.

        Tolerates records written before ``telemetry_counts`` existed —
        the field simply comes back empty — so checkpoint-adjacent
        tooling round-trips across versions.
        """
        return cls(
            job_id=str(record["job_id"]),
            target=str(record["target"]),
            tool=str(record["tool"]),
            variant=str(record["variant"]),
            shard=int(record.get("shard", 0)),
            round_index=int(record.get("round_index", 0)),
            executions=int(record.get("executions", 0)),
            crashes=int(record.get("crashes", 0)),
            hangs=int(record.get("hangs", 0)),
            total_cycles=int(record.get("total_cycles", 0)),
            total_steps=int(record.get("total_steps", 0)),
            normal_coverage=int(record.get("normal_coverage", 0)),
            speculative_coverage=int(record.get("speculative_coverage", 0)),
            spec_stats={str(k): int(v)
                        for k, v in record.get("spec_stats", {}).items()},
            reports=list(record.get("reports", [])),
            raw_reports=int(record.get("raw_reports", 0)),
            corpus=list(record.get("corpus", [])),
            error=str(record.get("error", "")),
            traceback=str(record.get("traceback", "")),
            elapsed_s=float(record.get("elapsed_s", 0.0)),
            telemetry_counts={
                str(k): int(v)
                for k, v in record.get("telemetry_counts", {}).items()
            },
        )


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
    return WorkerResult(
        job_id=job.job_id,
        target=job.target,
        tool=job.tool,
        variant=job.variant,
        shard=job.shard,
        round_index=job.round_index,
        executions=result.executions,
        crashes=result.crashes,
        hangs=result.hangs,
        total_cycles=result.total_cycles,
        total_steps=result.total_steps,
        normal_coverage=result.normal_coverage,
        speculative_coverage=result.speculative_coverage,
        spec_stats=dict(result.spec_stats),
        reports=result.reports.to_dicts(),
        raw_reports=result.reports.total_raw,
        corpus=fuzzer.corpus.to_dicts(),
    )


class JobTimeoutError(Exception):
    """A job exceeded its :attr:`JobSpec.timeout_s` wall-clock budget."""


def _run_job_deadline(job: JobSpec,
                      seeds: Optional[List[bytes]]) -> WorkerResult:
    """Run one job, enforcing the job's wall-clock timeout (if any).

    The emulator is pure Python with no cancellation points, so the
    timeout runs the job on a daemon thread and abandons it at the
    deadline: the runaway thread dies with the worker process, and its
    partial results are discarded (a retried job re-derives everything
    from its seed, so abandonment never corrupts campaign state).
    """
    if job.timeout_s <= 0:
        return run_job(job, seeds)
    box: Dict[str, object] = {}

    def call() -> None:
        try:
            box["result"] = run_job(job, seeds)
        except BaseException as exc:  # noqa: BLE001 - crosses the thread
            box["error"] = exc

    thread = threading.Thread(target=call, daemon=True,
                              name=f"job-{job.job_id}")
    thread.start()
    thread.join(job.timeout_s)
    if thread.is_alive():
        raise JobTimeoutError(
            f"job exceeded its {job.timeout_s:g}s wall-clock budget")
    error = box.get("error")
    if error is not None:
        raise error  # type: ignore[misc]
    return box["result"]  # type: ignore[return-value]


#: How one attempt of a job runs: ``(job, seeds) -> WorkerResult``, raising
#: on failure (a timeout is a :class:`JobTimeoutError`).
AttemptRunner = Callable[[JobSpec, Optional[List[bytes]]], WorkerResult]


def execute_task(task: Tuple[JobSpec, Optional[List[bytes]]],
                 run_attempt: AttemptRunner = _run_job_deadline,
                 ) -> WorkerResult:
    """Pool entry point: unpack one (job, seeds) task and run it.

    A raising job is converted into an error-carrying :class:`WorkerResult`
    instead of propagating (and tearing the whole round down with it): the
    scheduler records the failure and the campaign's other jobs survive.
    Each attempt goes through ``run_attempt``; the batch schedulers keep
    the thread-deadline default, and the service fleet passes a runner
    that executes the attempt in the worker's own process (see
    :mod:`repro.service.worker`), so the retry and backoff policy below is
    the same everywhere.

    In a forked pool worker of a telemetry-enabled campaign (the
    scheduler armed :mod:`repro.telemetry.spool` before creating the
    pool) the job runs under a fresh registry-only telemetry bundle: its
    per-job ``fuzz.*``/``engine.*`` counter deltas travel home in
    :attr:`WorkerResult.telemetry_counts` (merged into the campaign
    totals at round end) and are appended to the metrics spool for live
    mid-round export.  Telemetry is observation-only, so this never
    changes the job's results.
    """
    from repro.telemetry import spool as telemetry_spool
    from repro.telemetry.context import session as telemetry_session

    job, seeds = task
    worker_telemetry = telemetry_spool.worker_telemetry()
    cache_before = (telemetry_spool.jit_cache_stats()
                    if worker_telemetry is not None else None)
    started = time.perf_counter()
    attempts = max(1, job.max_attempts)
    result = None
    for attempt in range(1, attempts + 1):
        try:
            if worker_telemetry is None:
                result = run_attempt(job, seeds)
            else:
                with telemetry_session(worker_telemetry):
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
            result = WorkerResult(
                job_id=job.job_id,
                target=job.target,
                tool=job.tool,
                variant=job.variant,
                shard=job.shard,
                round_index=job.round_index,
                error=f"{type(exc).__name__}: {exc}{suffix}",
                traceback=_traceback.format_exc(),
            )
    result.elapsed_s = time.perf_counter() - started
    if worker_telemetry is not None:
        result.telemetry_counts = telemetry_spool.collect_counts(
            worker_telemetry, cache_before)
        spool_path = telemetry_spool.worker_spool_path()
        if spool_path is not None and result.telemetry_counts:
            telemetry_spool.append_counts(spool_path, result.job_id,
                                          result.telemetry_counts)
    return result


def clear_caches() -> None:
    """Drop the per-process binary caches (tests / memory pressure)."""
    _BINARY_CACHE.clear()
    _INSTRUMENTED_CACHE.clear()
