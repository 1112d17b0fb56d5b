"""Campaign specifications: the (target × tool × variant) job matrix.

A :class:`CampaignSpec` describes a whole multi-target fuzzing campaign the
way the paper's evaluation describes its 24-hour honggfuzz runs: which
workloads, which detectors, how many executions, and how the work is cut
into corpus-sync rounds and shards.  The spec is pure data — expanding it
into :class:`JobSpec` work units is deterministic, and every job derives
its RNG seed from the campaign seed and its own coordinates, so a campaign
replays identically regardless of how many worker processes execute it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.plugins import DEFAULT_ENGINE
from repro.records import read_record, write_record

#: Detector tools a campaign can drive.
TOOLS = ("teapot", "specfuzz", "spectaint")
#: Binary variants: the unmodified workload or the Table-3 injected build.
VARIANTS = ("vanilla", "injected")

#: Upper bounds of a campaign's integers, so that a submitted spec cannot
#: ask for an endless campaign, a flood of jobs or of worker processes.
MAX_ITERATIONS = 10**9
MAX_ROUNDS = 10_000
MAX_SHARDS = 256
MAX_WORKERS = 64
MAX_INPUT_SIZE = 1 << 20
#: Upper bounds of the retry knobs: a failing job is retried at most
#: ``MAX_ATTEMPTS - 1`` times, sleeping at most ``MAX_BACKOFF_S * 2**n``.
MAX_ATTEMPTS = 10
MAX_BACKOFF_S = 60
MAX_JOB_TIMEOUT_S = 86_400


def derive_seed(campaign_seed: int, *coords: object) -> int:
    """A deterministic 63-bit RNG seed for one job.

    Uses SHA-256 over the campaign seed and the job coordinates so the
    result is stable across processes and Python versions (unlike
    ``hash()``, which is salted per interpreter).
    """
    text = "|".join(str(part) for part in (campaign_seed, *coords))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def split_evenly(total: int, parts: int) -> List[int]:
    """Split ``total`` into ``parts`` integer chunks differing by at most 1.

    Earlier chunks get the remainder, so the split is deterministic:
    ``split_evenly(10, 4) == [3, 3, 2, 2]``.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    base, remainder = divmod(total, parts)
    return [base + (1 if index < remainder else 0) for index in range(parts)]


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: fuzz one shard of one (target, tool, variant)."""

    target: str
    tool: str
    variant: str = "vanilla"
    shard: int = 0
    shard_count: int = 1
    round_index: int = 0
    iterations: int = 0
    seed: int = 0
    max_input_size: int = 1024
    #: emulator engine ("fast"/"jit"/"legacy"); execution detail, never
    #: affects results (the engines are differentially tested to be
    #: identical).
    engine: str = DEFAULT_ENGINE
    #: speculation variant this job simulates ("pht", "btb", "rsb", "stl").
    #: The third matrix axis: each variant of a group gets its own jobs.
    spec_variant: str = "pht"
    #: wall-clock execution cap in seconds (0 = unlimited, the historic
    #: behavior).  A job past its deadline is killed with its worker's
    #: child process and reported as a failed job instead of stalling its
    #: worker forever; a capped spec always runs on worker processes.
    timeout_s: float = 0.0
    #: how many times the worker attempts the job before reporting the
    #: failure (1 = no retries, the historic behavior).
    max_attempts: int = 1
    #: base of the exponential retry backoff in seconds (attempt ``n``
    #: sleeps ``retry_backoff_s * 2**(n-1)`` before re-running).
    retry_backoff_s: float = 0.5

    @property
    def group(self) -> Tuple[str, str, str]:
        """The campaign group this job contributes to.

        Deliberately *excludes* the speculation variant: all variants of a
        (target, tool, binary-variant) cell share one corpus and one report
        collection — reports stay distinguishable because ``variant`` is
        part of every :class:`~repro.sanitizers.reports.GadgetReport` site.
        Keeping the group key 3-shaped also keeps old campaign checkpoints
        loadable.
        """
        return (self.target, self.tool, self.variant)

    @property
    def job_id(self) -> str:
        """Human-readable identity, e.g. ``jsmn/teapot/vanilla r0 s1/4``."""
        suffix = "" if self.spec_variant == "pht" else f" [{self.spec_variant}]"
        return (f"{self.target}/{self.tool}/{self.variant} "
                f"r{self.round_index} s{self.shard + 1}/{self.shard_count}"
                f"{suffix}")

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form: the wire format of the service job queue.

        The robustness knobs are serialized only when non-default, so
        records written before they existed round-trip byte-identically.
        """
        return write_record(self, omit_defaults=_JOB_KNOBS)

    @classmethod
    def from_dict(cls, record: Dict[str, object], error: type = ValueError,
                  label: str = "{}") -> "JobSpec":
        """Rebuild a job from :meth:`to_dict` output; a field that does
        not read back raises ``error``, named through ``label``."""
        return read_record(cls, record, error, label)


#: JobSpec fields left out of its record while they hold their default.
_JOB_KNOBS = ("timeout_s", "max_attempts", "retry_backoff_s")


@dataclass(frozen=True)
class CampaignSpec:
    """A full campaign: the job matrix plus scheduling parameters.

    ``iterations`` is the *total* execution budget per (target, tool,
    variant) group; it is split evenly over ``rounds`` corpus-sync rounds
    and, within each round, over ``shards`` parallel workers.  Only the
    fields hashed by :meth:`fingerprint` affect results — ``workers`` is
    pure execution parallelism and never changes the outcome.
    """

    targets: Tuple[str, ...]
    tools: Tuple[str, ...] = ("teapot",)
    variants: Tuple[str, ...] = ("vanilla",)
    iterations: int = 200
    rounds: int = 2
    shards: int = 1
    seed: int = 0
    max_input_size: int = 1024
    workers: int = 1
    #: When False (the legacy-experiment mode used by
    #: :mod:`repro.analysis.experiments`), every job uses ``seed`` directly
    #: instead of a derived per-job seed; only valid with one shard.
    derive_seeds: bool = True
    #: When True (the CLI default), ``injected``-variant groups are dropped
    #: for targets without attack points; the experiment harness passes
    #: False so every requested program gets a row (injection into a
    #: target with no attack points is a no-op build, as in the paper).
    skip_uninjectable: bool = True
    #: Emulator engine every job runs on ("fast"/"jit"/"legacy").  Like
    #: ``workers`` this is pure execution mechanics: the engines are
    #: differentially tested to produce identical results, so it is
    #: excluded from the checkpoint fingerprint and a campaign may be
    #: resumed on a different engine.
    engine: str = DEFAULT_ENGINE
    #: Speculation variants: the third matrix axis (alongside target and
    #: tool) — every group fans into one job set per variant.  Excluded
    #: from the checkpoint fingerprint like ``engine``, so a checkpointed
    #: PHT campaign can be resumed with more variants (the extra variants'
    #: jobs simply add reports/executions on top); per-variant results stay
    #: separable because every report site carries its variant.
    spec_variants: Tuple[str, ...] = ("pht",)
    #: per-job wall-clock cap in seconds (0 = unlimited).  Pure execution
    #: robustness, like ``workers``: a timed-out job becomes a
    #: ``failed_jobs`` entry instead of stalling its slot, and the knob is
    #: excluded from the checkpoint fingerprint (and omitted from
    #: checkpoints when left at its default).
    job_timeout_s: float = 0.0
    #: attempts per job before it is recorded as failed (1 = no retries).
    job_max_attempts: int = 1
    #: base of the per-job exponential retry backoff in seconds.
    job_retry_backoff_s: float = 0.5

    def __post_init__(self) -> None:
        for name, low, high in (("iterations", 1, MAX_ITERATIONS),
                                ("rounds", 1, MAX_ROUNDS),
                                ("shards", 1, MAX_SHARDS),
                                ("workers", 0, MAX_WORKERS),
                                ("max_input_size", 1, MAX_INPUT_SIZE),
                                ("job_timeout_s", 0, MAX_JOB_TIMEOUT_S),
                                ("job_max_attempts", 1, MAX_ATTEMPTS),
                                ("job_retry_backoff_s", 0, MAX_BACKOFF_S)):
            # (NaN compares false both ways, so it is refused too.)
            if not low <= getattr(self, name) <= high:
                raise ValueError(
                    f"{name}: must be between {low} and {high}")
        if not self.derive_seeds and self.shards != 1:
            raise ValueError("derive_seeds=False requires shards == 1")
        for tool in self.tools:
            if tool not in TOOLS:
                raise ValueError(f"unknown tool {tool!r}; expected one of {TOOLS}")
        for variant in self.variants:
            if variant not in VARIANTS:
                raise ValueError(
                    f"unknown variant {variant!r}; expected one of {VARIANTS}")
        from repro.runtime.fastpath import engine_names

        if self.engine not in engine_names():
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                f"expected one of {engine_names()}")
        if not self.spec_variants:
            raise ValueError("spec_variants must name at least one variant")
        from repro.plugins import model_names

        for spec_variant in self.spec_variants:
            if spec_variant not in model_names():
                raise ValueError(
                    f"unknown speculation variant {spec_variant!r}; "
                    f"expected one of {tuple(model_names())}")
        if (
            all(tool == "spectaint" for tool in self.tools)
            and "pht" not in self.spec_variants
        ):
            # SpecTaint is PHT-only: this matrix would expand to zero jobs.
            raise ValueError(
                "spectaint simulates conditional-branch (pht) misprediction "
                "only; add 'pht' to spec_variants or include another tool")

    # -- matrix expansion ---------------------------------------------------
    def groups(self) -> List[Tuple[str, str, str]]:
        """All (target, tool, variant) groups, in deterministic order.

        The ``injected`` variant only applies to targets with attack points;
        groups for targets without any are silently dropped.
        """
        from repro.targets import get_target

        result: List[Tuple[str, str, str]] = []
        for target in self.targets:
            for tool in self.tools:
                for variant in self.variants:
                    if (variant == "injected" and self.skip_uninjectable
                            and not get_target(target).attack_points):
                        continue
                    result.append((target, tool, variant))
        return result

    def round_iterations(self, round_index: int) -> int:
        """Execution budget of one round (per group, across all shards)."""
        return split_evenly(self.iterations, self.rounds)[round_index]

    def jobs_for_round(self, round_index: int) -> List[JobSpec]:
        """Expand the matrix into the jobs of one corpus-sync round.

        Every (target, tool, variant) group fans into one job set per
        speculation variant.  PHT jobs keep the exact seed derivation of
        the single-variant world, so a PHT-only campaign is bit-identical
        to historic runs; other variants mix their name into the seed.
        The SpecTaint baseline models a PHT-only tool and gets no jobs for
        other variants.
        """
        jobs: List[JobSpec] = []
        per_shard = split_evenly(self.round_iterations(round_index), self.shards)
        for target, tool, variant in self.groups():
            for spec_variant in self.spec_variants:
                if tool == "spectaint" and spec_variant != "pht":
                    continue
                for shard in range(self.shards):
                    if per_shard[shard] == 0:
                        continue
                    if not self.derive_seeds:
                        seed = self.seed
                    elif spec_variant == "pht":
                        seed = derive_seed(self.seed, target, tool, variant,
                                           round_index, shard)
                    else:
                        seed = derive_seed(self.seed, target, tool, variant,
                                           spec_variant, round_index, shard)
                    jobs.append(JobSpec(
                        target=target, tool=tool, variant=variant,
                        shard=shard, shard_count=self.shards,
                        round_index=round_index,
                        iterations=per_shard[shard],
                        seed=seed,
                        max_input_size=self.max_input_size,
                        engine=self.engine,
                        spec_variant=spec_variant,
                        timeout_s=self.job_timeout_s,
                        max_attempts=self.job_max_attempts,
                        retry_backoff_s=self.job_retry_backoff_s,
                    ))
        return jobs

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form for the checkpoint file.

        The job-robustness knobs are recorded only when non-default, so
        checkpoints written before they existed stay byte-identical.
        """
        return write_record(self, omit_defaults=_SPEC_KNOBS)

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output; a ``ValueError``
        names the first field that does not read back."""
        return read_record(cls, record, ValueError)

    def fingerprint(self) -> str:
        """Hash of every result-affecting field (checkpoint compatibility).

        ``workers`` and ``engine`` are deliberately excluded: resuming a
        4-worker campaign with 1 worker, or a fast-engine campaign on the
        legacy engine (or vice versa), is valid and yields identical
        results.  ``spec_variants`` is excluded too — not because it is
        result-neutral (it is not) but so a checkpointed campaign can be
        *grown* across variant sets: resuming with more variants replays
        the finished rounds from the checkpoint and only adds the new
        variants' findings going forward.
        """
        # Robustness knobs (timeouts/retries) are execution mechanics: a
        # job that completes produces the same result at any timeout.
        record = write_record(self, exclude=(
            "workers", "engine", "spec_variants") + _SPEC_KNOBS)
        text = "|".join(f"{key}={record[key]}" for key in sorted(record))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def with_workers(self, workers: int) -> "CampaignSpec":
        """The same campaign executed with a different worker count."""
        return replace(self, workers=workers)


#: CampaignSpec fields left out of its record while they hold their default.
_SPEC_KNOBS = ("job_timeout_s", "job_max_attempts", "job_retry_backoff_s")
