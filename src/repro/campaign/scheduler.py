"""Campaign scheduling: rounds, corpus sync, checkpoints, summaries.

The scheduler turns a :class:`CampaignSpec` into rounds of
:class:`JobSpec` work units.  Between rounds it performs the corpus sync
of the paper's distributed-fuzzing setups: every worker's
coverage-novel corpus entries are merged into one per-group corpus,
which is re-sharded round-robin and redistributed for the next round.
After every round the full campaign state — corpora, deduplicated
reports, counters — is written to a JSON checkpoint, so a killed
campaign resumes from the last completed round and finishes with a
summary identical to an uninterrupted run.

Two runners share that loop's rules (:func:`seeds_for_job`,
:func:`merge_worker_result`), and :func:`run_campaign` picks one from
the spec and the active telemetry session:

* :class:`CampaignScheduler`, defined here, runs every job in the
  calling process.  It never forks, so it cannot stop a job at a
  deadline and refuses specs with a job timeout; it runs no service, so
  it refuses a telemetry session with a ``serve`` address too.
* :class:`repro.service.scheduler.ServiceCampaignScheduler` runs an
  ephemeral fuzzing service whose ``max(1, workers)`` workers each run
  their jobs in a forked child, so a timed-out job is killed.

Determinism: job RNG seeds derive from (campaign seed, target, tool,
variant, round, shard) and merging happens in job order, so neither the
runner nor the worker count affects results — only ``shards`` does,
and that is part of the spec fingerprint.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, List, Optional

from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import CampaignState, GroupKey, group_key_str
from repro.campaign.summary import CampaignSummary, summarize
from repro.campaign.worker import WorkerResult, execute_task
from repro.fuzzing.corpus import Corpus
from repro.targets import get_target
from repro.telemetry.context import active as _active_telemetry
from repro.telemetry.metrics import merge_counts

ProgressFn = Callable[[str], None]


def seeds_for_job(state: CampaignState, job: JobSpec) -> Optional[List[bytes]]:
    """The corpus shard assigned to one job.

    Round 0 of a fresh campaign starts from the target's seed inputs;
    later rounds start from the merged cross-worker corpus of the
    previous round, sharded round-robin.  Shared by the in-process
    loop and the service dispatcher so both hand out identical
    shards.
    """
    corpus = state.corpus(job.group)
    if corpus is None:
        corpus = Corpus(list(get_target(job.target).seeds))
    return corpus.shards(job.shard_count)[job.shard]


def merge_worker_result(state: CampaignState, result: WorkerResult,
                        telemetry=None,
                        progress: Optional[ProgressFn] = None) -> int:
    """Fold one worker result into the campaign state; returns new sites.

    This is the single merge rule of the whole system — the in-process
    loop applies it job by job, and the service's streaming
    ingestor applies it result by result (also in job order) — so every
    execution strategy produces bit-identical campaign state.
    The rules (sum counters, max the coverage gauges, dedup reports by
    site) mirror :meth:`repro.fuzzing.fuzzer.CampaignResult.merge`; keep
    the two in step.
    """
    key: GroupKey = result.group
    stats = state.group_stats(key)
    if result.telemetry_counts:
        # Counter deltas of a job that ran in a worker's child (fuzz.*,
        # engine.*, engine.jit.cache.*) travel home in the result; this
        # is the one place they are folded into the group stats and the
        # driving registry.  Done for failing jobs as well — they may
        # have executed inputs before raising.
        merge_counts(stats.telemetry_counts, result.telemetry_counts)
        if telemetry is not None:
            for name, value in result.telemetry_counts.items():
                telemetry.registry.counter(name).inc(value)
    if result.error:
        # A raising job contributes nothing but its failure record.
        stats.failed_jobs += 1
        if progress is not None:
            progress(f"job {result.job_id} FAILED: {result.error}")
        if telemetry is not None:
            telemetry.registry.counter("campaign.jobs_failed").inc()
            telemetry.event(
                "job_failed",
                job_id=result.job_id,
                group=group_key_str(key),
                error=result.error,
                traceback=result.traceback,
                elapsed_s=round(result.elapsed_s, 6),
            )
        return 0
    stats.executions += result.executions
    stats.crashes += result.crashes
    stats.hangs += result.hangs
    stats.total_cycles += result.total_cycles
    stats.total_steps += result.total_steps
    stats.normal_coverage = max(stats.normal_coverage,
                                result.normal_coverage)
    stats.speculative_coverage = max(stats.speculative_coverage,
                                     result.speculative_coverage)
    merge_counts(stats.spec_stats, result.spec_stats)
    new_sites = state.store.add_serialized(key, result.reports,
                                           result.raw_reports)

    merged = state.corpora.get(key)
    incoming = Corpus.from_dicts(result.corpus)
    if merged is None:
        state.corpora[key] = incoming
    else:
        merged.merge(incoming)

    if telemetry is not None:
        registry = telemetry.registry
        registry.counter("campaign.executions").inc(result.executions)
        registry.counter("campaign.jobs_done").inc()
        registry.counter("campaign.reports_raw").inc(result.raw_reports)
        registry.counter("campaign.reports_unique").inc(new_sites)
        registry.counter("campaign.dedup_hits").inc(
            max(0, len(result.reports) - new_sites)
        )
        site_totals: dict = {}
        for group in state.store.keys():
            merge_counts(
                site_totals,
                state.store.collection(group).count_by_variant(),
            )
        for variant, count in site_totals.items():
            registry.gauge(f"campaign.sites.{variant}").set(count)
        telemetry.event(
            "job",
            job_id=result.job_id,
            group=group_key_str(key),
            executions=result.executions,
            new_sites=new_sites,
            elapsed_s=round(result.elapsed_s, 6),
        )
        if telemetry.heartbeat is not None:
            telemetry.heartbeat.tick()
    return new_sites


class CampaignScheduler:
    """The in-process campaign loop: rounds, corpus sync, checkpoints.

    Runs every job in the calling process, one after another, so it
    never forks; it is the reference the process-backed
    :class:`~repro.service.scheduler.ServiceCampaignScheduler` must match
    bit for bit.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        checkpoint_path: Optional[str] = None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        self.spec = spec
        self.checkpoint_path = checkpoint_path
        self._progress = progress or (lambda message: None)

    # -- public API ---------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignSummary:
        """Execute (or finish) the campaign and return its summary."""
        if self.spec.job_timeout_s > 0:
            # Pure-Python jobs have no cancellation point: only a job in
            # its own process can be stopped at a deadline.
            raise ValueError(
                "the in-process campaign loop cannot enforce a job "
                "timeout; without an engine profiler, run_campaign runs "
                "such a spec on worker processes")
        telemetry = _active_telemetry()
        if telemetry is not None and telemetry.serve is not None:
            raise ValueError(
                "the in-process campaign loop runs no service whose API "
                "--serve could bind; without an engine profiler, "
                "run_campaign serves from worker processes")
        state = self._initial_state(resume)
        if telemetry is not None:
            telemetry.event(
                "campaign_start",
                fingerprint=state.fingerprint,
                rounds=self.spec.rounds,
                completed_rounds=state.completed_rounds,
                workers=self.spec.workers,
            )
        for round_index in range(state.completed_rounds, self.spec.rounds):
            jobs = self.spec.jobs_for_round(round_index)
            tasks = [(job, self._seeds_for(state, job)) for job in jobs]
            self._progress(
                f"round {round_index + 1}/{self.spec.rounds}: "
                f"{len(tasks)} jobs over {self.spec.workers} worker(s)"
            )
            round_span = (telemetry.span(f"round:{round_index}")
                          if telemetry is not None else nullcontext())
            with round_span:
                if telemetry is not None:
                    registry = telemetry.registry
                    registry.counter("campaign.jobs_queued").inc(len(tasks))
                    registry.gauge("campaign.jobs_running").set(len(tasks))
                # Tasks run and merge in job order, so the merge is
                # deterministic.
                for task in tasks:
                    merge_worker_result(state, execute_task(task),
                                        telemetry=telemetry,
                                        progress=self._progress)
                if telemetry is not None:
                    registry.gauge("campaign.jobs_running").set(0)
            state.completed_rounds = round_index + 1
            if telemetry is not None:
                registry = telemetry.registry
                registry.gauge("campaign.rounds_completed").set(
                    state.completed_rounds
                )
                if telemetry.heartbeat is not None:
                    telemetry.heartbeat.maybe_beat(force=True)
            if self.checkpoint_path:
                state.save(self.checkpoint_path)
                if telemetry is not None:
                    telemetry.registry.counter(
                        "campaign.checkpoint_writes"
                    ).inc()
                self._progress(f"checkpoint written to {self.checkpoint_path}")
            if telemetry is not None and telemetry.run_dir is not None:
                telemetry.run_dir.write_metrics_snapshot(telemetry)
        return summarize(state)

    # -- state --------------------------------------------------------------
    def _initial_state(self, resume: bool) -> CampaignState:
        fingerprint = self.spec.fingerprint()
        if resume and self.checkpoint_path:
            try:
                state = CampaignState.load(self.checkpoint_path)
            except FileNotFoundError:
                state = None
            if state is not None:
                if state.fingerprint != fingerprint:
                    raise ValueError(
                        "checkpoint was produced by a different campaign spec "
                        f"(fingerprint {state.fingerprint} != {fingerprint}); "
                        "refusing to resume"
                    )
                self._progress(
                    f"resuming after {state.completed_rounds} completed round(s)"
                )
                return state
        return CampaignState(fingerprint=fingerprint,
                             spec_dict=self.spec.to_dict())

    def _seeds_for(self, state: CampaignState, job: JobSpec) -> Optional[List[bytes]]:
        return seeds_for_job(state, job)


def run_campaign(
    spec: CampaignSpec,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
) -> CampaignSummary:
    """Schedule and run one campaign; the summary is the same either way.

    The campaign runs in this process (:class:`CampaignScheduler`) when
    nothing needs worker processes: one worker, no job timeout and no
    ``serve`` address on the active telemetry session.  Otherwise it runs
    on an ephemeral service fleet
    (:class:`~repro.service.scheduler.ServiceCampaignScheduler`).  A
    session with an engine profiler always runs in this process — the
    profiler sees only this process's emulators — so it refuses a job
    timeout and ``serve``.
    """
    telemetry = _active_telemetry()
    profiled = telemetry is not None and telemetry.profiler is not None
    serve = telemetry.serve if telemetry is not None else None
    if profiled or (spec.workers <= 1 and spec.job_timeout_s == 0
                    and serve is None):
        runner = CampaignScheduler
    else:
        from repro.service.scheduler import ServiceCampaignScheduler

        runner = ServiceCampaignScheduler
    return runner(spec, checkpoint_path=checkpoint_path,
                  progress=progress).run(resume=resume)
