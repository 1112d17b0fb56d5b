"""Campaign scheduling: rounds, corpus sync, checkpoints, summaries.

A campaign runs in rounds of :class:`JobSpec` work units.  Between
rounds, every worker's coverage-novel corpus entries merge into one
per-group corpus, re-sharded round-robin for the next round (the corpus
sync of the paper's distributed-fuzzing setups), and the whole state is
checkpointed, so a killed campaign resumes from its last completed round
to the summary an uninterrupted run gives.

The round protocol, the same for every runner (:class:`RoundLoop`):

1. open the state: fresh, or the checkpoint's after a fingerprint check;
2. expand each remaining round's jobs, each with its corpus shard;
3. run the jobs (the one step a runner supplies) and merge their
   results in job order, whatever order they arrive in
   (:class:`StreamingIngestor`, :func:`merge_worker_result`);
4. close the round: advance ``completed_rounds``, set the
   ``campaign.rounds_completed`` gauge, beat the heartbeat, save and
   count the checkpoint, write one metrics snapshot.

The loop also emits the ``campaign_start`` event, a ``round:N`` span
per round, the ``campaign.jobs_queued``/``jobs_running`` metrics and
the progress lines ("resuming after …", "round i/n: …", "checkpoint
written to …").  :func:`run_campaign` picks the runner:
:class:`CampaignScheduler` runs every job in the calling process, so it
refuses a job timeout and a ``serve`` address;
:class:`repro.service.scheduler.ServiceCampaignScheduler` queues them on
an ephemeral service whose workers run jobs in forked children.

Determinism: job RNG seeds derive from (campaign seed, target, tool,
variant, round, shard) and merging happens in job order, so neither the
runner nor the worker count affects results — only ``shards`` does,
and that is part of the spec fingerprint.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import CampaignState, GroupKey, group_key_str
from repro.campaign.summary import CampaignSummary, summarize
from repro.campaign.worker import WorkerResult, execute_task
from repro.fuzzing.corpus import Corpus
from repro.targets import get_target
from repro.telemetry.context import active as _active_telemetry
from repro.telemetry.metrics import merge_counts
from repro.telemetry.tracing import derive_span_id

ProgressFn = Callable[[str], None]
#: One job plus the corpus shard it starts from.
Task = Tuple[JobSpec, Optional[List[bytes]]]


def merge_worker_result(state: CampaignState, result: WorkerResult,
                        telemetry=None,
                        progress: Optional[ProgressFn] = None) -> int:
    """Fold one worker result into the campaign state; returns new sites.

    This is the single merge rule of the whole system: the
    :class:`StreamingIngestor` applies it to every result, in job order,
    for both runners, so they produce bit-identical campaign state.
    Counters sum, the coverage gauges take the maximum and reports
    deduplicate by site.
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


class StreamingIngestor:
    """Order-preserving merge of one campaign's results, round by round.

    :meth:`repro.fuzzing.corpus.Corpus.merge` is coverage-novelty greedy,
    so merge order matters.  Results may arrive in any order (on the
    fleet, whichever worker finishes first); each is held until every
    job before it in round order has merged, so the state is
    bit-identical whatever the arrival order.  A fleet result's
    lifecycle block becomes cross-process spans in the campaign trace
    when it merges (:meth:`_emit_lifecycle`).
    """

    def __init__(self, state: CampaignState, telemetry=None,
                 progress: Optional[ProgressFn] = None,
                 checkpoint_path: Optional[str] = None) -> None:
        self.state = state
        self.telemetry = telemetry
        self.progress = progress
        self.checkpoint_path = checkpoint_path
        #: job ids of the active round, in deterministic round order.
        self._order: List[str] = []
        #: index into :attr:`_order` of the next job to merge.
        self._next = 0
        #: held results (with their lifecycle blocks) by job id.
        self._buffer: Dict[str, Tuple[WorkerResult, Optional[dict]]] = {}

    def begin_round(self, jobs: List[JobSpec]) -> None:
        """Arm the ingestor with one round's jobs (defines merge order)."""
        if not self.round_complete:
            raise RuntimeError("previous round still has unmerged jobs")
        self._order = [job.job_id for job in jobs]
        self._next = 0
        self._buffer.clear()

    @property
    def round_complete(self) -> bool:
        return self._next >= len(self._order)

    def offer(self, result: WorkerResult,
              lifecycle: Optional[Dict[str, object]] = None) -> int:
        """Buffer one completion; merge every newly-contiguous prefix job.

        Returns how many results this call merged (0 when the result
        arrived ahead of an unfinished predecessor).  ``lifecycle`` is a
        fleet completion record's observability block.
        """
        self._buffer[result.job_id] = (result, lifecycle)
        merged = 0
        while (self._next < len(self._order)
               and self._order[self._next] in self._buffer):
            ready, ready_lifecycle = self._buffer.pop(self._order[self._next])
            merge_worker_result(self.state, ready, telemetry=self.telemetry,
                                progress=self.progress)
            self._emit_lifecycle(ready, ready_lifecycle)
            self._next += 1
            merged += 1
        return merged

    def _emit_lifecycle(self, result: WorkerResult,
                        lifecycle: Optional[Dict[str, object]]) -> None:
        """One fleet job's submit→claim→execute→complete→ingest journey.

        Written as ``job/queue_wait``, ``job/execute`` and
        ``job/ingest_lag`` spans plus one ``job_lifecycle`` event.  Span
        ids derive from (trace id, fingerprint, phase, attempt), so a
        crash-replayed attempt reconstructs the same ids while a genuine
        retry gets fresh ones.
        """
        trace = getattr(self.telemetry, "trace", None)
        if lifecycle is None or trace is None:
            return
        context = lifecycle.get("trace")
        context = context if isinstance(context, dict) else {}
        trace_id = str(context.get("trace_id", "") or "")
        attempt = int(lifecycle.get("attempt", 1) or 1)
        fingerprint = str(lifecycle.get("fingerprint", "") or "")

        def _ts(name: str) -> Optional[float]:
            value = lifecycle.get(name)
            return float(value) if isinstance(value, (int, float)) else None

        enqueued, claimed, completed, exec_s = map(_ts, (
            "enqueued_at", "claimed_at", "completed_at", "exec_elapsed_s"))
        ingested = time.time()
        queue_wait = (claimed - enqueued
                      if enqueued is not None and claimed is not None
                      else None)
        ingest_lag = ingested - completed if completed is not None else None
        common: Dict[str, object] = {
            "job_id": result.job_id,
            "fingerprint": fingerprint,
            "attempt": attempt,
            "worker": lifecycle.get("worker"),
        }
        if trace_id:
            common["trace_id"] = trace_id
            common["parent_span_id"] = context.get("span_id")
        for phase, elapsed in (("queue_wait", queue_wait),
                               ("execute", exec_s),
                               ("ingest_lag", ingest_lag)):
            if elapsed is None:
                continue
            fields = dict(common)
            if trace_id:
                fields["span_id"] = derive_span_id(trace_id, fingerprint,
                                                   phase, attempt)
            trace.merge_span(phase, f"job/{phase}", elapsed, **fields)
        trace.event(
            "job_lifecycle",
            submitted_ts=enqueued, claimed_ts=claimed,
            completed_ts=completed, ingested_ts=round(ingested, 6),
            queue_wait_s=(None if queue_wait is None
                          else round(max(0.0, queue_wait), 6)),
            exec_s=exec_s,
            ingest_lag_s=(None if ingest_lag is None
                          else round(max(0.0, ingest_lag), 6)),
            **common)

    def finish_round(self) -> None:
        """Close the round: advance, checkpoint, snapshot (protocol step 4)."""
        if not self.round_complete:
            raise RuntimeError(
                f"round incomplete: merged {self._next} of "
                f"{len(self._order)} jobs")
        self.state.completed_rounds += 1
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.registry.gauge("campaign.rounds_completed").set(
                self.state.completed_rounds)
            if telemetry.heartbeat is not None:
                telemetry.heartbeat.maybe_beat(force=True)
        if self.checkpoint_path:
            self.state.save(self.checkpoint_path)
            if telemetry is not None:
                telemetry.registry.counter("campaign.checkpoint_writes").inc()
            if self.progress is not None:
                self.progress(f"checkpoint written to {self.checkpoint_path}")
        if telemetry is not None and telemetry.run_dir is not None:
            telemetry.run_dir.write_metrics_snapshot(telemetry)


class RoundLoop:
    """The one round loop of both runners (see the module docstring).

    A runner subclasses it and supplies :meth:`_run_jobs`, how one
    round's jobs run; everything else in the round protocol is here.
    """

    def __init__(self, spec: CampaignSpec,
                 checkpoint_path: Optional[str] = None,
                 progress: Optional[ProgressFn] = None) -> None:
        self.spec = spec
        self.checkpoint_path = checkpoint_path
        self._progress = progress or (lambda message: None)
        #: rounds closed so far (read live by the service's status).
        self.rounds_completed = 0

    def open_state(self, resume: bool) -> CampaignState:
        """A fresh state, or the checkpoint's when resuming one of this spec."""
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

    def run_rounds(self, state: CampaignState, telemetry=None,
                   workers: int = 1, **start_fields: object) -> CampaignSummary:
        """Run every round ``state`` has not completed; the summary.

        ``workers`` (the parallelism to report) and ``start_fields`` go
        into the ``campaign_start`` event; ``workers`` into progress too.
        """
        spec = self.spec
        if telemetry is not None:
            telemetry.event("campaign_start", fingerprint=state.fingerprint,
                            rounds=spec.rounds,
                            completed_rounds=state.completed_rounds,
                            workers=workers, **start_fields)
        ingestor = StreamingIngestor(state, telemetry=telemetry,
                                     progress=self._progress,
                                     checkpoint_path=self.checkpoint_path)
        registry = telemetry.registry if telemetry is not None else None
        self.rounds_completed = state.completed_rounds
        for round_index in range(state.completed_rounds, spec.rounds):
            jobs = spec.jobs_for_round(round_index)
            self._progress(f"round {round_index + 1}/{spec.rounds}: "
                           f"{len(jobs)} jobs over {workers} worker(s)")
            ingestor.begin_round(jobs)
            tasks = [(job, self._seeds_for(state, job)) for job in jobs]
            with (telemetry.span(f"round:{round_index}")
                  if telemetry is not None else nullcontext()):
                if registry is not None:
                    registry.counter("campaign.jobs_queued").inc(len(tasks))
                    registry.gauge("campaign.jobs_running").set(len(tasks))
                self._run_jobs(round_index, tasks, ingestor)
                if registry is not None:
                    registry.gauge("campaign.jobs_running").set(0)
            ingestor.finish_round()
            self.rounds_completed = state.completed_rounds
        return summarize(state)

    def _seeds_for(self, state: CampaignState,
                   job: JobSpec) -> Optional[List[bytes]]:
        """One job's corpus shard: of the target's seed inputs in round 0
        of a fresh campaign, else of the corpus merged so far."""
        corpus = state.corpus(job.group)
        if corpus is None:
            corpus = Corpus(list(get_target(job.target).seeds))
        return corpus.shards(job.shard_count)[job.shard]

    def _run_jobs(self, round_index: int, tasks: List[Task],
                  ingestor: StreamingIngestor) -> None:
        """Run one round's tasks and offer every result to ``ingestor``."""
        raise NotImplementedError


class CampaignScheduler(RoundLoop):
    """The in-process runner: every job runs here, in job order.

    It never forks; it is the reference the process-backed
    :class:`~repro.service.scheduler.ServiceCampaignScheduler` must match
    bit for bit.
    """

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
        return self.run_rounds(self.open_state(resume), telemetry,
                               workers=self.spec.workers)

    def _run_jobs(self, round_index: int, tasks: List[Task],
                  ingestor: StreamingIngestor) -> None:
        for task in tasks:
            ingestor.offer(execute_task(task))


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
