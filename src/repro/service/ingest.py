"""Streaming result ingestion: merge worker results as they complete.

The in-process loop runs and merges jobs one by one in job order.  The
service gets completions in *arrival* order — whichever worker finishes
first — but
:meth:`repro.fuzzing.corpus.Corpus.merge` is coverage-novelty greedy and
therefore order-dependent, so merging out of order would change corpus
contents and downstream seeds.  The :class:`StreamingIngestor` restores
determinism with an ordered-prefix buffer: results are held per job and
folded into the campaign state with
:func:`repro.campaign.scheduler.merge_worker_result` the moment the
*next job in round order* is available.  The merged prefix grows as
completions trickle in, and the final state is bit-identical to an
in-process run's.

Round boundaries trigger the same durability work the in-process loop
does between rounds: ``completed_rounds`` advances, the checkpoint file
is rewritten atomically, and a metrics snapshot lands in the campaign's
run directory so ``repro runs show`` / ``repro top RUN_DIR`` observe
the live service.

The ingestor is also where a job's *distributed* lifecycle lands in the
campaign trace: ``offer`` accepts the completion record's observability
block (submit/claim/complete timestamps, worker, attempt, the trace
context stamped at submit) and, at the moment the result merges, writes
three cross-process spans — ``job/queue_wait``, ``job/execute`` and
``job/ingest_lag`` — plus one ``job_lifecycle`` event into the run
directory's ``trace.jsonl``.  Span ids derive deterministically from
(trace id, fingerprint, phase, attempt), so a crash-replayed attempt
reconstructs the same ids while a genuine retry gets fresh ones, and
``repro stats`` aggregates the phases into queue-wait vs execution vs
ingest-lag percentiles.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.campaign.scheduler import ProgressFn, merge_worker_result
from repro.campaign.spec import JobSpec
from repro.campaign.store import CampaignState
from repro.campaign.worker import WorkerResult
from repro.telemetry.tracing import derive_span_id


class StreamingIngestor:
    """Order-preserving incremental merge into one campaign's state."""

    def __init__(
        self,
        state: CampaignState,
        telemetry=None,
        progress: Optional[ProgressFn] = None,
        checkpoint_path: Optional[str] = None,
        run_dir=None,
    ) -> None:
        self.state = state
        self.telemetry = telemetry
        self.progress = progress
        self.checkpoint_path = checkpoint_path
        self.run_dir = run_dir
        #: job ids of the active round, in deterministic round order.
        self._order: List[str] = []
        #: index into :attr:`_order` of the next job to merge.
        self._next = 0
        self._buffer: Dict[str, WorkerResult] = {}
        #: per-job lifecycle blocks awaiting their merge (trace emission).
        self._lifecycles: Dict[str, Dict[str, object]] = {}
        #: results merged since construction (across rounds).
        self.merged = 0
        #: unique gadget sites discovered since construction.
        self.new_sites = 0

    # -- round protocol ------------------------------------------------------
    def begin_round(self, jobs: List[JobSpec]) -> None:
        """Arm the ingestor with one round's jobs (defines merge order)."""
        if not self.round_complete:
            raise RuntimeError("previous round still has unmerged jobs")
        self._order = [job.job_id for job in jobs]
        self._next = 0
        self._buffer.clear()
        self._lifecycles.clear()

    @property
    def round_complete(self) -> bool:
        return self._next >= len(self._order)

    def offer(self, result: WorkerResult,
              lifecycle: Optional[Dict[str, object]] = None) -> int:
        """Buffer one completion; merge every newly-contiguous prefix job.

        Returns the number of results merged by this call (0 when the
        result arrived ahead of an unfinished predecessor).  ``lifecycle``
        is the completion record's observability block (timestamps,
        worker, attempt, trace context); when the job's turn to merge
        comes, it becomes cross-process spans in the campaign trace.
        """
        self._buffer[result.job_id] = result
        if lifecycle is not None:
            self._lifecycles[result.job_id] = lifecycle
        merged = 0
        while (self._next < len(self._order)
               and self._order[self._next] in self._buffer):
            job_id = self._order[self._next]
            ready = self._buffer.pop(job_id)
            site_count = merge_worker_result(self.state, ready,
                                             telemetry=self.telemetry,
                                             progress=self.progress)
            self._emit_lifecycle(ready, self._lifecycles.pop(job_id, None))
            self.new_sites += site_count
            self.merged += 1
            self._next += 1
            merged += 1
        if merged and self.run_dir is not None and self.telemetry is not None:
            # Live observability: refresh metrics/latest.json as the
            # merged prefix grows, not just at round boundaries.
            self.run_dir.write_metrics_snapshot(self.telemetry)
        return merged

    def _emit_lifecycle(self, result: WorkerResult,
                        lifecycle: Optional[Dict[str, object]]) -> None:
        """Reconstruct one job's submit→claim→execute→complete→ingest
        journey as spans + one ``job_lifecycle`` event in the trace."""
        if lifecycle is None or self.telemetry is None:
            return
        trace = getattr(self.telemetry, "trace", None)
        if trace is None:
            return
        context = lifecycle.get("trace")
        context = context if isinstance(context, dict) else {}
        trace_id = str(context.get("trace_id", "") or "")
        attempt = int(lifecycle.get("attempt", 1) or 1)
        fingerprint = str(lifecycle.get("fingerprint", "") or "")

        def _ts(name: str) -> Optional[float]:
            value = lifecycle.get(name)
            return float(value) if isinstance(value, (int, float)) else None

        enqueued, claimed = _ts("enqueued_at"), _ts("claimed_at")
        completed = _ts("completed_at")
        exec_s = _ts("exec_elapsed_s")
        ingested = time.time()
        common: Dict[str, object] = {
            "job_id": result.job_id,
            "fingerprint": fingerprint,
            "attempt": attempt,
            "worker": lifecycle.get("worker"),
        }
        if trace_id:
            common["trace_id"] = trace_id
            common["parent_span_id"] = context.get("span_id")

        def _span(phase: str, name: str, elapsed: Optional[float]) -> None:
            if elapsed is None:
                return
            fields = dict(common)
            if trace_id:
                fields["span_id"] = derive_span_id(trace_id, fingerprint,
                                                   phase, attempt)
            trace.merge_span(name, f"job/{name}", elapsed, **fields)

        if enqueued is not None and claimed is not None:
            _span("queue_wait", "queue_wait", claimed - enqueued)
        _span("execute", "execute", exec_s)
        if completed is not None:
            _span("ingest_lag", "ingest_lag", ingested - completed)
        trace.event(
            "job_lifecycle",
            submitted_ts=enqueued, claimed_ts=claimed,
            completed_ts=completed, ingested_ts=round(ingested, 6),
            queue_wait_s=(round(max(0.0, claimed - enqueued), 6)
                          if enqueued is not None and claimed is not None
                          else None),
            exec_s=exec_s,
            ingest_lag_s=(round(max(0.0, ingested - completed), 6)
                          if completed is not None else None),
            **common)

    def finish_round(self) -> None:
        """Round barrier: advance counters, checkpoint, snapshot."""
        if not self.round_complete:
            raise RuntimeError(
                f"round incomplete: merged {self._next} of "
                f"{len(self._order)} jobs")
        self.state.completed_rounds += 1
        if self.telemetry is not None:
            registry = self.telemetry.registry
            registry.gauge("campaign.rounds_completed").set(
                self.state.completed_rounds)
            if self.telemetry.heartbeat is not None:
                self.telemetry.heartbeat.maybe_beat(force=True)
        if self.checkpoint_path:
            self.state.save(self.checkpoint_path)
            if self.telemetry is not None:
                self.telemetry.registry.counter(
                    "campaign.checkpoint_writes").inc()
        if self.run_dir is not None and self.telemetry is not None:
            self.run_dir.write_metrics_snapshot(self.telemetry)
