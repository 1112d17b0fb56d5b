"""The fuzzing service façade: submit campaigns, drive them, watch them.

A :class:`FuzzService` owns one durable :class:`~repro.service.queue.
JobQueue`, one :class:`~repro.service.worker.WorkerFleet` and one
:class:`~repro.telemetry.runs.RunRegistry` under a single root
directory::

    service-root/
        queue/    # jobs / leases / done  (crash-safe work records)
        runs/     # one telemetry run directory per campaign
        state/    # per-campaign checkpoint files

``submit`` registers a campaign and returns immediately; a driver thread
runs it through the campaign round loop
(:class:`repro.campaign.scheduler.RoundLoop`), so its summary is
bit-identical to the in-process runner's.  Only a round's jobs run
differently: every job of the round is queued at once, runs concurrently
across the fleet, and is offered to the loop's ingestor as it completes.

The service survives worker deaths (expired leases re-offer jobs) and
its own restarts (checkpoints resume a campaign mid-flight); the HTTP
layer in :mod:`repro.service.httpapi` is a thin veneer over the
``submit``/``status``/``reports``/``cancel`` methods here.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, List, Optional

from repro._version import __version__
from repro.campaign.scheduler import (ProgressFn, RoundLoop,
                                     StreamingIngestor, Task)
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import group_key_str
from repro.campaign.summary import CampaignSummary
from repro.campaign.worker import WorkerResult
from repro.service.queue import JobQueue
from repro.service.worker import WorkerFleet
from repro.telemetry import Telemetry
from repro.telemetry.logging import StructuredLogger
from repro.telemetry.metrics import merge_counts
from repro.telemetry.runs import RunRegistry
from repro.telemetry.tracing import derive_span_id, new_trace_id

#: Artifact tag of the ``GET /v1/campaigns/<id>`` status body.
STATUS_KIND = "repro.service/campaign-status"
STATUS_SCHEMA_VERSION = 1

_campaign_seq = itertools.count(1)


class UnknownCampaignError(KeyError):
    """Asked about a campaign id this service never saw."""

    def __str__(self) -> str:
        return self.args[0]


class _Campaign(RoundLoop):
    """One submitted campaign: its service-side record and its rounds.

    As a :class:`RoundLoop` it runs each round's jobs on the fleet: it
    enqueues them with their corpus shards and offers each completion to
    the ingestor as it lands.
    """

    def __init__(self, service: "FuzzService", campaign_id: str,
                 spec: CampaignSpec, checkpoint_path: str, run_dir,
                 telemetry=None, progress: Optional[ProgressFn] = None,
                 ) -> None:
        super().__init__(spec, checkpoint_path, progress)
        self.service = service
        self.campaign_id = campaign_id
        self.run_dir = run_dir
        #: the caller's telemetry bundle to drive under (None: a private
        #: bundle recording into :attr:`run_dir`).
        self.telemetry = telemetry
        #: distributed-trace id stamped into every queued job record.
        self.trace_id = new_trace_id()
        self.status = "queued"
        self.error = ""
        #: the exception that failed the campaign (``status == "failed"``).
        self.exception: Optional[Exception] = None
        self.summary: Optional[CampaignSummary] = None
        self.created_at = time.time()
        self.finished_at: Optional[float] = None
        self.jobs_total = 0
        self.jobs_done = 0
        self.cancel_event = threading.Event()
        self.done_event = threading.Event()
        self.lock = threading.Lock()

    def finish(self, status: str, manifest: Optional[Dict[str, object]] = None,
               **fields: object) -> None:
        """Record the end: ``fields`` here, ``manifest`` in the run dir."""
        with self.lock:
            self.status = status
            self.finished_at = time.time()
            for name, value in fields.items():
                setattr(self, name, value)
        self.run_dir.finalize(status=status, **(manifest or {}))

    def _run_jobs(self, round_index: int, tasks: List[Task],
                  ingestor: StreamingIngestor) -> None:
        queue = self.service.queue
        if self.cancel_event.is_set():
            raise _Cancelled()
        round_span_id = derive_span_id(self.trace_id, "round", round_index)
        pending: Dict[str, JobSpec] = {}
        for job, seeds in tasks:
            trace = self._trace_context(job, round_span_id)
            pending[queue.submit(self.campaign_id, job, seeds,
                                 trace=trace)] = job
        with self.lock:
            self.jobs_total += len(tasks)
        running = ingestor.telemetry.registry.gauge("campaign.jobs_running")
        while pending:
            if self.cancel_event.is_set():
                raise _Cancelled()
            token = queue.change_token()
            harvested = False
            for fingerprint in list(pending):
                record = queue.result(fingerprint)
                if record is None:
                    continue
                job = pending.pop(fingerprint)
                harvested = True
                if record.get("status") == "completed":
                    result = WorkerResult.from_dict(record["result"])
                else:
                    # The queue failed or cancelled the job itself: merge
                    # that as this job's failure, even when its record was
                    # too damaged to name the job.
                    result = WorkerResult.for_job(
                        job, error=str(record["result"]["error"]))
                ingestor.offer(result,
                               lifecycle=self._lifecycle(fingerprint, record))
                with self.lock:
                    self.jobs_done += 1
                running.set(len(pending))
            if not harvested:
                # Completions signal the queue's condition variable; the
                # poll interval only bounds cross-process lag and the
                # cancel-check latency.
                queue.wait_for_change(token, self.service.poll_interval)

    # -- distributed tracing -------------------------------------------------
    def _trace_context(self, job: JobSpec,
                       round_span_id: str) -> Optional[Dict[str, object]]:
        """The trace context stamped into one queued job record."""
        if not self.service.observe:
            return None
        return {
            "trace_id": self.trace_id,
            "span_id": derive_span_id(self.trace_id, job.job_id, "submit"),
            "parent_span_id": round_span_id,
            "campaign_id": self.campaign_id,
        }

    def _lifecycle(self, fingerprint: str, record: Dict[str, object],
                   ) -> Optional[Dict[str, object]]:
        """A completion record → the ingestor's lifecycle block."""
        if not self.service.observe:
            return None
        meta = record.get("meta")
        if not isinstance(meta, dict):
            return None  # v1 record, or a terminal failure (no worker ran)
        return dict(meta, fingerprint=fingerprint,
                    completed_at=record.get("completed_at"))


class FuzzService:
    """Durable queue + worker fleet + per-campaign driver threads."""

    def __init__(
        self,
        root: str,
        workers: int = 2,
        visibility_timeout: float = 30.0,
        poll_interval: float = 0.02,
        observe: bool = True,
        log: Optional[StructuredLogger] = None,
    ) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.started_at = time.time()
        #: ``observe=False`` turns the service observatory off: no
        #: service-level metrics registry, no trace context stamped into
        #: queue records, no lifecycle span merging — queue records stay
        #: byte-identical to schema v1 and the instrumentation cost
        #: drops to a handful of ``is not None`` checks.  Campaign
        #: summaries are bit-identical either way (observation only).
        self.observe = observe
        self.log = log if log is not None else StructuredLogger(None)
        #: service-level telemetry (queue depth, fleet, job latency) —
        #: distinct from the per-campaign driver bundles that write the
        #: run directories.
        self.telemetry: Optional[Telemetry] = Telemetry() if observe else None
        registry = self.telemetry.registry if self.telemetry else None
        self.queue = JobQueue(os.path.join(self.root, "queue"),
                              registry=registry,
                              log=self.log.bind(logger="service.queue"))
        self.registry = RunRegistry(os.path.join(self.root, "runs"))
        self.state_dir = os.path.join(self.root, "state")
        os.makedirs(self.state_dir, exist_ok=True)
        self.poll_interval = poll_interval
        self.fleet = WorkerFleet(self.queue, count=workers,
                                 visibility_timeout=visibility_timeout,
                                 poll_interval=poll_interval,
                                 registry=registry,
                                 log=self.log.bind(logger="service.worker"),
                                 meta=observe)
        self._campaigns: Dict[str, _Campaign] = {}
        self._drivers: Dict[str, threading.Thread] = {}
        self._lock = threading.Lock()
        self._started = False

    @property
    def uptime_s(self) -> float:
        return max(0.0, time.time() - self.started_at)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "FuzzService":
        if not self._started:
            self.fleet.start()
            self._started = True
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Cancel every live campaign and stop the fleet."""
        with self._lock:
            campaigns = list(self._campaigns.values())
            drivers = list(self._drivers.values())
        for campaign in campaigns:
            campaign.cancel_event.set()
        for driver in drivers:
            driver.join(timeout=timeout)
        self.fleet.stop(timeout=timeout)
        self._started = False

    # -- submission ----------------------------------------------------------
    def submit(self, spec: CampaignSpec, resume: bool = False,
               checkpoint_path: Optional[str] = None,
               progress: Optional[ProgressFn] = None,
               telemetry=None) -> str:
        """Register a campaign and start driving it; returns its id.

        ``checkpoint_path`` defaults to a file under the service's
        ``state/`` directory; ``""`` runs the campaign without
        checkpoints.  ``telemetry`` is a bundle to drive the campaign
        under — its registry, trace and run directory receive the
        campaign's counters, spans and metrics snapshots — instead of a
        private one recording into the service's own run directory.
        """
        fingerprint = spec.fingerprint()
        campaign_id = f"c{next(_campaign_seq):04d}-{fingerprint[:8]}"
        if checkpoint_path is None:
            checkpoint_path = os.path.join(self.state_dir,
                                           campaign_id + ".json")
        run_dir = self.registry.create_run(
            command="service",
            target=",".join(spec.targets),
            engine=spec.engine,
            variants=list(spec.spec_variants),
            config=spec.to_dict(),
            extra={"campaign_id": campaign_id},
        )
        campaign = _Campaign(self, campaign_id, spec, checkpoint_path,
                             run_dir, telemetry=telemetry, progress=progress)
        self.log.info("campaign_submitted", logger="service.core",
                      campaign_id=campaign_id, trace_id=campaign.trace_id,
                      fingerprint=fingerprint, run_id=run_dir.run_id,
                      resume=resume or None)
        with self._lock:
            self._campaigns[campaign_id] = campaign
            driver = threading.Thread(
                target=self._drive, args=(campaign, resume),
                name=f"repro-service-driver-{campaign_id}", daemon=True)
            self._drivers[campaign_id] = driver
        self.start()
        driver.start()
        return campaign_id

    # -- the driver ----------------------------------------------------------
    def _drive(self, campaign: _Campaign, resume: bool) -> None:
        telemetry = campaign.telemetry
        owned = telemetry is None
        if owned:
            telemetry = Telemetry.create(trace=campaign.run_dir.trace_path)
            telemetry.run_dir = campaign.run_dir
        log = self.log.bind(logger="service.core",
                            campaign_id=campaign.campaign_id,
                            trace_id=campaign.trace_id)
        try:
            state = campaign.open_state(resume)
            with campaign.lock:
                campaign.status = "running"
            log.info("campaign_started", fingerprint=state.fingerprint,
                     rounds=campaign.spec.rounds,
                     resumed_rounds=state.completed_rounds,
                     run_id=campaign.run_dir.run_id)
            summary = campaign.run_rounds(state, telemetry,
                                          workers=len(self.fleet.workers),
                                          trace_id=campaign.trace_id)
            totals = {"unique_gadgets": summary.total_unique_gadgets(),
                      "executions": summary.total_executions()}
            campaign.finish("completed", manifest=totals, summary=summary)
            log.info("campaign_completed", **totals)
        except _Cancelled:
            self.queue.cancel(campaign.campaign_id)
            campaign.finish("cancelled")
            log.warning("campaign_cancelled")
        except Exception as error:  # noqa: BLE001 - surfaced via status
            message = f"{type(error).__name__}: {error}"
            campaign.finish("failed", manifest={"error": message},
                            error=message, exception=error)
            log.error("campaign_failed", error=message)
        finally:
            if owned:
                telemetry.close()
            campaign.done_event.set()

    # -- observation ---------------------------------------------------------
    def metrics_view(self):
        """A render-ready view of the service's metrics.

        Refreshes the pull-style gauges (queue depth, fleet liveness,
        per-worker utilization) from the live queue and fleet, then
        returns a :class:`~repro.telemetry.export.MetricsView` the
        Prometheus renderer accepts.  The registries of campaigns
        submitted with a caller's ``telemetry`` bundle (a served
        ``repro campaign``) are merged in, so ``/metrics`` shows their
        ``campaign.*``/``engine.*`` totals growing as jobs merge.  With
        ``observe=False`` the service-level families are absent —
        ``/metrics`` then serves no service families rather than 404ing,
        so scrapers keep a stable target.
        """
        from repro.telemetry.export import MetricsView

        view = MetricsView()
        if self.telemetry is not None:
            self.queue.observe_gauges()
            self.fleet.observe_gauges()
            view = MetricsView.from_telemetry(self.telemetry)
        with self._lock:
            bundles = {id(campaign.telemetry): campaign.telemetry
                       for campaign in self._campaigns.values()
                       if campaign.telemetry is not None}
        for bundle in bundles.values():
            part = MetricsView.from_telemetry(bundle)
            merge_counts(view.counters, part.counters)
            view.gauges.update(part.gauges)
            view.histograms.update(part.histograms)
        return view

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` body: liveness plus identity."""
        return {
            "status": "ok",
            "version": __version__,
            "uptime_s": round(self.uptime_s, 3),
            "observe": self.observe,
        }

    def readiness(self) -> Dict[str, object]:
        """The ``/readyz`` body; ``ready`` gates the 200-vs-503 choice."""
        counts = self.fleet.counts()
        ready = bool(self._started and counts["alive"] > 0)
        return {
            "ready": ready,
            "started": self._started,
            "workers_alive": counts["alive"],
            "workers": counts["workers"],
        }

    def fleet_status(self) -> Dict[str, object]:
        """The ``/v1/fleet`` body: per-worker rows plus the counts."""
        return {
            "kind": "repro.service/fleet-status",
            "schema_version": 1,
            "counts": self.fleet.counts(),
            "workers": self.fleet.describe(),
        }
    def _campaign(self, campaign_id: str) -> _Campaign:
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            raise UnknownCampaignError(
                f"unknown campaign {campaign_id!r}; known: "
                f"{sorted(self._campaigns) or '(none)'}")
        return campaign

    def campaign_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._campaigns)

    def status(self, campaign_id: str) -> Dict[str, object]:
        """The status record one ``GET /v1/campaigns/<id>`` returns."""
        campaign = self._campaign(campaign_id)
        with campaign.lock:
            record: Dict[str, object] = {
                "kind": STATUS_KIND,
                "schema_version": STATUS_SCHEMA_VERSION,
                "version": __version__,
                "campaign_id": campaign.campaign_id,
                "status": campaign.status,
                "trace_id": campaign.trace_id,
                "fingerprint": campaign.spec.fingerprint(),
                "spec": campaign.spec.to_dict(),
                "run_id": campaign.run_dir.run_id,
                "rounds": campaign.spec.rounds,
                "rounds_completed": campaign.rounds_completed,
                "jobs_total": campaign.jobs_total,
                "jobs_done": campaign.jobs_done,
                "created_at": campaign.created_at,
                "finished_at": campaign.finished_at,
            }
            if campaign.error:
                record["error"] = campaign.error
            if campaign.summary is not None:
                record["summary"] = campaign.summary.to_dict()
        return record

    def statuses(self) -> List[Dict[str, object]]:
        return [self.status(campaign_id)
                for campaign_id in self.campaign_ids()]

    def reports(self, campaign_id: str) -> Dict[str, object]:
        """Deduplicated per-group reports of one (finished) campaign."""
        campaign = self._campaign(campaign_id)
        with campaign.lock:
            summary = campaign.summary
        if summary is None:
            return {"campaign_id": campaign_id, "groups": {},
                    "status": campaign.status}
        groups = {
            group_key_str(group.key): group.collection.to_dicts()
            for group in summary.groups
        }
        return {"campaign_id": campaign_id, "status": campaign.status,
                "groups": groups}

    def cancel(self, campaign_id: str) -> Dict[str, object]:
        """Request cancellation (idempotent); returns the fresh status."""
        campaign = self._campaign(campaign_id)
        campaign.cancel_event.set()
        return self.status(campaign_id)

    def wait(self, campaign_id: str,
             timeout: Optional[float] = None) -> Optional[CampaignSummary]:
        """Block until a campaign finishes; its summary (None if not
        completed — cancelled, failed, or timed out)."""
        campaign = self._campaign(campaign_id)
        campaign.done_event.wait(timeout)
        with campaign.lock:
            return campaign.summary

    def failure(self, campaign_id: str) -> Optional[Exception]:
        """The exception that failed a campaign (None unless failed)."""
        campaign = self._campaign(campaign_id)
        with campaign.lock:
            return campaign.exception


class _Cancelled(Exception):
    """Internal control flow: the campaign's cancel event fired."""

