"""The campaign runner that needs worker processes.

:func:`~repro.campaign.scheduler.run_campaign` hands a campaign to
:class:`ServiceCampaignScheduler` when it has more than one worker, a
job timeout or a ``serve`` address.  The runner submits it to an
ephemeral :class:`~repro.service.core.FuzzService` (a durable queue plus
``max(1, spec.workers)`` workers, each running jobs in a forked child,
so a job timeout kills the job) in a scratch directory, torn down when
the campaign finishes.  The service drives the campaign through the same
round loop as the in-process
:class:`~repro.campaign.scheduler.CampaignScheduler`, so results are
bit-identical.

Under an active telemetry session the service drives the campaign in
that session: counters, round spans and metrics snapshots land in the
caller's registry, trace and run directory.  When the session carries a
``serve`` address (``repro campaign --serve``,
``Pipeline.telemetry(serve=...)``), the service's HTTP API
(:mod:`repro.service.httpapi`) is bound there while the campaign runs.
A session with an engine profiler never reaches this runner.

Set ``REPRO_SERVICE_DIR`` to keep the queue/run directories around for
inspection instead of using (and deleting) a temp directory, and
``REPRO_SERVICE_OBSERVE=0`` to switch the service observatory (metrics
+ distributed job tracing) off — summaries are bit-identical either
way.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Optional

from repro.campaign.scheduler import ProgressFn
from repro.campaign.spec import CampaignSpec
from repro.campaign.summary import CampaignSummary
from repro.service.core import FuzzService
from repro.telemetry.context import active as active_telemetry

#: Environment override for the ephemeral service root.
SERVICE_DIR_ENV = "REPRO_SERVICE_DIR"

#: Set to ``0`` to run the ephemeral service with observability off.
SERVICE_OBSERVE_ENV = "REPRO_SERVICE_OBSERVE"


class ServiceCampaignScheduler:
    """Run one campaign through a private, short-lived fuzzing service."""

    #: visibility timeout for the ephemeral fleet.  Jobs run in the
    #: workers' child processes; the leases are renewed by a heartbeat
    #: thread in this process, which shares its GIL only with the
    #: driver and worker threads.  Generous all the same, so that a loaded host
    #: never costs a busy worker its lease.
    visibility_timeout = 60.0

    def __init__(
        self,
        spec: CampaignSpec,
        checkpoint_path: Optional[str] = None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        self.spec = spec
        self.checkpoint_path = checkpoint_path
        self._progress = progress

    def run(self, resume: bool = False) -> CampaignSummary:
        telemetry = active_telemetry()
        serve = telemetry.serve if telemetry is not None else None
        root = os.environ.get(SERVICE_DIR_ENV)
        scratch = None
        if not root:
            scratch = tempfile.mkdtemp(prefix="repro-service-")
            root = scratch
        service = FuzzService(
            root,
            workers=max(1, self.spec.workers),
            visibility_timeout=self.visibility_timeout,
            observe=os.environ.get(SERVICE_OBSERVE_ENV, "1") != "0",
        )
        api = None
        try:
            if serve is not None:
                from repro.service.httpapi import serve_api

                try:
                    api = serve_api(service, *serve)
                except OSError as error:
                    raise OSError(
                        f"cannot serve the campaign API on "
                        f"{serve[0]}:{serve[1]}: {error}") from error
                if self._progress is not None:
                    self._progress(f"serving the campaign API on {api.url}")
            campaign_id = service.submit(
                self.spec, resume=resume,
                checkpoint_path=self.checkpoint_path or "",
                progress=self._progress,
                telemetry=telemetry)
            summary = service.wait(campaign_id)
            if summary is None:
                failure = service.failure(campaign_id)
                if failure is not None:
                    # What the in-process loop would have raised (a
                    # mismatched checkpoint, an unknown target, ...).
                    raise failure
                status = service.status(campaign_id)
                raise RuntimeError(
                    "service campaign ended without a summary "
                    f"(status {status.get('status')!r}"
                    + (f": {status['error']}" if status.get("error") else "")
                    + ")")
            return summary
        finally:
            if api is not None:
                api.stop()
            service.stop()
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)
