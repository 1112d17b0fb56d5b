"""The ``service`` campaign-scheduler plugin.

``run_campaign(spec, scheduler="service")`` — and therefore ``repro
campaign --scheduler service`` and ``Pipeline.fuzz(scheduler=
"service")`` — runs the campaign through an ephemeral
:class:`~repro.service.core.FuzzService`: a durable queue plus
``spec.workers`` workers (each a thread with its own job process) in a
scratch directory, torn down when the campaign finishes.  Results are bit-identical to the ``pool`` and
``serial`` schedulers (the streaming ingestor merges in job order), so
this is simultaneously the service's integration test surface and a
way to exercise lease/requeue machinery under the ordinary campaign
API.

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

from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.summary import CampaignSummary
from repro.plugins import register_scheduler
from repro.service.core import FuzzService

#: Environment override for the ephemeral service root.
SERVICE_DIR_ENV = "REPRO_SERVICE_DIR"

#: Set to ``0`` to run the ephemeral service with observability off.
SERVICE_OBSERVE_ENV = "REPRO_SERVICE_OBSERVE"


@register_scheduler("service")
class ServiceCampaignScheduler(CampaignScheduler):
    """Run one campaign through a private, short-lived fuzzing service."""

    #: visibility timeout for the ephemeral fleet.  Jobs run in the
    #: workers' child processes; the leases are renewed by a heartbeat
    #: thread in this process, which shares its GIL only with the driver
    #: and ingest threads.  Generous all the same, so that a loaded host
    #: never costs a busy worker its lease.
    visibility_timeout = 60.0

    def run(self, resume: bool = False) -> CampaignSummary:
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
        try:
            campaign_id = service.submit(
                self.spec, resume=resume,
                checkpoint_path=self.checkpoint_path,
                progress=self._progress)
            summary = service.wait(campaign_id)
            if summary is None:
                status = service.status(campaign_id)
                raise RuntimeError(
                    "service campaign ended without a summary "
                    f"(status {status.get('status')!r}"
                    + (f": {status['error']}" if status.get("error") else "")
                    + ")")
            return summary
        finally:
            service.stop()
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)
