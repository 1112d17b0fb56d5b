"""Campaign orchestration: parallel multi-target fuzzing at suite scale.

This subsystem scales the single-loop fuzzer of :mod:`repro.fuzzing` to the
paper's evaluation shape — many (target × tool × variant) campaigns at
once:

* :class:`CampaignSpec` describes the matrix and expands it into
  deterministic :class:`JobSpec` work units;
* :func:`run_campaign` runs the jobs — in this process
  (:class:`CampaignScheduler`) when nothing needs worker processes, else
  on an ephemeral :mod:`repro.service` fleet whose workers each run jobs
  in a child process — syncs sharded corpora between rounds, and
  checkpoints after each;
* :class:`ReportStore` deduplicates gadget reports by site across workers;
* :func:`summarize` renders the Table-3/Table-4-style summary;
* ``repro campaign`` (or ``python -m repro.campaign``) drives the whole
  suite from the command line.

See ``docs/campaigns.md`` for the CLI and the JSON checkpoint format.
"""

from repro.campaign.spec import (
    TOOLS,
    VARIANTS,
    CampaignSpec,
    JobSpec,
    derive_seed,
    split_evenly,
)
from repro.campaign.store import CampaignState, GroupStats, ReportStore
from repro.campaign.summary import CampaignSummary, GroupSummary, summarize
from repro.campaign.scheduler import CampaignScheduler, run_campaign
from repro.campaign.worker import WorkerResult, build_runtime, run_job

__all__ = [
    "TOOLS",
    "VARIANTS",
    "CampaignSpec",
    "JobSpec",
    "derive_seed",
    "split_evenly",
    "CampaignState",
    "GroupStats",
    "ReportStore",
    "CampaignSummary",
    "GroupSummary",
    "summarize",
    "CampaignScheduler",
    "run_campaign",
    "WorkerResult",
    "build_runtime",
    "run_job",
]
