"""Fuzzing as a service: durable queue, worker fleet, HTTP submit/status.

This package turns the batch campaign machinery of :mod:`repro.campaign`
into a long-running service:

* :mod:`repro.service.queue` — a crash-safe on-disk job queue with
  atomic claim/renew/complete, visibility timeouts (a dead worker's
  lease expires and the job is offered again) and idempotent completion
  keyed by job fingerprint.
* :mod:`repro.service.worker` — a fleet of workers pulling leased jobs
  and executing them, each in its own forked child process, through the
  ordinary :func:`repro.campaign.worker.execute_task` entry point,
  renewing their leases from a shared heartbeat.
* :mod:`repro.service.ingest` — streaming result ingestion: worker
  results merge into the campaign state *as they arrive* (in job order,
  so the outcome is bit-identical to the batch schedulers) with
  per-round checkpoints and metrics snapshots.
* :mod:`repro.service.core` — the :class:`FuzzService` façade gluing
  the three together, one driver thread per submitted campaign.
* :mod:`repro.service.httpapi` — a thin stdlib HTTP/JSON API
  (``POST /v1/campaigns``, ``GET /v1/campaigns/<id>``, ...).
* :mod:`repro.service.cli` — the ``repro serve`` / ``repro submit`` /
  ``repro status`` commands.

Importing :mod:`repro.service.scheduler` registers the ``service``
campaign-scheduler plugin, so ``run_campaign(spec, scheduler="service")``
drives a whole campaign through an ephemeral service instance and
returns a summary identical to the ``pool``/``serial`` schedulers'.
"""

__all__ = ["FuzzService", "JobQueue", "JobLease"]


def __getattr__(name):
    # Lazy re-exports: the client-side CLI commands (`repro submit` /
    # `repro status`) import this package without ever needing the
    # campaign machinery behind FuzzService.
    if name == "FuzzService":
        from repro.service.core import FuzzService

        return FuzzService
    if name in ("JobQueue", "JobLease"):
        from repro.service import queue

        return getattr(queue, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
