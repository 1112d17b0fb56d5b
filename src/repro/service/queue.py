"""Durable on-disk job queue with leases, visibility timeouts and dedup.

The queue is three directories of small JSON files under one root::

    queue/
        jobs/<fingerprint>.json    # the job record (spec + seeds), immutable
        leases/<fingerprint>.json  # who is working on it and until when
        done/<fingerprint>.json    # the completion record (result payload)

Every operation is a filesystem primitive with well-defined crash
semantics:

* **submit** writes the job record atomically (tmp file + ``os.replace``)
  and is idempotent: the fingerprint is a SHA-256 over the campaign id
  and the canonical JSON of the job spec, so re-submitting the same job
  is a no-op.
* **claim** creates the lease file with ``O_CREAT | O_EXCL`` — the
  filesystem arbitrates racing claimants.  An *expired* lease (its
  holder missed every renewal for the visibility timeout) is taken over
  by atomically replacing the lease file with a fresh one carrying a
  new token and an incremented attempt counter.
* **complete** hard-links a fully-written temp record into ``done/`` —
  ``os.link`` fails with ``EEXIST`` if a record is already there, which
  makes completion exactly-once even if an expired worker wakes up and
  finishes late (its stale result is discarded and its return value says
  so).
* A worker that dies mid-job writes nothing; its lease simply expires
  and the next ``claim`` re-offers the job.  Jobs are deterministic
  (results derive from the job seed), so a re-run merges identically.

In-process threads additionally serialize ``claim`` through a lock so a
fleet of worker threads never burns syscalls racing each other; the
on-disk protocol alone is what keeps *cross-process* access safe.

Observability (schema v2, backward compatible with v1 records): job
records may carry a ``trace`` context (``trace_id`` + span ids, stamped
at submit) and completion records a ``meta`` block (worker, attempt,
claim/execute timestamps, the echoed trace context) — both optional, so
v1 records round-trip untouched and a queue with observability off
writes byte-identical records to v1.  When a metrics ``registry`` is
attached the queue feeds ``service.queue.*`` counters/gauges and the
``service.job.*`` latency histograms; a structured ``log`` gets one
event per lifecycle transition.  Both are observation-only: nothing
reads them back.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.campaign.spec import JobSpec

#: Artifact tag of every record this queue writes.
QUEUE_KIND = "repro.service/job"
#: v2 added the optional ``trace`` (job records) and ``meta`` (done
#: records) blocks; readers tolerate their absence, so v1 records load.
QUEUE_SCHEMA_VERSION = 2

#: Lease takeovers allowed before a job is declared failed (a crash loop
#: must not re-offer a poisonous job forever).  Distinct from the in-worker
#: retry budget (:attr:`JobSpec.max_attempts`), which governs exceptions a
#: *live* worker sees.
DEFAULT_MAX_LEASE_ATTEMPTS = 5


def job_fingerprint(campaign_id: str, job: JobSpec) -> str:
    """Stable identity of one queued job (the dedup/idempotence key)."""
    canonical = json.dumps({"campaign": campaign_id, "job": job.to_dict()},
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


@dataclass
class JobLease:
    """One claimed job: what to run plus the renewal credentials."""

    fingerprint: str
    token: str
    owner: str
    deadline: float
    #: 1 on the first claim, +1 per expired-lease takeover.
    attempt: int
    #: the full job record (``campaign_id``, ``job`` dict, ``seeds`` hex).
    record: Dict[str, object]
    #: wall-clock second this lease (re)started — queue-wait attribution.
    claimed_at: float = 0.0

    @property
    def campaign_id(self) -> str:
        return str(self.record.get("campaign_id", ""))

    def trace_context(self) -> Optional[Dict[str, object]]:
        """The trace context stamped at submit (None on v1 records)."""
        trace = self.record.get("trace")
        return trace if isinstance(trace, dict) else None

    def job_spec(self) -> JobSpec:
        return JobSpec.from_dict(self.record["job"])

    def seeds(self) -> Optional[List[bytes]]:
        entries = self.record.get("seeds")
        if entries is None:
            return None
        return [bytes.fromhex(text) for text in entries]


def _atomic_write_json(path: str, record: Dict[str, object]) -> None:
    directory = os.path.dirname(path)
    fd, tmp_path = tempfile.mkstemp(prefix=".queue-", suffix=".tmp",
                                    dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(record, handle, sort_keys=True)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _read_json(path: str) -> Optional[Dict[str, object]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        # Missing, or mid-replace: the caller treats both as "not there
        # right now" and moves on.
        return None


class JobQueue:
    """The durable queue; see the module docstring for the protocol."""

    def __init__(self, root: str,
                 max_lease_attempts: int = DEFAULT_MAX_LEASE_ATTEMPTS,
                 registry=None, log=None) -> None:
        self.root = os.path.abspath(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        self.leases_dir = os.path.join(self.root, "leases")
        self.done_dir = os.path.join(self.root, "done")
        for directory in (self.jobs_dir, self.leases_dir, self.done_dir):
            os.makedirs(directory, exist_ok=True)
        self.max_lease_attempts = max(1, max_lease_attempts)
        #: optional MetricsRegistry fed with service.queue.* / service.job.*.
        self.registry = registry
        #: optional StructuredLogger (one event per lifecycle transition).
        self.log = log
        #: fingerprint → terminal status, filled lazily by :meth:`stats`
        #: so the failed-count scan reads each done record exactly once
        #: (and therefore survives process restarts, unlike a counter).
        self._done_status: Dict[str, str] = {}
        self._claim_lock = threading.Lock()
        # In-process change notification: submit/complete/fail bump the
        # sequence and wake waiters, so same-process pollers (the driver
        # harvesting results, idle workers) block on events instead of
        # sleeping fixed intervals.  Cross-process consumers still poll —
        # the timeout in wait_for_change bounds their staleness.
        self._change = threading.Condition()
        self._change_seq = 0

    # -- paths ---------------------------------------------------------------
    def _job_path(self, fingerprint: str) -> str:
        return os.path.join(self.jobs_dir, fingerprint + ".json")

    def _lease_path(self, fingerprint: str) -> str:
        return os.path.join(self.leases_dir, fingerprint + ".json")

    def _done_path(self, fingerprint: str) -> str:
        return os.path.join(self.done_dir, fingerprint + ".json")

    # -- instrumentation -----------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.registry is not None:
            self.registry.counter(name).inc(amount)

    def _observe(self, name: str, value: float) -> None:
        if self.registry is not None:
            from repro.telemetry.metrics import LATENCY_BUCKETS_S
            self.registry.histogram(name,
                                    buckets=LATENCY_BUCKETS_S).observe(value)

    def _log(self, level: str, event: str, **fields: object) -> None:
        if self.log is not None:
            self.log.log(level, event, **fields)

    # -- submission ----------------------------------------------------------
    def submit(self, campaign_id: str, job: JobSpec,
               seeds: Optional[Sequence[bytes]] = None,
               trace: Optional[Dict[str, object]] = None) -> str:
        """Enqueue one job; idempotent, returns the job fingerprint.

        ``trace`` is an optional distributed-trace context (``trace_id``
        plus span ids) stamped into the record and echoed back through
        the lease and completion paths; it never affects the
        fingerprint, so re-submitting with or without one stays a no-op.
        """
        fingerprint = job_fingerprint(campaign_id, job)
        path = self._job_path(fingerprint)
        if not os.path.exists(path):
            record: Dict[str, object] = {
                "kind": QUEUE_KIND,
                "schema_version": QUEUE_SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "campaign_id": campaign_id,
                "job": job.to_dict(),
                "enqueued_at": time.time(),
            }
            if seeds is not None:
                record["seeds"] = [entry.hex() for entry in seeds]
            if trace is not None:
                record["trace"] = dict(trace)
            _atomic_write_json(path, record)
            self._count("service.queue.submitted")
            self._log("debug", "job_submitted", fingerprint=fingerprint,
                      campaign_id=campaign_id, job_id=job.job_id,
                      trace_id=(trace or {}).get("trace_id"))
        self.signal_change()
        return fingerprint

    # -- claiming ------------------------------------------------------------
    def claim(self, owner: str,
              visibility_timeout: float = 30.0) -> Optional[JobLease]:
        """Lease the oldest available job, or ``None`` if all are busy/done.

        A job is available when it has no lease, or its lease's deadline
        has passed (the holder is presumed dead).  The returned lease
        must be renewed via :meth:`renew` faster than
        ``visibility_timeout`` or the job will be offered to someone
        else.
        """
        with self._claim_lock:
            for fingerprint in self._pending_fingerprints():
                lease = self._try_acquire(fingerprint, owner,
                                          visibility_timeout)
                if lease is not None:
                    return lease
        return None

    def _pending_fingerprints(self) -> List[str]:
        """Submitted-but-not-done fingerprints, oldest record first."""
        try:
            names = os.listdir(self.jobs_dir)
        except OSError:
            return []
        entries = []
        for name in names:
            if name.startswith(".") or not name.endswith(".json"):
                continue
            fingerprint = name[:-len(".json")]
            if os.path.exists(self._done_path(fingerprint)):
                continue
            try:
                mtime = os.path.getmtime(os.path.join(self.jobs_dir, name))
            except OSError:
                continue
            entries.append((mtime, fingerprint))
        entries.sort()
        return [fingerprint for _, fingerprint in entries]

    def _try_acquire(self, fingerprint: str, owner: str,
                     visibility_timeout: float) -> Optional[JobLease]:
        job_record = _read_json(self._job_path(fingerprint))
        if job_record is None:
            return None
        lease_path = self._lease_path(fingerprint)
        now = time.time()
        existing = _read_json(lease_path)
        if existing is None:
            attempt = 1
        else:
            if float(existing.get("deadline", 0.0)) > now:
                return None  # live lease (or cooldown) — not available
            attempt = int(existing.get("attempt", 1)) + 1
            self._count("service.queue.lease_timeouts")
            if attempt > self.max_lease_attempts:
                # The job keeps killing its workers; fail it for good so
                # the campaign can finish with a failed_jobs entry
                # instead of looping forever.
                self._write_done(
                    fingerprint, job_record, status="failed",
                    error=(f"lease expired {attempt - 1} times "
                           f"(limit {self.max_lease_attempts})"))
                os.unlink(lease_path)
                return None
        token = uuid.uuid4().hex
        lease_record: Dict[str, object] = {
            "fingerprint": fingerprint,
            "owner": owner,
            "token": token,
            "attempt": attempt,
            "deadline": now + visibility_timeout,
            "claimed_at": now,
        }
        if existing is None:
            # First claim: O_EXCL so racing processes cannot both win.
            try:
                fd = os.open(lease_path,
                             os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                return None
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(lease_record, handle, sort_keys=True)
        else:
            # Takeover of an expired lease: atomic replace installs the
            # new token; the previous holder's renew/complete calls fail
            # their token check from here on.
            _atomic_write_json(lease_path, lease_record)
            self._count("service.queue.lease_takeovers")
            self._log("warning", "lease_takeover", fingerprint=fingerprint,
                      owner=owner, previous_owner=existing.get("owner"),
                      attempt=attempt,
                      trace_id=(job_record.get("trace") or {}).get(
                          "trace_id"))
        self._count("service.queue.claims")
        if attempt == 1:
            # Queue wait is submit → *first* claim; a takeover's wait is
            # the previous holder's visibility timeout, not queue depth.
            enqueued = float(job_record.get("enqueued_at", now) or now)
            self._observe("service.job.queue_wait_s", max(0.0, now - enqueued))
        self._log("debug", "job_claimed", fingerprint=fingerprint,
                  owner=owner, attempt=attempt,
                  campaign_id=job_record.get("campaign_id"),
                  trace_id=(job_record.get("trace") or {}).get("trace_id"))
        return JobLease(fingerprint=fingerprint, token=token, owner=owner,
                        deadline=lease_record["deadline"], attempt=attempt,
                        record=job_record, claimed_at=now)

    # -- lease upkeep --------------------------------------------------------
    def renew(self, fingerprint: str, token: str,
              visibility_timeout: float = 30.0) -> bool:
        """Extend a held lease; ``False`` if it was lost (expired + taken)."""
        lease_path = self._lease_path(fingerprint)
        record = _read_json(lease_path)
        if record is None or record.get("token") != token:
            return False
        record["deadline"] = time.time() + visibility_timeout
        _atomic_write_json(lease_path, record)
        return True

    def complete(self, fingerprint: str, token: str,
                 result: Dict[str, object],
                 meta: Optional[Dict[str, object]] = None) -> bool:
        """Record a finished job exactly once.

        Returns ``True`` if this call's result became the job's
        completion record, ``False`` if someone else (a retry after this
        worker's lease expired) completed it first — the caller's result
        is then discarded, which keeps completion idempotent.  The token
        is not required to still be valid: a slow-but-alive worker whose
        lease lapsed may still land its (identical, deterministic)
        result if nobody beat it to the link.

        ``meta`` is an optional observability block (worker name,
        attempt, claim/execute timestamps, echoed trace context) the
        ingestor turns into lifecycle spans; it never affects which
        completion wins.
        """
        now = time.time()
        done_path = self._done_path(fingerprint)
        record: Dict[str, object] = {
            "kind": QUEUE_KIND,
            "schema_version": QUEUE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "status": "completed",
            "token": token,
            "completed_at": now,
            "result": result,
        }
        if meta is not None:
            record["meta"] = dict(meta)
        directory = os.path.dirname(done_path)
        fd, tmp_path = tempfile.mkstemp(prefix=".done-", suffix=".tmp",
                                        dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True)
            try:
                os.link(tmp_path, done_path)  # EXCL: first completion wins
            except FileExistsError:
                self._count("service.queue.stale_completions")
                self._log("debug", "stale_completion",
                          fingerprint=fingerprint)
                return False
            self._count("service.queue.jobs_completed")
            if self.registry is not None:
                job_record = _read_json(self._job_path(fingerprint)) or {}
                enqueued = job_record.get("enqueued_at")
                if isinstance(enqueued, (int, float)):
                    self._observe("service.job.e2e_s",
                                  max(0.0, now - float(enqueued)))
            trace_id = None
            if meta is not None:
                trace_id = (meta.get("trace") or {}).get("trace_id") \
                    if isinstance(meta.get("trace"), dict) else None
            self._log("debug", "job_completed", fingerprint=fingerprint,
                      trace_id=trace_id)
            return True
        finally:
            os.unlink(tmp_path)
            lease_path = self._lease_path(fingerprint)
            lease = _read_json(lease_path)
            if lease is not None and lease.get("token") == token:
                try:
                    os.unlink(lease_path)
                except OSError:
                    pass
            self.signal_change()

    def fail(self, fingerprint: str, token: str, error: str,
             backoff_s: float = 0.0) -> bool:
        """Release a job after an unrecoverable worker-side error.

        With lease attempts left, the job goes back on offer after
        ``backoff_s`` (the lease is rewritten as an ownerless cooldown
        that nobody can renew); with the budget exhausted it is marked
        done with status ``failed``.  Returns ``False`` when the lease
        was already lost.
        """
        lease_path = self._lease_path(fingerprint)
        lease = _read_json(lease_path)
        if lease is None or lease.get("token") != token:
            return False
        attempt = int(lease.get("attempt", 1))
        if attempt >= self.max_lease_attempts:
            job_record = _read_json(self._job_path(fingerprint)) or {}
            self._write_done(fingerprint, job_record, status="failed",
                             error=error)
            try:
                os.unlink(lease_path)
            except OSError:
                pass
            return True
        cooldown: Dict[str, object] = {
            "fingerprint": fingerprint,
            "owner": "",
            "token": "",  # unrenewable: no caller holds the empty token
            "attempt": attempt,
            "deadline": time.time() + max(0.0, backoff_s),
            "claimed_at": float(lease.get("claimed_at", 0.0)),
            "last_error": error,
        }
        _atomic_write_json(lease_path, cooldown)
        self._count("service.queue.job_retries")
        self._log("info", "job_retry", fingerprint=fingerprint,
                  attempt=attempt, error=error)
        self.signal_change()
        return True

    def _write_done(self, fingerprint: str, job_record: Dict[str, object],
                    status: str, error: str = "") -> None:
        """Terminal record for a job that will never produce a result.

        The payload is an error-shaped worker result, so the ingestor's
        ordinary merge path records it as a failed job.
        """
        job = dict(job_record.get("job", {}))
        spec = JobSpec.from_dict(job) if job else None
        result: Dict[str, object] = {
            "job_id": spec.job_id if spec is not None else fingerprint,
            "target": job.get("target", ""),
            "tool": job.get("tool", ""),
            "variant": job.get("variant", "vanilla"),
            "shard": job.get("shard", 0),
            "round_index": job.get("round_index", 0),
            "error": error or f"job {status}",
        }
        record: Dict[str, object] = {
            "kind": QUEUE_KIND,
            "schema_version": QUEUE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "status": status,
            "completed_at": time.time(),
            "result": result,
        }
        done_path = self._done_path(fingerprint)
        directory = os.path.dirname(done_path)
        fd, tmp_path = tempfile.mkstemp(prefix=".done-", suffix=".tmp",
                                        dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True)
            try:
                os.link(tmp_path, done_path)
            except FileExistsError:
                pass
            else:
                self._count(f"service.queue.jobs_{status}")
                self._log("warning", f"job_{status}",
                          fingerprint=fingerprint, error=error or None,
                          trace_id=(job_record.get("trace") or {}).get(
                              "trace_id"))
        finally:
            os.unlink(tmp_path)
            self.signal_change()

    def cancel(self, campaign_id: str) -> int:
        """Terminally mark every pending job of one campaign as cancelled."""
        cancelled = 0
        with self._claim_lock:
            for fingerprint in self._pending_fingerprints():
                record = _read_json(self._job_path(fingerprint))
                if record is None or record.get("campaign_id") != campaign_id:
                    continue
                self._write_done(fingerprint, record, status="cancelled")
                try:
                    os.unlink(self._lease_path(fingerprint))
                except OSError:
                    pass
                cancelled += 1
        return cancelled

    # -- change notification -------------------------------------------------
    def signal_change(self) -> None:
        """Wake every :meth:`wait_for_change` caller."""
        with self._change:
            self._change_seq += 1
            self._change.notify_all()

    def change_token(self) -> int:
        """Opaque sequence marker; take it *before* scanning the queue."""
        with self._change:
            return self._change_seq

    def wait_for_change(self, token: int, timeout: float) -> int:
        """Block until the queue changed since ``token`` (or ``timeout``).

        The token closes the check-then-wait race: a change that landed
        between the caller's scan and this call returns immediately.
        Returns the current sequence for the next wait.
        """
        with self._change:
            if self._change_seq == token:
                self._change.wait(timeout)
            return self._change_seq

    # -- observation ---------------------------------------------------------
    def result(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """The completion record of one job (``None`` while pending)."""
        return _read_json(self._done_path(fingerprint))

    def stats(self) -> Dict[str, int]:
        """Queue-depth counters for the status/metrics endpoints.

        ``failed`` counts terminal ``status != "completed"`` done
        records by reading each record once (the status cache persists
        across calls and the scan itself survives process restarts —
        unlike an in-memory counter, a fresh queue over the same root
        reports the same figure).
        """
        def _names(directory: str) -> List[str]:
            try:
                return [name[:-len(".json")]
                        for name in os.listdir(directory)
                        if name.endswith(".json")
                        and not name.startswith(".")]
            except OSError:
                return []

        done_names = _names(self.done_dir)
        for fingerprint in done_names:
            if fingerprint not in self._done_status:
                record = _read_json(self._done_path(fingerprint))
                if record is None:
                    continue  # mid-link; picked up on the next scan
                self._done_status[fingerprint] = str(
                    record.get("status", "completed"))
        failed = sum(1 for fingerprint in done_names
                     if self._done_status.get(fingerprint,
                                              "completed") != "completed")
        submitted = len(_names(self.jobs_dir))
        done = len(done_names)
        return {
            "submitted": submitted,
            "leased": len(_names(self.leases_dir)),
            "done": done,
            "failed": failed,
            "pending": max(0, submitted - done),
        }

    def observe_gauges(self) -> Dict[str, int]:
        """Refresh the ``service.queue.*`` depth gauges from :meth:`stats`.

        Called by the ``/metrics`` scrape path (pull-style gauges: depth
        is derived state, so sampling at scrape time is both cheap and
        always consistent with the on-disk truth).  Returns the stats.
        """
        stats = self.stats()
        if self.registry is not None:
            for name in ("pending", "leased", "done", "failed"):
                self.registry.gauge(f"service.queue.{name}").set(stats[name])
        return stats
