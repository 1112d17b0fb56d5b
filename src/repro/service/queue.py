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
* **claim** hard-links a fully-written lease record into ``leases/`` —
  ``os.link`` fails with ``EEXIST`` if a lease is there, so the
  filesystem arbitrates racing claimants and no reader ever sees a
  partial lease.  An *expired* lease (its holder missed every renewal
  for the visibility timeout) is taken over by atomically replacing the
  lease file with a fresh one carrying a new token and an incremented
  attempt counter.  Claim parses the job record once (:class:`JobRecord`);
  one that does not parse (:class:`JobRecordError`) gets a terminal
  ``failed`` done record naming the field, and the claim moves on to the
  next job.
* Lease and done records are parsed once per read as well
  (:class:`LeaseRecord`, :func:`_read_done`).  Both are always written
  whole, so one that does not parse is damage: ``claim`` takes a damaged
  lease over like an expired one, ``renew`` and ``fail`` report it lost,
  and ``result`` reports a damaged done record as a ``failed``
  completion whose error names the field, which the campaign driver
  merges as that job's failure.
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
from repro.records import REQUIRED, check_fields, write_atomic

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


class JobRecordError(ValueError):
    """A job record that does not parse; the message names the field."""


@dataclass(frozen=True)
class JobRecord:
    """A parsed job record: what a worker runs, and its submit metadata."""

    campaign_id: str
    job: JobSpec
    seeds: Optional[List[bytes]]
    #: wall-clock second of submission (None when the record has none).
    enqueued_at: Optional[float]
    #: the trace context stamped at submit (None on v1 records).
    trace: Optional[Dict[str, object]]

    @property
    def trace_id(self) -> Optional[object]:
        return self.trace.get("trace_id") if self.trace is not None else None

    @classmethod
    def parse(cls, text) -> "JobRecord":
        """Check and convert one record; :class:`JobRecordError` if bad.

        Job records are written once, atomically, so text that is not
        JSON is damage, not a write in progress.
        """
        record = check_fields(text, _JOB_FIELDS, JobRecordError)
        job = JobSpec.from_dict(record["job"], JobRecordError, "job.{}")
        seeds = record["seeds"]
        try:
            if seeds is not None:
                seeds = [bytes.fromhex(entry) for entry in seeds]
        except (TypeError, ValueError) as error:
            raise JobRecordError(f"seeds: {error}") from None
        enqueued_at = record["enqueued_at"]
        return cls(campaign_id=record["campaign_id"] or "", job=job,
                   seeds=seeds, trace=record["trace"],
                   enqueued_at=(None if enqueued_at is None
                                else float(enqueued_at)))


#: job record fields: (types, default); submit leaves out the optional ones.
_JOB_FIELDS = {"campaign_id": (str, None), "job": (dict, REQUIRED),
               "seeds": (list, None), "enqueued_at": ((int, float), None),
               "trace": (dict, None)}


class LeaseRecordError(ValueError):
    """A lease record that does not parse; the message names the field."""


@dataclass(frozen=True)
class LeaseRecord:
    """A parsed lease record."""

    token: str
    owner: str
    #: 1 on the first claim, +1 per expired-lease takeover.
    attempt: int
    deadline: float
    claimed_at: float
    #: the record as read (``renew`` rewrites it with a new deadline).
    fields: Dict[str, object]

    @classmethod
    def parse(cls, text) -> "LeaseRecord":
        """Check and convert one record; :class:`LeaseRecordError` if bad."""
        record = check_fields(text, _LEASE_FIELDS, LeaseRecordError)
        return cls(fields=record, **{name: record[name]
                                     for name in _LEASE_FIELDS})


_LEASE_FIELDS = {"token": (str, ""), "owner": (str, ""), "attempt": (int, 1),
                 "deadline": ((int, float), 0.0),
                 "claimed_at": ((int, float), 0.0)}


@dataclass
class JobLease:
    """One claimed job: what to run plus the renewal credentials."""

    fingerprint: str
    token: str
    owner: str
    deadline: float
    #: 1 on the first claim, +1 per expired-lease takeover.
    attempt: int
    #: the job record, parsed at claim.
    record: JobRecord
    #: wall-clock second this lease (re)started — queue-wait attribution.
    claimed_at: float = 0.0

    @property
    def campaign_id(self) -> str:
        return self.record.campaign_id

    def trace_context(self) -> Optional[Dict[str, object]]:
        """The trace context stamped at submit (None on v1 records)."""
        return self.record.trace

    def job_spec(self) -> JobSpec:
        return self.record.job

    def seeds(self) -> Optional[List[bytes]]:
        return self.record.seeds


def _atomic_write_json(path: str, record: Dict[str, object]) -> None:
    write_atomic(path, json.dumps(record, sort_keys=True))


def _link_json(path: str, record: Dict[str, object]) -> bool:
    """Write ``record`` at ``path`` unless a file is there; True if written.

    The record is written in full to a temp file and hard-linked into
    place: ``os.link`` fails with ``EEXIST`` if ``path`` exists, so the
    first writer wins and no reader ever sees a partial record.
    """
    fd, tmp_path = tempfile.mkstemp(prefix=".link-", suffix=".tmp",
                                    dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(record, handle, sort_keys=True)
        try:
            os.link(tmp_path, path)
        except FileExistsError:
            return False
        return True
    finally:
        os.unlink(tmp_path)


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _read_text(path: str) -> Optional[bytes]:
    """The record file's bytes (decoded by the parser, so bytes that are
    not UTF-8 read as a record that is not JSON)."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def _read_job_record(path: str) -> Optional[JobRecord]:
    """The parsed job record at ``path``; ``None`` when there is none."""
    text = _read_text(path)
    return None if text is None else JobRecord.parse(text)


def _read_lease(path: str) -> Optional[LeaseRecord]:
    """The parsed lease at ``path``; ``None`` when there is none.

    Raises:
        LeaseRecordError: the lease is damaged.
    """
    text = _read_text(path)
    return None if text is None else LeaseRecord.parse(text)


def _read_done(path: str, fingerprint: str) -> Optional[Dict[str, object]]:
    """The completion record at ``path``; ``None`` while there is none.

    A record that does not parse, or lacks a string ``status`` or an
    object ``result`` (:func:`~repro.records.check_fields`), comes back as a ``failed`` completion whose error
    starts ``DoneRecordError: <field>``: done records are linked whole,
    so it is damage, and the job must end rather than wait forever.
    """
    text = _read_text(path)
    if text is None:
        return None
    try:
        return check_fields(text, {"status": (str, REQUIRED),
                                   "result": (dict, REQUIRED)}, ValueError)
    except ValueError as problem:
        return {"kind": QUEUE_KIND, "schema_version": QUEUE_SCHEMA_VERSION,
                "fingerprint": fingerprint, "status": "failed",
                "result": {"job_id": fingerprint,
                           "error": f"DoneRecordError: {problem}"}}


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
        lease_path = self._lease_path(fingerprint)
        try:
            job_record = _read_job_record(self._job_path(fingerprint))
        except JobRecordError as error:
            # Running it again cannot help: fail it for good, once.
            self._write_done(fingerprint, None, status="failed",
                             error=f"JobRecordError: {error}")
            _unlink_quietly(lease_path)
            return None
        if job_record is None:
            return None
        now = time.time()
        try:
            existing = _read_lease(lease_path)
            damage = None
        except LeaseRecordError as error:
            # Leases are written whole, so this is damage: take it over
            # like an expired lease (its attempt count is lost).
            existing, damage = None, f"LeaseRecordError: {error}"
        if existing is None and damage is None:
            attempt = 1
        else:
            if existing is not None:
                if existing.deadline > now:
                    return None  # live lease (or cooldown) — not available
                self._count("service.queue.lease_timeouts")
            attempt = (existing.attempt if existing is not None else 1) + 1
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
        if attempt == 1:
            # First claim: the link fails if a racing process won.
            if not _link_json(lease_path, lease_record):
                return None
        else:
            # Takeover of an expired or damaged lease: atomic replace
            # installs the new token; the previous holder's
            # renew/complete calls fail their token check from here on.
            _atomic_write_json(lease_path, lease_record)
            self._count("service.queue.lease_takeovers")
            self._log("warning", "lease_takeover", fingerprint=fingerprint,
                      owner=owner,
                      previous_owner=(existing.owner if existing is not None
                                      else None),
                      attempt=attempt, damaged=damage,
                      trace_id=job_record.trace_id)
        self._count("service.queue.claims")
        if attempt == 1:
            # Queue wait is submit → *first* claim; a takeover's wait is
            # the previous holder's visibility timeout, not queue depth.
            enqueued = job_record.enqueued_at or now
            self._observe("service.job.queue_wait_s", max(0.0, now - enqueued))
        self._log("debug", "job_claimed", fingerprint=fingerprint,
                  owner=owner, attempt=attempt,
                  campaign_id=job_record.campaign_id,
                  trace_id=job_record.trace_id)
        return JobLease(fingerprint=fingerprint, token=token, owner=owner,
                        deadline=lease_record["deadline"], attempt=attempt,
                        record=job_record, claimed_at=now)

    # -- lease upkeep --------------------------------------------------------
    def renew(self, fingerprint: str, token: str,
              visibility_timeout: float = 30.0) -> bool:
        """Extend a held lease; ``False`` if it was lost (expired + taken,
        or damaged)."""
        lease_path = self._lease_path(fingerprint)
        try:
            lease = _read_lease(lease_path)
        except LeaseRecordError:
            return False
        if lease is None or lease.token != token:
            return False
        _atomic_write_json(lease_path, dict(
            lease.fields, deadline=time.time() + visibility_timeout))
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
        try:
            if not _link_json(self._done_path(fingerprint), record):
                # Someone completed it first: this result is discarded.
                self._count("service.queue.stale_completions")
                self._log("debug", "stale_completion",
                          fingerprint=fingerprint)
                return False
            self._count("service.queue.jobs_completed")
            if self.registry is not None:
                job_record = self._job_record(fingerprint)
                if job_record is not None and job_record.enqueued_at:
                    self._observe("service.job.e2e_s",
                                  max(0.0, now - job_record.enqueued_at))
            trace = (meta or {}).get("trace")
            trace_id = trace.get("trace_id") if isinstance(trace, dict) else None
            self._log("debug", "job_completed", fingerprint=fingerprint,
                      trace_id=trace_id)
            return True
        finally:
            lease_path = self._lease_path(fingerprint)
            try:
                lease = _read_lease(lease_path)
                ours = lease is not None and lease.token == token
            except LeaseRecordError:
                ours = True  # nobody holds a damaged lease
            if ours:
                _unlink_quietly(lease_path)
            self.signal_change()

    def fail(self, fingerprint: str, token: str, error: str,
             backoff_s: float = 0.0) -> bool:
        """Release a job after an unrecoverable worker-side error.

        With lease attempts left, the job goes back on offer after
        ``backoff_s`` (the lease is rewritten as an ownerless cooldown
        that nobody can renew); with the budget exhausted it is marked
        done with status ``failed``.  Returns ``False`` when the lease
        was already lost (or damaged).
        """
        lease_path = self._lease_path(fingerprint)
        try:
            lease = _read_lease(lease_path)
        except LeaseRecordError:
            return False
        if lease is None or lease.token != token:
            return False
        attempt = lease.attempt
        if attempt >= self.max_lease_attempts:
            self._write_done(fingerprint, self._job_record(fingerprint),
                             status="failed", error=error)
            _unlink_quietly(lease_path)
            return True
        cooldown: Dict[str, object] = {
            "fingerprint": fingerprint,
            "owner": "",
            "token": "",  # unrenewable: no caller holds the empty token
            "attempt": attempt,
            "deadline": time.time() + max(0.0, backoff_s),
            "claimed_at": float(lease.claimed_at),
            "last_error": error,
        }
        _atomic_write_json(lease_path, cooldown)
        self._count("service.queue.job_retries")
        self._log("info", "job_retry", fingerprint=fingerprint,
                  attempt=attempt, error=error)
        self.signal_change()
        return True

    def _job_record(self, fingerprint: str) -> Optional[JobRecord]:
        """The parsed job record; ``None`` when missing or damaged."""
        try:
            return _read_job_record(self._job_path(fingerprint))
        except JobRecordError:
            return None

    def _write_done(self, fingerprint: str, job_record: Optional[JobRecord],
                    status: str, error: str = "") -> None:
        """Terminal record for a job that will never produce a result.

        The payload is an error-shaped worker result: the campaign driver
        merges it as a failure of the job it submitted under
        ``fingerprint``, which names the job here when ``job_record`` is
        ``None`` (a damaged record).
        """
        record: Dict[str, object] = {
            "kind": QUEUE_KIND,
            "schema_version": QUEUE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "status": status,
            "completed_at": time.time(),
            "result": {"job_id": (job_record.job.job_id
                                  if job_record is not None else fingerprint),
                       "error": error or f"job {status}"},
        }
        if _link_json(self._done_path(fingerprint), record):
            self._count(f"service.queue.jobs_{status}")
            self._log("warning", f"job_{status}",
                      fingerprint=fingerprint, error=error or None,
                      trace_id=(job_record.trace_id
                                if job_record is not None else None))
        self.signal_change()

    def cancel(self, campaign_id: str) -> int:
        """Terminally mark every pending job of one campaign as cancelled."""
        cancelled = 0
        with self._claim_lock:
            for fingerprint in self._pending_fingerprints():
                record = self._job_record(fingerprint)
                if record is None or record.campaign_id != campaign_id:
                    continue
                self._write_done(fingerprint, record, status="cancelled")
                _unlink_quietly(self._lease_path(fingerprint))
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
        """The completion record of one job (``None`` while pending; a
        damaged one reads as a ``failed`` completion, see
        :func:`_read_done`)."""
        return _read_done(self._done_path(fingerprint), fingerprint)

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
                record = self.result(fingerprint)
                if record is None:
                    continue  # removed since the listing
                self._done_status[fingerprint] = record["status"]
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
