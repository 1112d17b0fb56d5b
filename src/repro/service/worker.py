"""The worker fleet: threads that lease jobs and run them in child processes.

Each :class:`ServiceWorker` is a thread that loops claim → execute →
complete against one :class:`~repro.service.queue.JobQueue`, and owns
one long-lived child process that does the fuzzing.  The thread forks
the child (``multiprocessing``'s ``fork`` context) on its first claim,
so the child inherits the server's compiled binaries, jit memos and any active ``binary_override``.  The
thread sends each ``(job, seeds)`` over a pipe and gets
:meth:`WorkerResult.to_dict` back; the child runs only that job loop and
never touches the server's locks (logger, queue, registries).  With N
workers the fleet therefore fuzzes on N cores instead of sharing one
GIL with the campaign drivers and the HTTP handlers.

Execution goes through the ordinary
:func:`repro.campaign.worker.execute_task` entry point, with an attempt
runner that hands the attempt to the child, so the per-job retry and
backoff policy and the error boxing are exactly the in-process loop's
(an exception becomes an error-carrying
:class:`~repro.campaign.worker.WorkerResult`, recorded as a failed job
— it never poisons the queue).  The thread waits at most
``job.timeout_s`` for the answer; at the deadline it SIGKILLs and reaps
the child, so a timeout really stops the work, and the attempt fails
with :class:`~repro.campaign.worker.JobTimeoutError`.  A child that dies
mid-job fails its attempt with :class:`WorkerCrashedError`.  Either way
the next attempt forks a fresh child.  A child also exits when the
server dies (``PR_SET_PDEATHSIG``), so a ``kill -9`` of ``repro serve``
leaves no orphan holding its port, and :meth:`WorkerFleet.stop` kills
and reaps every child.

When the server has a telemetry session active, the child runs each job
under a registry-only bundle and returns the ``fuzz.*``/``engine.*``
counter deltas in :attr:`WorkerResult.telemetry_counts`;
:func:`repro.campaign.scheduler.merge_worker_result` folds them into the
registry driving the campaign, once, when the result merges.

A shared :class:`WorkerFleet` heartbeat thread renews every in-flight
lease at a third of the visibility timeout, so leases only expire when a
worker has genuinely stopped making progress (its server crashed or was
killed).  When that happens the queue re-offers the job and another
worker replays it from its derived seed — results are deterministic, so
the retry merges identically.

Observability: each worker tracks its last-heartbeat instant, its
cumulative busy seconds, the job it currently holds and its child; the
fleet's :meth:`WorkerFleet.describe` turns that into the ``/v1/fleet``
rows (heartbeat age, utilization, current job, child ``pid`` and its
``peak_rss_mb``).  With observability enabled (``meta=True``, the
service default) a completing worker attaches the observability
``meta`` block — attempt, claim/execute timing, the echoed trace
context — that the ingestor merges into the campaign's trace as
cross-process lifecycle spans.  With it disabled the complete call is
byte-identical to schema v1.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from typing import Dict, List, Optional, Tuple

from repro.campaign import worker as campaign_worker
from repro.campaign.spec import JobSpec
from repro.campaign.worker import JobTimeoutError, WorkerResult, execute_task
from repro.service.queue import JobLease, JobQueue
from repro.telemetry import Telemetry
from repro.telemetry.context import active as active_telemetry
from repro.telemetry.context import session as telemetry_session

#: ``prctl`` option: signal this process when its parent thread exits.
_PR_SET_PDEATHSIG = 1

#: Held while a worker forks its child, so that no child inherits a
#: sibling's child end of a pipe (which would hide that sibling's death
#: from the server).
_FORK_LOCK = threading.Lock()


class WorkerCrashedError(Exception):
    """A worker's child process died before answering for its job."""


class WorkerStopped(BaseException):
    """The fleet stopped while the worker held a job.

    Not an :class:`Exception`, so ``execute_task`` neither retries nor
    records it: the job goes back to the queue instead.
    """


class _RemoteTraceback(Exception):
    """The child's formatted traceback, chained under the re-raised error."""

    def __str__(self) -> str:
        return str(self.args[0])


def _exit_with_parent(parent_pid: int) -> None:
    """Make this child die with the thread (and server) that forked it."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        armed = libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) == 0
    except (OSError, AttributeError):
        armed = False
    if not armed:  # no prctl (not Linux): poll for reparenting instead
        def watch() -> None:
            while os.getppid() == parent_pid:
                time.sleep(0.2)
            os._exit(1)

        threading.Thread(target=watch, daemon=True).start()
    if os.getppid() != parent_pid:  # the server died before we armed
        os._exit(1)


def _child_main(conn, parent_pid: int) -> None:
    """A worker child's loop: run each ``(job, seeds)`` the thread sends."""
    _exit_with_parent(parent_pid)
    # Ctrl-C reaches the whole process group; the server stops its
    # children itself.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            job, seeds, count_telemetry = conn.recv()
        except (EOFError, OSError):
            return
        conn.send(_child_attempt(job, seeds, count_telemetry))


def _child_attempt(job: JobSpec, seeds: Optional[List[bytes]],
                   count_telemetry: bool) -> Tuple[str, object]:
    """Run one job in the child; the reply the thread unpacks."""
    try:
        if not count_telemetry:
            return "ok", campaign_worker.run_job(job, seeds).to_dict()
        # The server's telemetry slot is pid-guarded and reads None here,
        # so count under a registry-only bundle.
        bundle = Telemetry()
        cache_before = jit_cache_stats()
        with telemetry_session(bundle):
            result = campaign_worker.run_job(job, seeds)
        result.telemetry_counts = collect_counts(bundle, cache_before)
        return "ok", result.to_dict()
    except Exception as error:  # noqa: BLE001 - boxed for the thread
        return "error", (error, traceback.format_exc())


def collect_counts(telemetry,
                   cache_stats_before: Optional[Dict[str, int]] = None,
                   ) -> Dict[str, int]:
    """One job's counter deltas from a child's per-job telemetry bundle.

    Only *counters* are collected — they are per-job deltas by
    construction (the bundle is created fresh per job) and sum cleanly
    across jobs, workers and rounds.  Gauges (corpus size, compiled-block
    table sizes) are point-in-time per process and are deliberately left
    out.  The jit compiled-block cache is the exception: its statistics
    are cumulative per *process*, so the caller snapshots them before the
    job (``cache_stats_before``) and the per-job delta is emitted under
    ``engine.jit.cache.<key>``.
    """
    counts: Dict[str, int] = {}
    for name, counter in telemetry.registry.counters().items():
        if counter.value:
            counts[name] = counter.value
    if cache_stats_before is not None:
        for key, value in jit_cache_stats().items():
            delta = value - cache_stats_before.get(key, 0)
            if delta:
                counts[f"engine.jit.cache.{key}"] = delta
    return counts


def jit_cache_stats() -> Dict[str, int]:
    """Snapshot of the process-wide compiled-block cache statistics."""
    from repro.runtime.jitcache import shared_cache

    return dict(shared_cache().stats)


def _peak_rss_mb(pid: Optional[int]) -> Optional[float]:
    """A live process's ``VmHWM`` in MB (None when unreadable)."""
    if pid is None:
        return None
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    return None


class ServiceWorker(threading.Thread):
    """One queue consumer: a daemon thread plus the child that runs its jobs."""

    def __init__(
        self,
        queue: JobQueue,
        name: str = "worker",
        visibility_timeout: float = 30.0,
        poll_interval: float = 0.05,
        stop_event: Optional[threading.Event] = None,
        registry=None,
        log=None,
        meta: bool = True,
    ) -> None:
        super().__init__(name=f"repro-service-{name}", daemon=True)
        self.queue = queue
        self.worker_name = name
        self.visibility_timeout = visibility_timeout
        self.poll_interval = poll_interval
        self.stop_event = stop_event or threading.Event()
        self.registry = registry
        self.log = log
        self.meta = meta
        #: jobs this worker completed (observability only).
        self.completed = 0
        #: wall-clock seconds spent executing jobs (observability only).
        self.busy_s = 0.0
        self.started_at: Optional[float] = None
        self.last_heartbeat: Optional[float] = None
        self._lease_lock = threading.Lock()
        self._active: Optional[Tuple[str, str]] = None  # (fingerprint, token)
        self._current: Optional[Dict[str, object]] = None
        #: (process, pipe end) of the child, forked on the first claim.
        self._child: Optional[Tuple[multiprocessing.process.BaseProcess,
                                    object]] = None
        self._child_pid: Optional[int] = None
        self._child_busy = False
        self._child_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------
    def run(self) -> None:
        self.started_at = self.last_heartbeat = time.time()
        try:
            self._loop()
        finally:
            self.reap_child()

    def _loop(self) -> None:
        while not self.stop_event.is_set():
            self.last_heartbeat = time.time()
            token = self.queue.change_token()
            lease = self.queue.claim(self.worker_name,
                                     self.visibility_timeout)
            if lease is None:
                # Wake on the next submit/release instead of burning the
                # full poll interval (which still bounds the wait — other
                # processes feeding the queue can't signal us).
                self.queue.wait_for_change(token, self.poll_interval)
                continue
            with self._lease_lock:
                self._active = (lease.fingerprint, lease.token)
                self._current = {
                    "fingerprint": lease.fingerprint,
                    "job_id": lease.job_spec().job_id,
                    "campaign_id": lease.campaign_id,
                    "attempt": lease.attempt,
                    "claimed_at": lease.claimed_at,
                }
            started = time.perf_counter()
            try:
                result = self._execute(lease)
                elapsed = time.perf_counter() - started
                meta = self._meta_block(lease, elapsed) if self.meta else None
                if self.queue.complete(lease.fingerprint, lease.token,
                                       result.to_dict(), meta=meta):
                    self.completed += 1
                    if self.registry is not None:
                        self.registry.counter(
                            "service.worker.jobs_completed").inc()
                        from repro.telemetry.metrics import LATENCY_BUCKETS_S
                        self.registry.histogram(
                            "service.job.exec_s",
                            buckets=LATENCY_BUCKETS_S).observe(elapsed)
            except BaseException as error:  # noqa: BLE001 - keep consuming
                # execute_task boxes job errors; anything reaching here is
                # fleet-level (a test-injected crash, interpreter teardown).
                # Release the job for someone else and keep the loop alive.
                elapsed = time.perf_counter() - started
                if self.log is not None:
                    self.log.error(
                        "worker_error", worker=self.worker_name,
                        fingerprint=lease.fingerprint,
                        error=f"{type(error).__name__}: {error}")
                self.queue.fail(lease.fingerprint, lease.token,
                                f"{type(error).__name__}: {error}")
            finally:
                self.busy_s += time.perf_counter() - started
                self.last_heartbeat = time.time()
                with self._lease_lock:
                    self._active = None
                    self._current = None

    def _execute(self, lease: JobLease) -> WorkerResult:
        """Run one leased job (overridable: crash tests substitute this)."""
        return execute_task((lease.job_spec(), lease.seeds()),
                            run_attempt=self._run_in_child)

    # -- the child process ---------------------------------------------------
    def _run_in_child(self, job: JobSpec,
                      seeds: Optional[List[bytes]]) -> WorkerResult:
        """One attempt of ``job`` in this worker's child process.

        Waits at most ``job.timeout_s`` (forever when 0); at the deadline
        the child is killed and reaped.  A child that dies mid-job is
        reaped too; the next attempt forks a fresh one.
        """
        count_telemetry = active_telemetry() is not None
        process, conn = self._checkout_child()
        pid = process.pid
        try:
            conn.send((job, seeds, count_telemetry))
            if not conn.poll(job.timeout_s if job.timeout_s > 0 else None):
                self.reap_child()
                raise JobTimeoutError(
                    f"job exceeded its {job.timeout_s:g}s wall-clock budget")
            status, payload = conn.recv()
        except (EOFError, OSError):
            exitcode = self.reap_child()
            if self.stop_event.is_set():
                raise WorkerStopped("the fleet stopped mid-job") from None
            raise WorkerCrashedError(
                f"worker process {pid} died mid-job "
                f"(exit code {exitcode})") from None
        finally:
            with self._child_lock:
                self._child_busy = False
        if status == "error":
            error, formatted = payload
            raise error from _RemoteTraceback(formatted)
        return WorkerResult.from_dict(payload)

    def _checkout_child(self):
        """This worker's live child, forked now if need be, marked busy.

        Checked and marked under one lock, so :meth:`WorkerFleet.stop`
        either sees the child busy and kills it, or has already set the
        stop flag this raises on.
        """
        with self._child_lock:
            if self.stop_event.is_set():
                raise WorkerStopped("the fleet is stopping")
            if self._child is None or not self._child[0].is_alive():
                self._reap_locked()
                context = multiprocessing.get_context("fork")
                with _FORK_LOCK:
                    ours, theirs = context.Pipe()
                    process = context.Process(
                        target=_child_main, args=(theirs, os.getpid()),
                        name=f"repro-service-{self.worker_name}",
                        daemon=True)
                    process.start()
                    theirs.close()
                self._child = (process, ours)
                self._child_pid = process.pid
            self._child_busy = True
            return self._child

    def reap_child(self) -> Optional[int]:
        """SIGKILL and reap the child (if any); its exit code.

        Only the job in flight lives in the child, so killing an idle one
        loses nothing.
        """
        with self._child_lock:
            return self._reap_locked()

    def _reap_locked(self) -> Optional[int]:
        child, self._child = self._child, None
        self._child_pid = None
        if child is None:
            return None
        process, conn = child
        if process.exitcode is None:  # not dead already: keep its own code
            process.kill()
        process.join()
        conn.close()
        exitcode = process.exitcode
        process.close()
        return exitcode

    def kill_busy_child(self) -> None:
        """SIGKILL the child if it is running a job (the thread reaps it)."""
        with self._child_lock:
            if self._child is not None and self._child_busy:
                self._child[0].kill()

    def child_pid(self) -> Optional[int]:
        """The pid of this worker's child (None before the first claim)."""
        return self._child_pid

    def _meta_block(self, lease: JobLease,
                    exec_elapsed_s: float) -> Dict[str, object]:
        """The completion-record observability block (schema v2)."""
        meta: Dict[str, object] = {
            "worker": self.worker_name,
            "attempt": lease.attempt,
            "claimed_at": lease.claimed_at,
            "exec_elapsed_s": round(exec_elapsed_s, 6),
        }
        if lease.record.enqueued_at is not None:
            meta["enqueued_at"] = lease.record.enqueued_at
        trace = lease.trace_context()
        if trace is not None:
            meta["trace"] = dict(trace)
        return meta

    # -- heartbeat support ----------------------------------------------------
    def active_lease(self) -> Optional[Tuple[str, str]]:
        with self._lease_lock:
            return self._active

    def current_job(self) -> Optional[Dict[str, object]]:
        """The job this worker holds right now (None when idle)."""
        with self._lease_lock:
            return dict(self._current) if self._current is not None else None

    def describe(self, now: Optional[float] = None) -> Dict[str, object]:
        """One ``/v1/fleet`` row: liveness, utilization, current job."""
        now = time.time() if now is None else now
        pid = self.child_pid()
        uptime = max(0.0, now - self.started_at) if self.started_at else 0.0
        record: Dict[str, object] = {
            "name": self.worker_name,
            "alive": self.is_alive(),
            "busy": self.active_lease() is not None,
            "completed": self.completed,
            "busy_s": round(self.busy_s, 3),
            "uptime_s": round(uptime, 3),
            "utilization": round(self.busy_s / uptime, 4) if uptime else 0.0,
            "heartbeat_age_s": (round(now - self.last_heartbeat, 3)
                                if self.last_heartbeat is not None else None),
            "current_job": self.current_job(),
            "pid": pid,
            "peak_rss_mb": _peak_rss_mb(pid),
        }
        return record

    def stop(self) -> None:
        self.stop_event.set()


class WorkerFleet:
    """N workers plus the heartbeat that keeps their leases alive."""

    def __init__(self, queue: JobQueue, count: int = 2,
                 visibility_timeout: float = 30.0,
                 poll_interval: float = 0.05,
                 registry=None, log=None, meta: bool = True) -> None:
        self.queue = queue
        self.visibility_timeout = visibility_timeout
        self.registry = registry
        self._stop = threading.Event()
        self.workers: List[ServiceWorker] = [
            ServiceWorker(queue, name=f"w{index}",
                          visibility_timeout=visibility_timeout,
                          poll_interval=poll_interval,
                          stop_event=self._stop,
                          registry=registry, log=log, meta=meta)
            for index in range(max(1, count))
        ]
        self._heartbeat: Optional[threading.Thread] = None

    def start(self) -> "WorkerFleet":
        for worker in self.workers:
            worker.start()
        if self._heartbeat is None:
            self._heartbeat = threading.Thread(
                target=self._renew_loop, name="repro-service-heartbeat",
                daemon=True)
            self._heartbeat.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the workers; kill and reap their children."""
        self._stop.set()
        self.queue.signal_change()  # idle workers stop waiting for work
        for worker in self.workers:
            worker.kill_busy_child()
        for worker in self.workers:
            if worker.ident is not None:  # never-started fleets stop cleanly
                worker.join(timeout=timeout)
            worker.reap_child()
        if self._heartbeat is not None:
            self._heartbeat.join(timeout=timeout)
            self._heartbeat = None

    def _renew_loop(self) -> None:
        interval = max(0.05, self.visibility_timeout / 3.0)
        while not self._stop.wait(interval):
            for worker in self.workers:
                active = worker.active_lease()
                if active is None or not worker.is_alive():
                    # A dead worker's lease is deliberately left to
                    # expire: that is the crash-recovery path.
                    continue
                fingerprint, token = active
                if self.queue.renew(fingerprint, token,
                                    self.visibility_timeout):
                    # A successful renew is proof of life for a worker
                    # stuck inside one long job (its loop isn't turning).
                    worker.last_heartbeat = time.time()

    def counts(self) -> Dict[str, int]:
        return {
            "workers": len(self.workers),
            "alive": sum(1 for worker in self.workers if worker.is_alive()),
            "busy": sum(1 for worker in self.workers
                        if worker.active_lease() is not None),
            "completed": sum(worker.completed for worker in self.workers),
        }

    def describe(self) -> List[Dict[str, object]]:
        """Per-worker status rows (the ``/v1/fleet`` body)."""
        now = time.time()
        return [worker.describe(now) for worker in self.workers]

    def observe_gauges(self) -> Dict[str, int]:
        """Refresh ``service.fleet.*`` gauges from the live counts."""
        counts = self.counts()
        if self.registry is not None:
            for name in ("workers", "alive", "busy"):
                self.registry.gauge(f"service.fleet.{name}").set(counts[name])
            for worker in self.workers:
                self.registry.gauge(
                    f"service.worker.utilization.{worker.worker_name}").set(
                        worker.describe().get("utilization", 0.0))
        return counts
