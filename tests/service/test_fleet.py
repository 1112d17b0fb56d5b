"""Worker fleet behavior: draining the queue, heartbeats, crash recovery."""

from __future__ import annotations

import os
import signal
import threading
import time

import repro.campaign.worker as campaign_worker
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.worker import JobTimeoutError, WorkerResult
from repro.service.core import FuzzService
from repro.service.queue import JobQueue
from repro.service.worker import (ServiceWorker, WorkerCrashedError,
                                  WorkerFleet)
from repro.telemetry.export import wait_until

#: Jobs with this seed never finish (see ``_stall_seed``).
STALL_SEED = 666


def _job(**overrides):
    params = dict(target="gadgets", tool="teapot", iterations=5, seed=1)
    params.update(overrides)
    return JobSpec(**params)


def _synthetic_result(lease):
    job = lease.job_spec()
    return WorkerResult(job_id=job.job_id, target=job.target, tool=job.tool,
                        variant=job.variant, shard=job.shard,
                        round_index=job.round_index, executions=job.iterations)


def _stall_seed(monkeypatch, stall=lambda: None):
    """Make jobs seeded :data:`STALL_SEED` run ``stall`` forever.

    Patched before the fleet starts, so the forked children inherit it.
    """
    real_run_job = campaign_worker.run_job

    def run_job(job, seeds=None):
        while job.seed == STALL_SEED:
            stall()
        return real_run_job(job, seeds)

    monkeypatch.setattr(campaign_worker, "run_job", run_job)


def _alive(pid):
    """True while ``pid`` exists (a zombie counts: it was not reaped)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _holder(fleet, fingerprint):
    """The worker currently holding ``fingerprint`` (None if nobody)."""
    for worker in fleet.workers:
        current = worker.current_job()
        if current is not None and current["fingerprint"] == fingerprint:
            return worker
    return None


class _FakeWorker(ServiceWorker):
    """A worker that fabricates results instead of running the emulator."""

    def _execute(self, lease):
        return _synthetic_result(lease)


def test_fleet_drains_the_queue(tmp_path, monkeypatch):
    monkeypatch.setattr(ServiceWorker, "_execute", _FakeWorker._execute)
    queue = JobQueue(str(tmp_path / "queue"))
    fingerprints = [queue.submit("c1", _job(shard=i, shard_count=4))
                    for i in range(4)]
    fleet = WorkerFleet(queue, count=3, visibility_timeout=5.0)
    fleet.start()
    try:
        assert wait_until(lambda: queue.stats()["pending"] == 0, timeout=10)
        for fingerprint in fingerprints:
            record = queue.result(fingerprint)
            assert record["status"] == "completed"
            assert record["result"]["executions"] == 5
        counts = fleet.counts()
        assert counts["completed"] == 4
        assert counts["alive"] == 3
    finally:
        fleet.stop()
    assert fleet.counts()["alive"] == 0


def test_dead_workers_job_is_replayed_by_a_peer(tmp_path, monkeypatch):
    """A worker that goes silent loses its lease; a peer redoes the job."""
    died = threading.Event()

    def flaky_execute(self, lease):
        if self.worker_name == "w0" and not died.is_set():
            died.set()
            # Simulate a crash: stop heartbeating (drop the active lease)
            # and never produce a result for this claim.
            with self._lease_lock:
                self._active = None
            while not self.stop_event.is_set():
                time.sleep(0.01)
            raise RuntimeError("worker killed")
        return _synthetic_result(lease)

    monkeypatch.setattr(ServiceWorker, "_execute", flaky_execute)
    queue = JobQueue(str(tmp_path / "queue"))
    fingerprint = queue.submit("c1", _job())
    fleet = WorkerFleet(queue, count=2, visibility_timeout=0.2)
    fleet.start()
    try:
        assert wait_until(lambda: queue.result(fingerprint) is not None,
                          timeout=10)
        record = queue.result(fingerprint)
        assert record["status"] == "completed"
        assert record["result"]["executions"] == 5
        assert died.is_set()
    finally:
        fleet.stop()


def test_worker_level_crash_releases_the_job(tmp_path, monkeypatch):
    """An exception escaping _execute releases the lease via fail()."""
    crashes = []

    def crashing_execute(self, lease):
        if not crashes:
            crashes.append(1)
            raise MemoryError("fleet-level crash")
        return _synthetic_result(lease)

    monkeypatch.setattr(ServiceWorker, "_execute", crashing_execute)
    queue = JobQueue(str(tmp_path / "queue"))
    fingerprint = queue.submit("c1", _job())
    fleet = WorkerFleet(queue, count=1, visibility_timeout=5.0)
    fleet.start()
    try:
        assert wait_until(lambda: queue.result(fingerprint) is not None,
                          timeout=10)
        record = queue.result(fingerprint)
        assert record["status"] == "completed"
        assert crashes  # first attempt really did crash
    finally:
        fleet.stop()


def test_heartbeat_outlives_visibility_timeout(tmp_path, monkeypatch):
    """A slow-but-alive job keeps its lease across several timeouts."""
    takeovers = []

    def slow_execute(self, lease):
        if lease.attempt > 1:
            takeovers.append(lease.attempt)
        time.sleep(1.0)  # several times the 0.3s visibility timeout
        return _synthetic_result(lease)

    monkeypatch.setattr(ServiceWorker, "_execute", slow_execute)
    queue = JobQueue(str(tmp_path / "queue"))
    fingerprint = queue.submit("c1", _job())
    fleet = WorkerFleet(queue, count=2, visibility_timeout=0.3)
    fleet.start()
    try:
        assert wait_until(lambda: queue.result(fingerprint) is not None,
                          timeout=10)
        assert takeovers == []  # the heartbeat kept the lease alive
    finally:
        fleet.stop()


def test_timeout_kills_the_runaway_child_while_a_peer_progresses(
        tmp_path, monkeypatch):
    """A timed-out job's process is killed and reaped at the deadline."""
    _stall_seed(monkeypatch)  # a pure-Python spin: it holds a core
    queue = JobQueue(str(tmp_path / "queue"))
    runaway = queue.submit("c1", _job(seed=STALL_SEED, timeout_s=0.5))
    fleet = WorkerFleet(queue, count=2, visibility_timeout=5.0)
    fleet.start()
    try:
        assert wait_until(lambda: _holder(fleet, runaway) is not None
                          and _holder(fleet, runaway).child_pid() is not None,
                          timeout=10)
        holder = _holder(fleet, runaway)
        pid = holder.child_pid()
        claimed = time.monotonic()
        normal = queue.submit("c1", _job(seed=2))
        assert wait_until(lambda: queue.result(runaway) is not None,
                          timeout=10)
        assert time.monotonic() - claimed < 5.0
        record = queue.result(runaway)
        assert record["result"]["error"].startswith(
            JobTimeoutError.__name__)
        assert not _alive(pid)  # killed and reaped, not left a zombie
        assert holder.child_pid() is None
        assert wait_until(lambda: queue.result(normal) is not None,
                          timeout=60)
        done = queue.result(normal)
        assert done["result"]["error"] == ""
        assert done["result"]["executions"] == 5
        assert done["meta"]["worker"] != record["meta"]["worker"]
    finally:
        fleet.stop()


def test_killed_child_fails_its_job_and_the_next_job_forks_afresh(
        tmp_path, monkeypatch):
    _stall_seed(monkeypatch, stall=lambda: time.sleep(0.05))
    queue = JobQueue(str(tmp_path / "queue"))
    victim = queue.submit("c1", _job(seed=STALL_SEED))
    fleet = WorkerFleet(queue, count=1, visibility_timeout=5.0)
    (worker,) = fleet.workers
    fleet.start()
    try:
        assert wait_until(lambda: worker.current_job() is not None
                          and worker.child_pid() is not None, timeout=10)
        pid = worker.child_pid()
        os.kill(pid, signal.SIGKILL)
        assert wait_until(lambda: queue.result(victim) is not None,
                          timeout=10)
        error = queue.result(victim)["result"]["error"]
        assert error.startswith(WorkerCrashedError.__name__)
        assert not _alive(pid)
        follow_up = queue.submit("c1", _job(seed=3))
        assert wait_until(lambda: queue.result(follow_up) is not None,
                          timeout=60)
        assert queue.result(follow_up)["result"]["error"] == ""
        assert worker.child_pid() not in (None, pid)
    finally:
        fleet.stop()


def test_child_errors_keep_their_type_and_traceback(tmp_path, monkeypatch):
    def raises(job, seeds=None):
        raise ValueError("raised in the child")

    monkeypatch.setattr(campaign_worker, "run_job", raises)
    queue = JobQueue(str(tmp_path / "queue"))
    fingerprint = queue.submit("c1", _job())
    fleet = WorkerFleet(queue, count=1, visibility_timeout=5.0)
    fleet.start()
    try:
        assert wait_until(lambda: queue.result(fingerprint) is not None,
                          timeout=10)
    finally:
        fleet.stop()
    result = queue.result(fingerprint)["result"]
    assert result["error"] == "ValueError: raised in the child"
    assert "in raises" in result["traceback"]  # the child's own frames


def test_service_stop_reaps_every_child(tmp_path, monkeypatch):
    """No child outlives ``FuzzService.stop``, busy or idle; fleet rows
    report each child's pid and peak RSS."""
    _stall_seed(monkeypatch, stall=lambda: time.sleep(0.05))
    service = FuzzService(str(tmp_path / "svc"), workers=2).start()
    try:
        rows = service.fleet_status()["workers"]
        assert [(row["pid"], row["peak_rss_mb"]) for row in rows] == \
            [(None, None)] * 2  # children start on the first claim
        campaign_id = service.submit(CampaignSpec(
            targets=("gadgets",), tools=("teapot",), iterations=10,
            rounds=1, shards=2, seed=5, workers=2))
        assert service.wait(campaign_id, timeout=60) is not None
        stuck = service.queue.submit("c-stuck", _job(seed=STALL_SEED))
        assert wait_until(lambda: _holder(service.fleet, stuck) is not None,
                          timeout=10)
        rows = service.fleet_status()["workers"]
        pids = [row["pid"] for row in rows if row["pid"] is not None]
        assert pids and os.getpid() not in pids
        for row in rows:
            if row["pid"] is not None:
                assert row["peak_rss_mb"] > 0
    finally:
        stopping = time.monotonic()
        service.stop()
    assert time.monotonic() - stopping < 4.0  # busy children are killed
    assert not any(_alive(pid) for pid in pids)
    assert all(worker.child_pid() is None for worker in service.fleet.workers)
