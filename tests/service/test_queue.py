"""Durable queue semantics: leases, visibility, idempotent completion."""

from __future__ import annotations

import json
import os
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.service.queue as queue_module
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.worker import WorkerResult
from repro.service.core import FuzzService
from repro.service.queue import (JobQueue, JobRecord, JobRecordError,
                                 LeaseRecord, LeaseRecordError,
                                 job_fingerprint)
from repro.service.worker import ServiceWorker, WorkerFleet
from repro.telemetry.export import wait_until
from repro.telemetry.metrics import MetricsRegistry


def _job(**overrides):
    params = dict(target="gadgets", tool="teapot", iterations=5, seed=1)
    params.update(overrides)
    return JobSpec(**params)


def _queue(tmp_path, **kwargs):
    return JobQueue(str(tmp_path / "queue"), **kwargs)


def test_submit_is_idempotent(tmp_path):
    queue = _queue(tmp_path)
    first = queue.submit("c1", _job(), seeds=[b"ab", b"cd"])
    second = queue.submit("c1", _job(), seeds=[b"ab", b"cd"])
    assert first == second == job_fingerprint("c1", _job())
    assert queue.stats()["submitted"] == 1
    # A different campaign or job is a different record.
    assert queue.submit("c2", _job()) != first
    assert queue.submit("c1", _job(shard=1, shard_count=2)) != first
    assert queue.stats()["submitted"] == 3


def test_claim_execute_complete_round_trip(tmp_path):
    queue = _queue(tmp_path)
    queue.submit("c1", _job(), seeds=[b"\x01\x02"])
    lease = queue.claim("w0", visibility_timeout=30)
    assert lease is not None
    assert lease.attempt == 1
    assert lease.job_spec() == _job()
    assert lease.seeds() == [b"\x01\x02"]
    assert lease.campaign_id == "c1"
    # While leased, nobody else can claim it.
    assert queue.claim("w1", visibility_timeout=30) is None
    assert queue.complete(lease.fingerprint, lease.token,
                          {"job_id": "x", "executions": 5}) is True
    record = queue.result(lease.fingerprint)
    assert record["status"] == "completed"
    assert record["result"]["executions"] == 5
    assert queue.stats()["pending"] == 0
    # Done jobs are never re-offered.
    assert queue.claim("w1", visibility_timeout=30) is None


def test_completion_is_exactly_once(tmp_path):
    queue = _queue(tmp_path)
    queue.submit("c1", _job())
    lease = queue.claim("w0", visibility_timeout=30)
    assert queue.complete(lease.fingerprint, lease.token,
                          {"executions": 5}) is True
    # A late duplicate (stale worker waking up) is discarded.
    assert queue.complete(lease.fingerprint, lease.token,
                          {"executions": 99}) is False
    assert queue.result(lease.fingerprint)["result"]["executions"] == 5


def test_expired_lease_is_taken_over(tmp_path):
    queue = _queue(tmp_path)
    queue.submit("c1", _job())
    dead = queue.claim("w0", visibility_timeout=0.05)
    assert dead is not None
    time.sleep(0.1)
    takeover = queue.claim("w1", visibility_timeout=30)
    assert takeover is not None
    assert takeover.fingerprint == dead.fingerprint
    assert takeover.attempt == 2
    # The dead worker's credentials are void.
    assert queue.renew(dead.fingerprint, dead.token) is False
    # The new holder completes; the old result would have been identical
    # anyway (jobs are deterministic), but only one record lands.
    assert queue.complete(takeover.fingerprint, takeover.token,
                          {"executions": 5}) is True
    assert queue.complete(dead.fingerprint, dead.token,
                          {"executions": 5}) is False


def test_renew_keeps_a_lease_alive(tmp_path):
    queue = _queue(tmp_path)
    queue.submit("c1", _job())
    lease = queue.claim("w0", visibility_timeout=0.2)
    for _ in range(3):
        time.sleep(0.1)
        assert queue.renew(lease.fingerprint, lease.token,
                           visibility_timeout=0.2) is True
        # Renewed in time: nobody can steal it.
        assert queue.claim("w1", visibility_timeout=30) is None


def test_fail_requeues_with_cooldown(tmp_path):
    queue = _queue(tmp_path)
    queue.submit("c1", _job())
    lease = queue.claim("w0", visibility_timeout=30)
    assert queue.fail(lease.fingerprint, lease.token, "boom",
                      backoff_s=0.05) is True
    # Cooling down: not offered yet.
    assert queue.claim("w1", visibility_timeout=30) is None
    time.sleep(0.1)
    retry = queue.claim("w1", visibility_timeout=30)
    assert retry is not None
    assert retry.attempt == 2


def test_lease_attempts_are_bounded(tmp_path):
    queue = _queue(tmp_path, max_lease_attempts=2)
    queue.submit("c1", _job())
    for _ in range(2):
        lease = queue.claim("w0", visibility_timeout=0.01)
        assert lease is not None
        time.sleep(0.05)  # let it expire (simulated crash)
    # Third claim attempt exceeds the budget: terminal failure record.
    assert queue.claim("w0", visibility_timeout=0.01) is None
    record = queue.result(job_fingerprint("c1", _job()))
    assert record["status"] == "failed"
    assert "lease expired" in record["result"]["error"]
    assert record["result"]["job_id"] == _job().job_id


def test_cancel_marks_pending_jobs(tmp_path):
    queue = _queue(tmp_path)
    fp_done = queue.submit("c1", _job())
    queue.submit("c1", _job(shard=1, shard_count=2))
    queue.submit("other", _job(seed=9))
    lease = queue.claim("w0", visibility_timeout=30)
    queue.complete(lease.fingerprint, lease.token, {"executions": 1})
    assert queue.cancel("c1") == 1  # only the still-pending c1 job
    cancelled = queue.submit("c1", _job(shard=1, shard_count=2))
    assert queue.result(cancelled)["status"] == "cancelled"
    assert queue.result(fp_done)["status"] == "completed"
    assert queue.result(queue.submit("other", _job(seed=9))) is None


def test_queue_state_is_plain_json_on_disk(tmp_path):
    queue = _queue(tmp_path)
    fingerprint = queue.submit("c1", _job(), seeds=[b"hi"])
    path = os.path.join(queue.jobs_dir, fingerprint + ".json")
    with open(path) as handle:
        record = json.load(handle)
    assert record["kind"] == "repro.service/job"
    assert record["campaign_id"] == "c1"
    assert record["seeds"] == [b"hi".hex()]
    assert JobSpec.from_dict(record["job"]) == _job()


def test_queue_survives_a_restart(tmp_path):
    queue = _queue(tmp_path)
    queue.submit("c1", _job(), seeds=[b"x"])
    # A fresh instance over the same root sees the same work.
    reopened = _queue(tmp_path)
    lease = reopened.claim("w0", visibility_timeout=30)
    assert lease is not None
    assert lease.seeds() == [b"x"]


# ---------------------------------------------------------------------------
# Damaged job records: a terminal failed job, never a dead worker
# ---------------------------------------------------------------------------

#: Hand edits of an on-disk job record, each with the field its error names.
DAMAGED_RECORDS = {
    "enqueued_at": (lambda record: record.update(enqueued_at="x"),
                    "enqueued_at"),
    "trace": (lambda record: record.update(trace=[1]), "trace"),
    "job": (lambda record: record.update(job=[1]), "job"),
    "job_without_tool": (lambda record: record["job"].pop("tool"),
                         "job.tool"),
}


def _damage(queue, fingerprint, edit):
    path = os.path.join(queue.jobs_dir, fingerprint + ".json")
    with open(path) as handle:
        record = json.load(handle)
    edit(record)
    with open(path, "w") as handle:
        json.dump(record, handle)


@pytest.mark.parametrize("shape", sorted(DAMAGED_RECORDS))
def test_damaged_record_fails_its_job_at_claim(tmp_path, shape):
    edit, field = DAMAGED_RECORDS[shape]
    queue = _queue(tmp_path)
    bad = queue.submit("c1", _job())
    _damage(queue, bad, edit)
    good = queue.submit("c1", _job(shard=1, shard_count=2))
    # The damaged job is failed for good; the claim moves on to the next.
    lease = queue.claim("w0", visibility_timeout=30)
    assert lease is not None and lease.fingerprint == good
    record = queue.result(bad)
    assert record["status"] == "failed"
    assert record["result"]["error"].startswith(f"JobRecordError: {field}")
    assert queue.stats()["failed"] == 1
    # Not retried: nothing else is on offer.
    assert queue.claim("w1", visibility_timeout=30) is None


def test_parse_names_the_field():
    record = {"campaign_id": "c1", "job": _job().to_dict()}
    assert JobRecord.parse(json.dumps(record)).job == _job()
    for edit, field in DAMAGED_RECORDS.values():
        damaged = json.loads(json.dumps(record))
        edit(damaged)
        with pytest.raises(JobRecordError, match=f"^{field}"):
            JobRecord.parse(json.dumps(damaged))
    for text in (json.dumps([record]), "{"):
        with pytest.raises(JobRecordError, match="^record"):
            JobRecord.parse(text)


@pytest.mark.parametrize("shape", sorted(DAMAGED_RECORDS))
def test_worker_survives_a_damaged_record(tmp_path, monkeypatch, shape):
    def synthetic(self, lease):
        job = lease.job_spec()
        return WorkerResult.for_job(job, executions=job.iterations)

    monkeypatch.setattr(ServiceWorker, "_execute", synthetic)
    queue = _queue(tmp_path)
    bad = queue.submit("c1", _job())
    _damage(queue, bad, DAMAGED_RECORDS[shape][0])
    fleet = WorkerFleet(queue, count=1, visibility_timeout=5.0)
    fleet.start()
    try:
        assert wait_until(lambda: queue.result(bad) is not None, timeout=10)
        assert queue.result(bad)["result"]["error"].startswith(
            "JobRecordError: ")
        good = queue.submit("c1", _job(shard=1, shard_count=2))
        assert wait_until(lambda: queue.result(good) is not None, timeout=10)
        assert queue.result(good)["status"] == "completed"
        assert fleet.counts()["alive"] == 1
    finally:
        fleet.stop()


def test_campaign_records_a_damaged_job_as_failed(tmp_path, monkeypatch):
    """The driver merges the queue's failure record as that job's failure."""
    real_write = queue_module._atomic_write_json

    def write(path, record):
        job = record.get("job")
        if isinstance(job, dict) and job.get("shard") == 0:
            record = dict(record, job={k: v for k, v in job.items()
                                       if k != "tool"})
        real_write(path, record)

    monkeypatch.setattr(queue_module, "_atomic_write_json", write)
    service = FuzzService(str(tmp_path / "svc"), workers=1)
    try:
        spec = CampaignSpec(targets=("gadgets",), iterations=10, rounds=1,
                            shards=2, seed=3)
        summary = service.wait(service.submit(spec), timeout=60)
    finally:
        service.stop()
    assert summary is not None
    assert summary.total_failed_jobs() == 1
    assert summary.total_executions() == 5


#: Damaged lease files: the text written over a real lease record.
DAMAGED_LEASES = {
    "deadline": lambda lease: json.dumps(dict(lease, deadline="x")),
    "attempt": lambda lease: json.dumps(dict(lease, attempt="x")),
    "list": lambda lease: "[1]",
    "not_json": lambda lease: "{not json",
}


class _Events:
    """A stand-in structured logger that keeps every event."""

    def __init__(self):
        self.events = []

    def log(self, level, event, **fields):
        self.events.append((level, event, fields))


def _lease_path(queue, fingerprint):
    return os.path.join(queue.leases_dir, fingerprint + ".json")


def _write(path, text):
    with open(path, "w") as handle:
        handle.write(text)


@pytest.mark.parametrize("shape", sorted(DAMAGED_LEASES))
def test_damaged_lease_is_taken_over(tmp_path, shape):
    """A lease that does not parse is lost to its holder and taken over
    by the next claim like an expired one, counted and logged."""
    registry, log = MetricsRegistry(), _Events()
    queue = _queue(tmp_path, registry=registry, log=log)
    fingerprint = queue.submit("c1", _job())
    held = queue.claim("w0", visibility_timeout=30)
    path = _lease_path(queue, fingerprint)
    with open(path) as handle:
        lease = json.load(handle)
    _write(path, DAMAGED_LEASES[shape](lease))
    assert queue.renew(fingerprint, held.token) is False
    assert queue.fail(fingerprint, held.token, "boom") is False
    takeover = queue.claim("w1", visibility_timeout=30)
    assert takeover is not None and takeover.fingerprint == fingerprint
    assert takeover.attempt == 2
    assert registry.counter("service.queue.lease_takeovers").value == 1
    (event,) = [fields for _, name, fields in log.events
                if name == "lease_takeover"]
    assert event["damaged"].startswith("LeaseRecordError: ")
    # The new lease is whole: it renews, and completion removes it.
    assert queue.renew(fingerprint, takeover.token) is True
    assert queue.complete(fingerprint, takeover.token, {"executions": 5})
    assert queue.stats()["leased"] == 0


def test_holder_completes_over_a_damaged_lease(tmp_path):
    """The holder of a lease damaged under it still completes the job,
    and the damaged lease file goes with the completion."""
    queue = _queue(tmp_path)
    fingerprint = queue.submit("c1", _job())
    held = queue.claim("w0", visibility_timeout=30)
    _write(_lease_path(queue, fingerprint), "[1]")
    assert queue.complete(fingerprint, held.token, {"executions": 5})
    assert queue.result(fingerprint)["status"] == "completed"
    assert queue.stats()["leased"] == 0


def test_parse_lease_names_the_field():
    lease = {"token": "t", "owner": "w0", "attempt": 2, "deadline": 1.5,
             "claimed_at": 1.0}
    parsed = LeaseRecord.parse(json.dumps(lease))
    assert (parsed.token, parsed.attempt, parsed.deadline) == ("t", 2, 1.5)
    for field in ("token", "owner", "attempt", "deadline", "claimed_at"):
        for value in ("x" if field not in ("token", "owner") else 1, True):
            with pytest.raises(LeaseRecordError, match=f"^{field}"):
                LeaseRecord.parse(json.dumps(dict(lease, **{field: value})))
    for text in ("[1]", "{not json"):
        with pytest.raises(LeaseRecordError, match="^record"):
            LeaseRecord.parse(text)


@pytest.mark.parametrize("shape", sorted(DAMAGED_LEASES))
def test_worker_survives_a_damaged_lease(tmp_path, monkeypatch, shape):
    def synthetic(self, lease):
        job = lease.job_spec()
        return WorkerResult.for_job(job, executions=job.iterations)

    monkeypatch.setattr(ServiceWorker, "_execute", synthetic)
    queue = _queue(tmp_path)
    fingerprint = queue.submit("c1", _job())
    # left behind by a holder that died mid-write of a live lease
    lease = {"fingerprint": fingerprint, "owner": "gone", "token": "t",
             "attempt": 1, "deadline": time.time() + 60,
             "claimed_at": time.time()}
    _write(_lease_path(queue, fingerprint), DAMAGED_LEASES[shape](lease))
    fleet = WorkerFleet(queue, count=1, visibility_timeout=5.0)
    fleet.start()
    try:
        assert wait_until(lambda: queue.result(fingerprint) is not None,
                          timeout=10)
        assert queue.result(fingerprint)["status"] == "completed"
        assert fleet.counts()["alive"] == 1
    finally:
        fleet.stop()


#: Done records that cannot be one, with the field their error names.
DAMAGED_DONE = {
    "not_json": ("{not json", "record: not JSON"),
    "list": ("[1]", "record: not a JSON object"),
    "status": ('{"status": 1, "result": {}}', "status: wrong type"),
    "result": ('{"status": "completed", "result": [1]}',
               "result: wrong type"),
}


@pytest.mark.parametrize("shape", sorted(DAMAGED_DONE))
def test_damaged_done_record_reads_as_a_failure(tmp_path, shape):
    """Done records are linked whole, so one that does not parse is
    damage: it reads as a failed completion naming the field, and the
    job is neither offered again nor left pending."""
    text, problem = DAMAGED_DONE[shape]
    queue = _queue(tmp_path)
    fingerprint = queue.submit("c1", _job())
    _write(os.path.join(queue.done_dir, fingerprint + ".json"), text)
    record = queue.result(fingerprint)
    assert record["status"] == "failed"
    assert record["result"]["error"] == f"DoneRecordError: {problem}"
    assert queue.claim("w0", visibility_timeout=30) is None
    stats = queue.stats()
    assert (stats["pending"], stats["done"], stats["failed"]) == (0, 1, 1)


def test_campaign_records_a_damaged_done_record_as_failed(tmp_path,
                                                          monkeypatch):
    """The driver merges a done record that is not JSON as a failure of
    the job it submitted, instead of waiting on it forever."""
    real_link = queue_module._link_json
    damaged = []

    def link(path, record):
        if "status" in record and not damaged:
            damaged.append(path)
            _write(path, "{not json")
            return True
        return real_link(path, record)

    monkeypatch.setattr(queue_module, "_link_json", link)
    service = FuzzService(str(tmp_path / "svc"), workers=1)
    try:
        spec = CampaignSpec(targets=("gadgets",), iterations=10, rounds=1,
                            shards=2, seed=3)
        summary = service.wait(service.submit(spec), timeout=60)
    finally:
        service.stop()
    assert summary is not None and len(damaged) == 1
    assert summary.total_failed_jobs() == 1
    assert summary.total_executions() == 5


#: Result payloads of ``completed`` done records that are not a worker
#: result, with the error the job fails with.
DAMAGED_RESULTS = {
    "empty": (lambda result: result.clear(),
              "DoneRecordError: result.job_id: missing"),
    "executions": (lambda result: result.update(executions="x"),
                   "DoneRecordError: result.executions: wrong type"),
}


@pytest.mark.parametrize("shape", sorted(DAMAGED_RESULTS))
def test_campaign_records_a_damaged_result_payload_as_failed(
        tmp_path, monkeypatch, shape):
    """A completed job whose result does not read back fails that job,
    not its campaign."""
    edit, error = DAMAGED_RESULTS[shape]
    real_link = queue_module._link_json
    damaged = []

    def link(path, record):
        if record.get("status") == "completed" and not damaged:
            damaged.append(path)
            record = json.loads(json.dumps(record))
            edit(record["result"])
        return real_link(path, record)

    monkeypatch.setattr(queue_module, "_link_json", link)
    messages = []
    service = FuzzService(str(tmp_path / "svc"), workers=1)
    try:
        spec = CampaignSpec(targets=("gadgets",), iterations=10, rounds=1,
                            shards=2, seed=3)
        campaign_id = service.submit(spec, progress=messages.append)
        summary = service.wait(campaign_id, timeout=60)
    finally:
        service.stop()
    assert summary is not None and len(damaged) == 1
    assert summary.total_failed_jobs() == 1
    assert summary.total_executions() == 5
    assert any(message.endswith(f"FAILED: {error}") for message in messages)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(path=st.sampled_from([
           ("campaign_id",), ("job",), ("seeds",), ("enqueued_at",),
           ("trace",), ("job", "target"), ("job", "tool"), ("job", "shard"),
           ("job", "iterations"), ("job", "timeout_s"), ("job", "seed")]),
       value=st.one_of(
           st.none(), st.booleans(), st.integers(), st.floats(),
           st.text(max_size=8),
           st.lists(st.one_of(st.integers(), st.text(max_size=4)),
                    max_size=3),
           st.dictionaries(st.text(max_size=4), st.integers(), max_size=2)),
       delete=st.booleans())
def test_any_record_edit_claims_or_fails_typed(path, value, delete):
    with tempfile.TemporaryDirectory() as root:
        queue = JobQueue(os.path.join(root, "queue"))
        fingerprint = queue.submit("c1", _job(), seeds=[b"ab"],
                                   trace={"trace_id": "t"})

        def edit(record):
            parent = record
            for key in path[:-1]:
                parent = parent[key]
            if delete:
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = value

        _damage(queue, fingerprint, edit)
        lease = queue.claim("w0", visibility_timeout=30)
        if lease is None:
            record = queue.result(fingerprint)
            assert record["status"] == "failed"
            assert record["result"]["error"].startswith("JobRecordError: ")
        else:
            assert isinstance(lease.job_spec(), JobSpec)
            seeds = lease.seeds()
            assert seeds is None or all(isinstance(s, bytes) for s in seeds)
            assert lease.trace_context() is None or isinstance(
                lease.trace_context(), dict)
