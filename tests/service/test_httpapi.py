"""HTTP API end-to-end: submit over the wire, drive to completion, crash."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.service.core import FuzzService
from repro.service.httpapi import ServiceApiServer
from repro.service.worker import ServiceWorker

SPEC = dict(targets=("gadgets",), tools=("teapot",), iterations=40,
            rounds=2, shards=2, seed=13, spec_variants=("pht", "btb"))


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def _post(url, payload=None):
    data = json.dumps(payload or {}).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _await_terminal(base, campaign_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = _get(f"{base}/v1/campaigns/{campaign_id}")
        if record["status"] in ("completed", "failed", "cancelled"):
            return record
        time.sleep(0.05)
    raise AssertionError(f"campaign {campaign_id} never finished")


@pytest.fixture()
def server(tmp_path):
    service = FuzzService(str(tmp_path / "svc"), workers=2,
                          visibility_timeout=30.0).start()
    api = ServiceApiServer(service).start()
    try:
        yield api
    finally:
        api.stop()
        service.stop()


@pytest.fixture(scope="module")
def serial_summary():
    return CampaignScheduler(CampaignSpec(**SPEC)).run()


def test_http_submit_to_completion_matches_serial(server, serial_summary):
    spec_record = CampaignSpec(**SPEC).to_dict()
    code, accepted = _post(server.url + "/v1/campaigns",
                           {"spec": spec_record})
    assert code == 202
    campaign_id = accepted["campaign_id"]

    record = _await_terminal(server.url, campaign_id)
    assert record["status"] == "completed"
    assert record["rounds_completed"] == SPEC["rounds"]
    assert record["jobs_done"] == record["jobs_total"] > 0
    # The acceptance bar: deduped counts equal the serial scheduler's.
    assert record["summary"] == serial_summary.to_dict()

    reports = _get(f"{server.url}/v1/campaigns/{campaign_id}/reports")
    row = serial_summary.row("gadgets", "teapot")
    assert len(reports["groups"]["gadgets/teapot/vanilla"]) == \
        row.unique_gadgets

    listing = _get(server.url + "/v1/campaigns")
    assert [c["campaign_id"] for c in listing["campaigns"]] == [campaign_id]
    queue = _get(server.url + "/v1/queue")
    assert queue["pending"] == 0
    assert queue["fleet"]["workers"] == 2


def test_worker_killed_mid_round_still_completes(tmp_path, monkeypatch,
                                                 serial_summary):
    """Crash-safety: a worker dies mid-job, the lease expires, a peer
    replays the job, and the final counts are identical anyway."""
    deaths = []
    real_execute = ServiceWorker._execute

    def dying_execute(self, lease):
        if self.worker_name == "w0" and not deaths:
            deaths.append(lease.fingerprint)
            # Die silently: stop heartbeating and never report back.
            with self._lease_lock:
                self._active = None
            while not self.stop_event.is_set():
                time.sleep(0.01)
            raise RuntimeError("killed")
        return real_execute(self, lease)

    monkeypatch.setattr(ServiceWorker, "_execute", dying_execute)
    service = FuzzService(str(tmp_path / "svc"), workers=2,
                          visibility_timeout=0.5).start()
    api = ServiceApiServer(service).start()
    try:
        code, accepted = _post(api.url + "/v1/campaigns",
                               {"spec": CampaignSpec(**SPEC).to_dict()})
        assert code == 202
        record = _await_terminal(api.url, accepted["campaign_id"])
        assert record["status"] == "completed"
        assert deaths, "the crash never triggered"
        assert record["summary"] == serial_summary.to_dict()
    finally:
        api.stop()
        service.stop()


def test_cancel_over_http(server):
    spec_record = CampaignSpec(targets=("gadgets",), tools=("teapot",),
                               iterations=5000, rounds=50, shards=2,
                               seed=13).to_dict()
    _, accepted = _post(server.url + "/v1/campaigns", {"spec": spec_record})
    campaign_id = accepted["campaign_id"]
    _post(f"{server.url}/v1/campaigns/{campaign_id}/cancel")
    record = _await_terminal(server.url, campaign_id)
    assert record["status"] == "cancelled"
    assert "summary" not in record


def test_http_error_handling(server):
    # Bad body → 400 with a JSON error.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(server.url + "/v1/campaigns", {"spec": {"nope": 1}})
    assert excinfo.value.code == 400
    assert "targets" in json.loads(excinfo.value.read())["error"]
    # Invalid spec values → 400, not a crash.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(server.url + "/v1/campaigns",
              {"spec": {"targets": ["gadgets"], "tools": ["doesnotexist"]}})
    assert excinfo.value.code == 400
    # Unknown campaign → 404.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server.url + "/v1/campaigns/nope")
    assert excinfo.value.code == 404
    # Unknown route → 404.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server.url + "/v1/bogus")
    assert excinfo.value.code == 404
    # The help page is served.
    with urllib.request.urlopen(server.url + "/", timeout=10) as response:
        assert b"/v1/campaigns" in response.read()


#: Submit bodies whose spec holds a field of the wrong JSON type.
MISTYPED_SPECS = [
    ({"iterations": 1e300}, "iterations"),
    ({"iterations": "200"}, "iterations"),
    ({"rounds": True}, "rounds"),
    ({"shards": 2.9}, "shards"),
]


def test_http_mistyped_spec_fields_are_400s(server):
    for fields, name in MISTYPED_SPECS:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/v1/campaigns",
                  {"spec": dict(targets=["gadgets"], **fields)})
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error == f"invalid campaign spec: {name}: wrong type"
    assert _get(server.url + "/v1/campaigns")["campaigns"] == []


def test_service_writes_an_observable_run_directory(server):
    """`repro runs`-compatible run directories appear under the service."""
    spec_record = CampaignSpec(targets=("gadgets",), tools=("teapot",),
                               iterations=10, rounds=1, seed=13).to_dict()
    _, accepted = _post(server.url + "/v1/campaigns", {"spec": spec_record})
    record = _await_terminal(server.url, accepted["campaign_id"])
    assert record["status"] == "completed"

    manifests = server.service.registry.list_manifests()
    assert len(manifests) == 1
    manifest = manifests[0]
    assert manifest["kind"] == "repro.telemetry/run"
    assert manifest["status"] == "completed"
    assert manifest["campaign_id"] == accepted["campaign_id"]
    assert manifest["unique_gadgets"] >= 1
    run = server.service.registry.get(record["run_id"])
    latest = run.latest_metrics()
    assert latest is not None
    assert latest["metrics"]["campaign.jobs_done"] == record["jobs_done"]
