"""``--serve``: a campaign binds its ephemeral service's HTTP API.

A campaign run under a telemetry session with a ``serve`` address runs
on an ephemeral service and serves its API for exactly the campaign's
duration; ``/metrics`` carries the session's live ``campaign.*``
counters, and ``repro top URL`` reads it.  Where no service exists — the
in-process loop, a profiled session — ``serve`` is refused before any
job runs, and malformed or unbindable addresses are clean ``error:``
exits of both CLIs.
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.api.cli import main as repro_main
from repro.campaign.scheduler import CampaignScheduler, run_campaign
from repro.campaign.spec import CampaignSpec
from repro.telemetry import Telemetry, top
from repro.telemetry.context import session as telemetry_session
from repro.telemetry.export import PROMETHEUS_CONTENT_TYPE


def small_spec(**overrides):
    params = dict(targets=("gadgets",), tools=("teapot",),
                  iterations=60, rounds=3, shards=2, seed=13, workers=2)
    params.update(overrides)
    return CampaignSpec(**params)


def _executions(exposition: str) -> int:
    for line in exposition.splitlines():
        if line.startswith("repro_campaign_executions_total "):
            return int(float(line.split()[1]))
    raise AssertionError("no repro_campaign_executions_total sample")


def test_served_campaign_exposes_live_metrics_and_closes_the_port():
    telemetry = Telemetry()
    telemetry.serve = ("127.0.0.1", 0)
    served = {"url": None, "scrapes": []}

    def progress(message):
        # Called by the campaign driver: "serving ... on URL" before the
        # first job, then "round N/M: ..." as each round starts, so the
        # round-2 and round-3 scrapes see rounds 1 and 2 merged.
        if message.startswith("serving the campaign API on "):
            served["url"] = message.rsplit(" ", 1)[1]
        elif message.startswith(("round 2/", "round 3/")):
            with urllib.request.urlopen(served["url"] + "/metrics",
                                        timeout=10) as reply:
                content_type = reply.headers["Content-Type"]
                body = reply.read().decode("utf-8")
            with urllib.request.urlopen(served["url"] + "/v1/campaigns",
                                        timeout=10) as reply:
                campaigns = json.load(reply)["campaigns"]
            served["scrapes"].append((content_type, body, campaigns))
            served["top"] = top.render_frame(top.sample(served["url"]))

    with telemetry_session(telemetry):
        summary = run_campaign(small_spec(), progress=progress)

    assert served["url"] is not None
    assert len(served["scrapes"]) == 2
    counts = []
    for content_type, body, campaigns in served["scrapes"]:
        assert content_type == PROMETHEUS_CONTENT_TYPE
        assert "# TYPE repro_campaign_executions_total counter" in body
        assert "repro_engine_jit_cache_" in body
        assert "repro_service_queue_done" in body  # the service's own
        assert [c["status"] for c in campaigns] == ["running"]
        counts.append(_executions(body))
    assert 0 < counts[0] < counts[1] < summary.total_executions()
    # `repro top URL` reads the served campaign like a `repro serve`.
    assert "2 workers, 2 alive" in served["top"]
    assert "running" in served["top"] and "2/3" in served["top"]
    # The API lives exactly as long as the campaign.
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(served["url"] + "/healthz", timeout=5)


#: Where no service runs: the in-process loop called directly
#: ("serial"), and ``run_campaign`` in a profiled session ("pool"), which
#: it keeps in-process at any worker count.
RUNNERS = {"serial": lambda spec: CampaignScheduler(spec).run(),
           "pool": run_campaign}


@pytest.mark.parametrize("runner,profile_engine", [
    ("serial", False),
    ("pool", True),
])
def test_serve_is_refused_where_no_service_runs(runner, profile_engine):
    telemetry = Telemetry.create(profile_engine=profile_engine)
    telemetry.serve = ("127.0.0.1", 0)
    with telemetry_session(telemetry):
        with pytest.raises(ValueError, match="serve"):
            RUNNERS[runner](small_spec())
    # Refused up front: no job ran, nothing was counted.
    assert telemetry.registry.counters() == {}


def test_pipeline_serve_binds_each_campaign_on_port_zero():
    import repro.api as api

    with pytest.raises(ValueError, match="0-65535"):
        api.pipeline(target="gadgets").telemetry(serve="127.0.0.1:http")
    urls = []

    def progress(message):
        if message.startswith("serving the campaign API on "):
            urls.append(message.rsplit(" ", 1)[1])

    run = (api.pipeline(target="gadgets", seed=3, progress=progress)
           .telemetry(serve=0).fuzz(iterations=20).report())
    assert run.telemetry["metrics"]["campaign.executions"] == 20
    assert len(urls) == 1 and not urls[0].endswith(":0")
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(urls[0] + "/healthz", timeout=5)


def test_bad_serve_addresses_exit_2(tmp_path, capsys):
    busy = socket.socket()
    busy.bind(("127.0.0.1", 0))
    busy.listen(1)
    port = str(busy.getsockname()[1])
    campaign = ["campaign", "--targets", "gadgets", "--iterations", "10",
                "--rounds", "1", "--quiet", "--serve"]
    serve = ["serve", "--dir", str(tmp_path / "svc"), "--serve"]
    try:
        for argv in (campaign + [":99999"],
                     campaign + [port],
                     serve + ["127.0.0.1:notaport"],
                     serve + [port]):
            assert repro_main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
    finally:
        busy.close()
