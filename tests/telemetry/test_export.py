"""Metrics export: Prometheus exposition, its HTTP side, address parsing.

The service API is the only exporter: ``/metrics`` renders the service's
own families merged with the registries of campaigns submitted with a
caller's telemetry bundle.  ``tests/service/test_served_campaign.py``
scrapes a ``--serve`` campaign mid-run.
"""

from __future__ import annotations

import json
import re
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign.spec import CampaignSpec
from repro.service.core import FuzzService
from repro.service.httpapi import ServiceApiServer, serve_api
from repro.telemetry import Telemetry
from repro.telemetry.export import (
    PROMETHEUS_CONTENT_TYPE, parse_address, render_prometheus)


def _telemetry_with_counts() -> Telemetry:
    bundle = Telemetry()
    bundle.registry.counter("fuzz.executions").inc(400)
    bundle.registry.counter("campaign.executions").inc(400)
    bundle.registry.gauge("campaign.sites.pht").set(3)
    bundle.registry.gauge("campaign.sites.btb").set(1)
    bundle.registry.counter("engine.entered.pht").inc(12)
    bundle.registry.histogram("engine.instructions_per_exec").observe(90)
    bundle.registry.histogram("engine.instructions_per_exec").observe(2500)
    return bundle


def test_prometheus_rendering_conforms_to_text_format_0_0_4():
    text = render_prometheus(_telemetry_with_counts())
    lines = text.splitlines()
    assert text.endswith("\n")
    # Counters get the _total suffix and one # TYPE line per family.
    assert "# TYPE repro_fuzz_executions_total counter" in lines
    assert "repro_fuzz_executions_total 400" in lines
    # Per-variant gauges collapse into one labeled family.
    assert "# TYPE repro_campaign_sites gauge" in lines
    assert 'repro_campaign_sites{variant="pht"} 3' in lines
    assert 'repro_campaign_sites{variant="btb"} 1' in lines
    assert lines.count("# TYPE repro_campaign_sites gauge") == 1
    # Per-model counters label the same way.
    assert 'repro_engine_entered_total{model="pht"} 12' in lines
    # Histograms: cumulative buckets ending in +Inf, plus _sum/_count.
    bucket_lines = [l for l in lines
                    if l.startswith("repro_engine_instructions_per_exec_bucket")]
    assert bucket_lines[-1].startswith(
        'repro_engine_instructions_per_exec_bucket{le="+Inf"} 2')
    counts = [int(l.rsplit(" ", 1)[1]) for l in bucket_lines]
    assert counts == sorted(counts)  # cumulative, never decreasing
    assert "repro_engine_instructions_per_exec_count 2" in lines
    # Every sample line matches the exposition grammar.
    sample = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$')
    for line in lines:
        if not line.startswith("#"):
            assert sample.match(line), line


def test_prometheus_renders_merged_worker_counts_live():
    # A merged job result folds its child's counter deltas into the
    # registry; the next render includes them.
    bundle = _telemetry_with_counts()
    assert "repro_fuzz_executions_total 400" in \
        render_prometheus(bundle).splitlines()
    for name, value in {"fuzz.executions": 50,
                        "engine.jit.cache.memo_hits": 4}.items():
        bundle.registry.counter(name).inc(value)
    lines = render_prometheus(bundle).splitlines()
    assert "repro_fuzz_executions_total 450" in lines
    assert "repro_engine_jit_cache_memo_hits_total 4" in lines


def test_exporter_serves_metrics_status_runs_and_404(tmp_path):
    # A campaign submitted with a caller's bundle: /metrics carries the
    # bundle's counts on top of the service's own families.
    service = FuzzService(str(tmp_path / "svc"), workers=1).start()
    api = serve_api(service)
    try:
        def fetch(path):
            return urllib.request.urlopen(api.url + path, timeout=10)

        bundle = _telemetry_with_counts()
        spec = CampaignSpec(targets=("gadgets",), tools=("teapot",),
                            iterations=20, rounds=1, shards=1, seed=3)
        campaign_id = service.submit(spec, checkpoint_path="",
                                     telemetry=bundle)
        deadline = time.monotonic() + 120.0
        while service.status(campaign_id)["status"] not in (
                "completed", "failed", "cancelled"):
            assert time.monotonic() < deadline, "campaign never finished"
            time.sleep(0.05)

        reply = fetch("/metrics")
        assert reply.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        lines = reply.read().decode("utf-8").splitlines()
        executions = bundle.registry.counters()["campaign.executions"].value
        assert executions > 400  # the campaign's jobs merged in
        assert f"repro_campaign_executions_total {executions}" in lines
        assert any(l.startswith("repro_service_queue_") for l in lines)

        status = json.load(fetch(f"/v1/campaigns/{campaign_id}"))
        assert status["status"] == "completed"
        assert "summary" in status
        listing = json.load(fetch("/v1/campaigns"))["campaigns"]
        assert [c["campaign_id"] for c in listing] == [campaign_id]
        # The campaign's run directory is one of the service's runs.
        assert status["run_id"] in [m["run_id"] for m in
                                    service.registry.list_manifests()]

        with pytest.raises(urllib.error.HTTPError) as info:
            fetch("/nope")
        assert info.value.code == 404
    finally:
        api.stop()
        service.stop()


def test_exporter_picks_free_port_and_stops_cleanly(tmp_path):
    service = FuzzService(str(tmp_path / "svc"), workers=1)
    api = ServiceApiServer(service, port=0).start()
    port = api.port
    assert port > 0
    with urllib.request.urlopen(api.url + "/healthz", timeout=5) as reply:
        assert json.load(reply)["status"] == "ok"
    url = api.url
    api.stop()
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(url + "/healthz", timeout=5)
    # A second server can bind a fresh port after the first closed.
    again = ServiceApiServer(service, port=0).start()
    assert again.port > 0
    again.stop()


@pytest.mark.parametrize("text,expected", [
    ("", ("127.0.0.1", 9753)),
    ("9090", ("127.0.0.1", 9090)),
    (":9090", ("127.0.0.1", 9090)),
    ("0.0.0.0:8000", ("0.0.0.0", 8000)),
    ("localhost", ("localhost", 9753)),
    ("127.0.0.1:notaport", ValueError),
    (":99999", ValueError),
    ("65536", ValueError),
    ("0.0.0.0:-1", ValueError),
])
def test_parse_address(text, expected):
    if expected is ValueError:
        with pytest.raises(ValueError, match="0-65535"):
            parse_address(text)
    else:
        assert parse_address(text) == expected
