"""Metrics export: Prometheus exposition conformance + HTTP endpoints."""

from __future__ import annotations

import json
import re
import urllib.request

import pytest

from repro.telemetry import Telemetry
from repro.telemetry.export import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsExporter,
    MetricsView,
    parse_address,
    render_prometheus,
    serve_metrics,
    status_snapshot,
)
from repro.telemetry.runs import RunRegistry


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


def test_status_snapshot_progress_digest():
    record = status_snapshot(_telemetry_with_counts())
    assert record["kind"] == "repro.telemetry/status"
    assert record["schema_version"] == 1
    progress = record["progress"]
    assert progress["executions"] == 400
    assert progress["sites"] == {"btb": 1, "pht": 3}
    assert record["counts"]["campaign.executions"] == 400


def test_exporter_serves_metrics_status_runs_and_404(tmp_path):
    registry = RunRegistry(str(tmp_path / "runs"))
    run = registry.create_run(command="campaign", target="jsmn",
                              engine="jit", config={"seed": 0})
    bundle = _telemetry_with_counts()
    bundle.run_dir = run
    exporter = serve_metrics(bundle, registry=registry)
    try:
        def fetch(path):
            return urllib.request.urlopen(exporter.url + path, timeout=5)

        reply = fetch("/metrics")
        assert reply.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        body = reply.read().decode("utf-8")
        assert "repro_fuzz_executions_total 400" in body

        status = json.load(fetch("/status"))
        assert status["progress"]["executions"] == 400
        assert status["run"]["run_id"] == run.run_id

        runs = json.load(fetch("/runs"))
        assert [m["run_id"] for m in runs] == [run.run_id]

        with pytest.raises(urllib.error.HTTPError) as info:
            fetch("/nope")
        assert info.value.code == 404
    finally:
        exporter.stop()


def test_exporter_from_run_dir_cross_process_view(tmp_path):
    # Simulate the `repro monitor` flow: a campaign in another process
    # rewrites its snapshot as jobs merge; the exporter process only has
    # the run directory.
    registry = RunRegistry(str(tmp_path / "runs"))
    run = registry.create_run(command="campaign", config={})
    bundle = _telemetry_with_counts()
    run.write_metrics_snapshot(bundle)
    bundle.registry.counter("fuzz.executions").inc(25)
    run.write_metrics_snapshot(bundle)  # the next merged job
    view = MetricsView.from_run_dir(run)
    assert view.counters["fuzz.executions"] == 425
    assert view.gauges["campaign.sites.pht"] == 3
    assert "engine.instructions_per_exec" in view.histograms
    lines = render_prometheus(run).splitlines()
    assert "repro_fuzz_executions_total 425" in lines
    # Type fidelity survives the JSON round trip: counters stay counters.
    assert "# TYPE repro_campaign_executions_total counter" in lines


def test_exporter_picks_free_port_and_stops_cleanly():
    exporter = MetricsExporter(Telemetry()).start()
    port = exporter.port
    assert port > 0
    exporter.stop()
    # A second exporter can bind a fresh port after the first closed.
    again = MetricsExporter(Telemetry()).start()
    assert again.port > 0
    again.stop()


@pytest.mark.parametrize("text,expected", [
    ("", ("127.0.0.1", 9753)),
    ("9090", ("127.0.0.1", 9090)),
    (":9090", ("127.0.0.1", 9090)),
    ("0.0.0.0:8000", ("0.0.0.0", 8000)),
    ("localhost", ("localhost", 9753)),
])
def test_parse_address(text, expected):
    assert parse_address(text) == expected
