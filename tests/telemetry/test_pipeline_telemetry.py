"""Telemetry end to end: facade spans, engine counters, bit-identity.

The acceptance contract of the subsystem: with telemetry disabled the
pipeline produces bit-identical artifacts (telemetry is observation
only); with tracing enabled a facade fuzz→harden→refuzz run emits a
parseable JSONL trace whose span tree covers every pipeline stage and
whose counters match the RunResult totals.
"""

from __future__ import annotations

import json
import os

import repro.api as api
from repro.campaign.worker import build_runtime
from repro.telemetry import Telemetry, read_trace, aggregate_trace
from repro.telemetry import context as telemetry_context


def _traced_run(tmp_path, **telemetry_kwargs):
    trace_path = tmp_path / "trace.jsonl"
    run = (api.pipeline(target="gadgets", seed=7)
           .fuzz(iterations=60)
           .harden("fence")
           .refuzz()
           .telemetry(trace=str(trace_path), **telemetry_kwargs)
           .report())
    return run, trace_path


def test_span_tree_covers_every_pipeline_stage(tmp_path):
    run, trace_path = _traced_run(tmp_path)
    records = read_trace(str(trace_path))
    aggregate = aggregate_trace(records)
    paths = [span["path"] for span in aggregate["spans"]]
    assert "pipeline" in paths
    for stage in run.stages:
        assert f"pipeline/stage:{stage.kind}" in paths
    assert all(span["status"] == "ok" for span in aggregate["spans"])


def test_trace_counters_match_runresult_totals(tmp_path):
    run, trace_path = _traced_run(tmp_path)
    records = read_trace(str(trace_path))
    fuzz_payload = run.stage("fuzz").payload
    refuzz_payload = run.stage("refuzz").payload

    # The fuzz stage's closing snapshot equals the stage's artifact totals.
    fuzz_end = next(r for r in records if r.get("type") == "span_end"
                    and r.get("path") == "pipeline/stage:fuzz")
    counters = fuzz_end["counters"]
    assert counters["campaign.executions"] == fuzz_payload["executions"]
    assert counters["fuzz.executions"] == fuzz_payload["executions"]
    assert counters["campaign.reports_unique"] == fuzz_payload["unique_gadgets"]
    assert counters["campaign.reports_raw"] == fuzz_payload["raw_reports"]

    # The final snapshot (and RunResult.telemetry) covers fuzz + refuzz.
    final = aggregate_trace(records)["counters"]
    total = fuzz_payload["executions"] + refuzz_payload["verify_executions"]
    assert final["campaign.executions"] == total
    assert run.telemetry["metrics"]["campaign.executions"] == total
    assert (run.telemetry["metrics"]["harden.sites_patched"]
            == run.stage("harden").payload["sites"])


def test_telemetry_disabled_is_bit_identical(tmp_path):
    plain = (api.pipeline(target="gadgets", seed=7)
             .fuzz(iterations=60).harden("fence").refuzz().report())
    traced, _ = _traced_run(tmp_path)
    # Identical stage artifacts; only the telemetry section differs.
    assert plain.telemetry is None
    assert traced.telemetry is not None
    assert plain.to_dict()["stages"] == traced.to_dict()["stages"]


def test_runresult_telemetry_round_trips(tmp_path):
    run, _ = _traced_run(tmp_path)
    record = run.to_dict()
    assert record["version"] == api.RunResult().version
    reloaded = api.RunResult.from_dict(record)
    assert reloaded.telemetry == run.telemetry
    assert reloaded.to_dict() == record
    assert "telemetry:" in run.format_summary()


def test_engine_counters_follow_controller_deltas():
    # Counters track per-run deltas of the controller's cumulative stats:
    # after N runs the counter equals the last run's cumulative total.
    telemetry = Telemetry.create()
    runtime = build_runtime("gadgets", "teapot", "vanilla")
    with telemetry_context.session(telemetry):
        first = runtime.run(b"\x00" * 16)
        second = runtime.run(b"\xff" * 16)
    registry = telemetry.registry
    assert registry.value("engine.executions") == 2
    assert (registry.value("engine.simulations")
            == second.spec_stats["simulations_started"])
    assert (registry.value("engine.instructions")
            == first.arch_instructions + second.arch_instructions)
    hist = registry.histogram("engine.instructions_per_exec").snapshot()
    assert hist["count"] == 2


def test_disabled_path_records_nothing():
    telemetry = Telemetry.create()
    runtime = build_runtime("gadgets", "teapot", "vanilla")
    runtime.run(b"\x00" * 16)  # no active telemetry: the no-op fast path
    assert telemetry.registry.snapshot() == {}
    assert telemetry_context.active() is None


def test_context_session_nests_and_restores():
    outer = Telemetry.create()
    inner = Telemetry.create()
    assert telemetry_context.active() is None
    with telemetry_context.session(outer):
        assert telemetry_context.active() is outer
        with telemetry_context.session(inner):
            assert telemetry_context.active() is inner
        assert telemetry_context.active() is outer
    assert telemetry_context.active() is None


def test_config_threaded_telemetry_overrides_the_global_slot():
    from repro.core.config import TeapotConfig
    from repro.core.teapot import TeapotRewriter, TeapotRuntime
    from repro.campaign.worker import compiled_binary

    telemetry = Telemetry.create()
    config = TeapotConfig(telemetry=telemetry)
    binary = TeapotRewriter(config).instrument(
        compiled_binary("gadgets", "vanilla"))
    runtime = TeapotRuntime(binary, config=config)
    runtime.run(b"\x00" * 16)  # no session installed, yet still observed
    assert telemetry.registry.value("engine.executions") == 1


def test_engine_profiler_collects_hot_spots(tmp_path):
    run, _ = _traced_run(tmp_path, profile_engine=True)
    profile = run.telemetry["profile"]
    assert profile["per_opcode"], "expected opcode counts"
    assert profile["addresses_seen"] > 0
    assert profile["hot_spots"], "expected hot-spot entries"


def test_fuzz_only_run_profiles_the_fuzzing():
    # The profiler only sees emulators in its own process, so the default
    # process-backed scheduler runs a profiled campaign in-process.
    run = (api.pipeline(target="gadgets", seed=7)
           .fuzz(iterations=60)
           .telemetry(profile_engine=True)
           .report())
    profile = run.telemetry["profile"]
    assert profile["per_opcode"], "expected opcode counts"
    assert profile["hot_spots"], "expected hot-spot entries"
    assert run.telemetry["metrics"]["fuzz.executions"] == 60
    baseline = api.pipeline(target="gadgets", seed=7).fuzz(iterations=60)
    assert (run.stage("fuzz").payload
            == baseline.report().stage("fuzz").payload)


def test_version_satellite_is_consistent():
    import os
    import re

    import repro
    from repro._version import __version__

    assert repro.__version__ == __version__
    # setup.py reads the same file textually.
    setup_path = os.path.join(os.path.dirname(__file__), os.pardir,
                              os.pardir, "setup.py")
    with open(setup_path, "r", encoding="utf-8") as handle:
        setup_text = handle.read()
    assert "_version.py" in setup_text
    assert re.match(r"^\d+\.\d+\.\d+$", __version__)


def _recorded_snapshots(root):
    """The metrics snapshots of the one run recorded under ``root``."""
    (run,) = os.listdir(root)
    metrics = root / run / "metrics"
    return [json.loads((metrics / name).read_text(encoding="utf-8"))
            for name in sorted(os.listdir(metrics))
            if name.startswith("snapshot-")]


def test_recorded_pipeline_writes_one_snapshot_per_round(tmp_path):
    """The session's final snapshot equals the last round's: not written."""
    (api.pipeline(target="gadgets", seed=5)
     .fuzz(iterations=60, rounds=2)
     .telemetry(runs_root=str(tmp_path / "runs"))
     .report())
    snapshots = _recorded_snapshots(tmp_path / "runs")
    assert [snapshot["seq"] for snapshot in snapshots] == [1, 2]


def test_recorded_pipeline_ends_with_the_hardening_gauges(tmp_path):
    """Stages after the last round still reach a final snapshot."""
    (api.pipeline(target="gadgets", seed=5)
     .fuzz(iterations=60)
     .harden("fence")
     .refuzz()
     .telemetry(runs_root=str(tmp_path / "runs"))
     .report())
    last = _recorded_snapshots(tmp_path / "runs")[-1]["metrics"]
    for name in ("harden.native_cycles", "harden.eliminated",
                 "harden.residual"):
        assert name in last

