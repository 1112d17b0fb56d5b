"""The telemetry-facing CLI: --version, --progress/--trace, repro stats."""

from __future__ import annotations

import json

import pytest

from repro._version import __version__
from repro.api.cli import main


def test_repro_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro {__version__}"


def test_fuzz_trace_then_stats_round_trip(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code = main(["fuzz", "--target", "gadgets", "--iterations", "30",
                 "--seed", "7", "--quiet", "--trace", str(trace)])
    assert code == 0
    assert trace.exists()
    capsys.readouterr()

    assert main(["stats", str(trace)]) == 0
    out = capsys.readouterr().out
    assert f"trace: repro {__version__}" in out
    assert "stage:fuzz" in out
    assert "campaign.executions = 30" in out


def test_fuzz_profile_engine_records_the_fuzzing_profile(tmp_path, capsys):
    path = tmp_path / "run.json"
    code = main(["fuzz", "--target", "gadgets", "--iterations", "30",
                 "--seed", "7", "--quiet", "--profile-engine",
                 "--json", str(path)])
    assert code == 0
    capsys.readouterr()
    profile = json.loads(path.read_text())["telemetry"]["profile"]
    assert profile["per_opcode"], "expected opcode counts"
    assert profile["hot_spots"], "expected hot-spot entries"


def test_stats_json_output(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    main(["fuzz", "--target", "gadgets", "--iterations", "20", "--seed", "7",
          "--quiet", "--trace", str(trace)])
    capsys.readouterr()
    assert main(["stats", str(trace), "--json"]) == 0
    aggregate = json.loads(capsys.readouterr().out)
    assert aggregate["counters"]["campaign.executions"] == 20
    assert any(span["path"] == "pipeline/stage:fuzz"
               for span in aggregate["spans"])


def test_stats_rejects_non_trace_files(tmp_path, capsys):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"type": "nope"}\n')
    assert main(["stats", str(bogus)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["stats", str(tmp_path / "missing.jsonl")]) == 2


def test_fuzz_progress_heartbeat_smoke(capsys):
    code = main(["fuzz", "--target", "gadgets", "--iterations", "40",
                 "--seed", "7", "--quiet", "--progress",
                 "--progress-interval", "0.05"])
    assert code == 0
    err = capsys.readouterr().err
    assert "[progress]" in err
    assert "execs" in err


def test_campaign_cli_trace_and_progress(tmp_path, capsys):
    from repro.campaign.cli import main as campaign_main

    trace = tmp_path / "campaign-trace.jsonl"
    code = campaign_main([
        "--targets", "gadgets", "--iterations", "20", "--rounds", "1",
        "--quiet", "--progress", "--progress-interval", "0.05",
        "--trace", str(trace),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "[progress]" in err

    from repro.telemetry import aggregate_trace, read_trace

    aggregate = aggregate_trace(read_trace(str(trace)))
    assert aggregate["counters"]["campaign.executions"] == 20
    assert aggregate["context"]["command"] == "campaign"
    assert any(span["name"] == "round:0" for span in aggregate["spans"])
