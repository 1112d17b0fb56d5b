"""The unified ``repro`` CLI (``python -m repro.api``)."""

from __future__ import annotations

import json

import pytest

import repro.api as api
from repro.api.cli import main


def test_targets_json_is_machine_readable(capsys):
    assert main(["targets", "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    by_name = {record["name"]: record for record in records}
    assert set(by_name) == set(api.target_names())
    # Capability flags: every record is runnable; only targets with
    # attack points take the Table-3 'injected' variant.
    assert all(record["runnable"] for record in records)
    assert by_name["jsmn"]["injectable"] is True
    assert by_name["jsmn"]["attack_points"] == 3
    assert by_name["gadgets"]["injectable"] is False


def test_targets_human_listing(capsys):
    from repro.targets import injectable_targets, runnable_targets

    assert main(["targets"]) == 0
    out = capsys.readouterr().out
    rows = {line.split()[0]: line for line in out.splitlines()[1:]}
    assert set(rows) == set(api.target_names()) >= set(runnable_targets())
    # Injectable targets are flagged; pure drivers (gadgets) are not.
    for name in injectable_targets():
        assert "injectable (" in rows[name]
    assert "injectable" not in rows["gadgets"]


def test_fuzz_writes_runresult_artifact(tmp_path, capsys):
    path = tmp_path / "run.json"
    code = main(["fuzz", "--target", "gadgets", "--iterations", "40",
                 "--seed", "7", "--quiet", "--json", str(path)])
    assert code == 0
    run = api.RunResult.load(str(path))
    assert run.context["target"] == "gadgets"
    assert run.stage("fuzz").payload["executions"] == 40
    assert "fuzz: 40 executions" in capsys.readouterr().out


def test_fuzz_json_stdout_keeps_machine_output_clean(capsys):
    code = main(["fuzz", "--target", "gadgets", "--iterations", "20",
                 "--seed", "7", "--quiet", "--json", "-"])
    assert code == 0
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert record["kind"] == api.RESULT_KIND


def test_report_renders_an_artifact(tmp_path, capsys):
    path = tmp_path / "run.json"
    main(["fuzz", "--target", "gadgets", "--iterations", "40", "--seed", "7",
          "--quiet", "--json", str(path)])
    capsys.readouterr()
    assert main(["report", "--in", str(path), "--reports"]) == 0
    out = capsys.readouterr().out
    assert "fuzz: 40 executions" in out
    assert "pc=0x" in out


def test_report_rejects_foreign_files(tmp_path, capsys):
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps({"kind": "other"}))
    assert main(["report", "--in", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_bench_prints_normalized_overheads(capsys):
    code = main(["bench", "--target", "jsmn", "--input-size", "64",
                 "--tools", "teapot", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert "teapot:" in out and "x native" in out


def test_unknown_target_fails_cleanly(capsys):
    assert main(["fuzz", "--target", "nginx", "--quiet"]) == 2
    assert "available" in capsys.readouterr().err


def test_campaign_subcommand_forwards(capsys):
    code = main(["campaign", "--targets", "gadgets", "--iterations", "10",
                 "--rounds", "1", "--seed", "3", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert "gadgets" in out and "unique gadget sites" in out


def test_harden_subcommand_forwards(capsys):
    with pytest.raises(SystemExit):
        main(["harden", "--target", "not-a-target", "--quiet"])
    err = capsys.readouterr().err
    assert "repro harden" in err  # re-branded prog in the usage line


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    out = capsys.readouterr().out
    for command in ("fuzz", "campaign", "harden", "report", "bench",
                    "targets"):
        assert command in out
