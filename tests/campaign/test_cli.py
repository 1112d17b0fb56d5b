"""Smoke tests for the ``python -m repro.campaign`` CLI."""

import json
import os

import pytest

from repro.campaign.cli import main


def test_cli_runs_a_small_campaign(capsys):
    exit_code = main([
        "--targets", "gadgets", "--iterations", "20", "--rounds", "2",
        "--workers", "1", "--seed", "3", "--quiet",
    ])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "gadgets" in out
    assert "unique gadget sites" in out


def test_cli_writes_json_summary(tmp_path, capsys):
    json_path = tmp_path / "summary.json"
    exit_code = main([
        "--targets", "gadgets", "--iterations", "10", "--rounds", "1",
        "--seed", "3", "--quiet", "--json", str(json_path),
    ])
    assert exit_code == 0
    payload = json.loads(json_path.read_text())
    assert payload["rounds_completed"] == 1
    (group,) = payload["groups"]
    assert group["target"] == "gadgets"
    assert group["executions"] == 10


def test_cli_checkpoint_and_resume(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    args = ["--targets", "gadgets", "--iterations", "16", "--rounds", "2",
            "--seed", "5", "--quiet", "--checkpoint", str(ckpt)]
    assert main(args) == 0
    first = capsys.readouterr().out
    # Resuming a finished campaign re-prints the same summary without work.
    assert main(args + ["--resume"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_resume_with_different_worker_count(tmp_path, capsys):
    """--shards defaults to the checkpoint's value on resume, so a campaign
    started with one worker count can be finished with another."""
    ckpt = tmp_path / "ckpt.json"
    base = ["--targets", "gadgets", "--iterations", "16", "--rounds", "2",
            "--seed", "5", "--quiet", "--checkpoint", str(ckpt)]
    assert main(base + ["--workers", "2"]) == 0
    first = capsys.readouterr().out
    assert main(base + ["--workers", "1", "--resume"]) == 0
    assert capsys.readouterr().out == first


def test_cli_resume_with_mismatched_spec_fails(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    base = ["--targets", "gadgets", "--rounds", "1", "--quiet",
            "--checkpoint", str(ckpt)]
    assert main(base + ["--iterations", "8"]) == 0
    assert main(base + ["--iterations", "12", "--resume"]) == 2
    assert "fingerprint" in capsys.readouterr().err


def test_cli_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit):
        main(["--targets", "no-such-target"])


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_malformed_checkpoint_exits_2(tmp_path, capsys, workers):
    # Valid JSON, not a checkpoint: a typed error on either runner, not
    # a traceback.
    checkpoint = tmp_path / "bad.json"
    checkpoint.write_text("[]")
    exit_code = main([
        "--targets", "gadgets", "--iterations", "10", "--rounds", "1",
        "--workers", workers, "--quiet", "--checkpoint", str(checkpoint),
        "--resume",
    ])
    assert exit_code == 2
    assert ("error: checkpoint 'record': not a JSON object"
            in capsys.readouterr().err)


def _snapshots(root):
    return {run: sorted(name for name in os.listdir(root / run / "metrics")
                        if name.startswith("snapshot-"))
            for run in os.listdir(root)}


def test_cli_run_dir_writes_one_snapshot_per_round(tmp_path, capsys):
    """Each closed round writes one metrics snapshot; a resume of the
    finished campaign closes no round and writes exactly one."""
    root = tmp_path / "runs"
    args = ["--targets", "gadgets", "--iterations", "8", "--rounds", "2",
            "--seed", "5", "--quiet", "--run-dir", str(root),
            "--checkpoint", str(tmp_path / "ckpt.json")]
    assert main(args) == 0
    (first,) = _snapshots(root).values()
    assert first == ["snapshot-000001.json", "snapshot-000002.json"]
    assert main(args + ["--resume"]) == 0
    assert sorted(_snapshots(root).values()) == [
        ["snapshot-000001.json"], first]
