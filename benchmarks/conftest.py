"""Shared configuration for the paper-experiment benchmarks.

Every benchmark is deterministic; the ``REPRO_BENCH_SCALE`` environment
variable scales fuzzing iterations and crafted-input sizes (1 = quick mode,
the default; larger values approach the paper's 24-hour campaigns the same
way the artifact's Appendix B.7.3 "three-hour approximation" does).
"""

from __future__ import annotations

import json
import os
from typing import Dict

import pytest

#: scale factor applied to fuzz iterations and perf-input sizes.
SCALE = max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))

#: metrics recorded by benchmarks through the ``bench_record`` fixture,
#: keyed by benchmark name; flushed to ``BENCH_<name>.json`` files at
#: session end so the perf trajectory is machine-readable (CI uploads the
#: files as artifacts).
_BENCH_RESULTS: Dict[str, Dict[str, object]] = {}

#: where the ``BENCH_<name>.json`` files land (default: working directory).
BENCH_DIR = os.environ.get("REPRO_BENCH_DIR", ".")

#: crafted-input size for the run-time experiments (Figures 1 and 7).
PERF_INPUT_SIZE = 160 * SCALE

#: fuzzing iterations per campaign for the detection experiments.
FUZZ_ITERATIONS = 30 * SCALE


def pytest_configure(config):
    config.addinivalue_line("markers", "paper: regenerates a paper figure/table")


def _provenance() -> Dict[str, object]:
    """Stable artifact provenance: when/where/what produced the numbers.

    Lets a reader tell which commit and host a ``BENCH_*.json`` snapshot
    came from; all fields are additive to the pre-existing payload.
    """
    import platform
    import subprocess
    import time

    commit = ""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "schema": "repro.bench/record",
        "schema_version": 1,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": commit,
        "host": platform.node(),
        "platform": platform.platform(),
    }


def pytest_sessionfinish(session, exitstatus):
    """Write one ``BENCH_<name>.json`` per recorded benchmark."""
    if not _BENCH_RESULTS:
        return
    from repro._version import __version__

    provenance = _provenance()
    os.makedirs(BENCH_DIR, exist_ok=True)
    for name, metrics in sorted(_BENCH_RESULTS.items()):
        payload = {"bench": name, "scale": SCALE, "version": __version__,
                   **provenance, **metrics}
        path = os.path.join(BENCH_DIR, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def bench_scale():
    """The active scale factor (exposed for reporting)."""
    return SCALE


@pytest.fixture
def bench_record():
    """Record machine-readable metrics for the current benchmark.

    Usage: ``bench_record("emulator_throughput", engine="fast",
    exec_per_sec=1234.5, cycles=...)``.  All metrics recorded under one
    name are merged into a single ``BENCH_<name>.json`` at session end.
    """
    def record(name: str, **metrics: object) -> None:
        _BENCH_RESULTS.setdefault(name, {}).update(metrics)
    return record
