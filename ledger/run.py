"""Layer ledger: run one workload of the benchmark and print its result.

Run from the repository root::

    python3 ledger/run.py --workload gadgets-fuzz --seed 1 --seconds 20 --trace 0

The last line of standard output is the result object
(``correct``/``attempted``/``failed``/``metrics``); the line before it
carries workload-specific detail.  The exit code is 0 for a
correct run, 1 when a correctness gate failed and 2 when the run could not
be made (for example outside a checkout of this repository).  See
``ledger/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LEDGER_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, LEDGER_DIR)

import catalog  # noqa: E402  (after the path set-up above)

WORKLOADS = ("gadgets-fuzz", "service-campaigns")
#: a run that has not finished by then is killed and fails.
CHILD_TIMEOUT_S = 170.0


def child_env(work: str) -> Dict[str, str]:
    """Environment of every process the run starts.

    The hash seed is pinned so dict layouts, and with them timings, do not
    change from process to process; caches and temporaries stay inside the
    run's private directory.
    """
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join([SRC, LEDGER_DIR]),
        "PYTHONHASHSEED": "0",
        "REPRO_JIT_CACHE": os.path.join(work, "jit"),
        "TMPDIR": os.path.join(work, "tmp"),
    })
    return env


def run_fuzzwork(workload: str, seed: int, seconds: float, trace: bool,
                 work: str, deadline: float) -> Dict:
    """Run ``fuzzwork.py`` in a fresh process and return its outcome."""
    out = os.path.join(work, f"{workload}.json")
    command = [sys.executable, os.path.join(LEDGER_DIR, "fuzzwork.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--work", work, "--out", out]
    process = subprocess.Popen(command, env=child_env(work),
                               stdin=subprocess.DEVNULL,
                               stdout=sys.stderr)
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError(f"{workload} worker timed out")
    if code != 0:
        raise RuntimeError(f"{workload} worker exited with code {code}")
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: str) -> Dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    if workload == "gadgets-fuzz":
        return run_fuzzwork(workload, seed, seconds, trace, work, deadline)
    import servicework

    os.environ.update({key: value for key, value in child_env(work).items()
                       if key in ("REPRO_JIT_CACHE", "TMPDIR")})
    sys.path.insert(0, SRC)
    return servicework.run(
        seed, seconds, trace, work, child_env(work),
        lambda: run_fuzzwork("service-campaigns", seed, seconds, True, work,
                             deadline))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one ledger workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{WORKLOADS}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".ledger_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"))
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), work)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems: List[str] = outcome["problems"]
    for problem in problems:
        print(f"gate failed: {problem}", file=sys.stderr)
    print(json.dumps({"detail": outcome["detail"]}, sort_keys=True))
    result = catalog.assemble(outcome["values"], bool(args.trace),
                              correct=not problems,
                              attempted=outcome["attempted"],
                              failed=outcome["failed"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
