"""The rung ladder: one recorded input set, one layer added per rung.

Every rung runs the same inputs on a fresh emulator, per engine:

==========  ==================================================================
``bare``    vanilla binary, no controller, policy, coverage or taint
``instr``   Teapot binary, coverage runtime, ``controller=None`` (the shadow
            copies exist but no speculation episode is ever entered)
``pht``     plus the speculation controller with nesting disabled
``nested``  plus Teapot's nesting policy
``policy``  the workload's full runtime (``TeapotRuntime``): plus the Kasper
            detection policy and the workload's taint sources
==========  ==================================================================

A layer's cost is the difference of adjacent rungs in ms per execution.
Each rung also checks that ``fast`` and ``jit`` produce the same
(status, exit, steps, cycles, reports) digest on every input.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import Dict, List, Sequence, Tuple

from repro.core.teapot import TeapotRuntime
from repro.coverage.sancov import CoverageRuntime
from repro.runtime.fastpath import resolve_engine
from repro.runtime.speculation import DisabledNestingPolicy, TeapotNestingPolicy

RUNGS = ("bare", "instr", "pht", "nested", "policy")
ENGINES = ("fast", "jit")
MIN_REPEATS = 3
MAX_REPEATS = 25
#: layer whose cost is ``rung[i] - rung[i - 1]``.
COSTS = (("instrumentation", "instr"), ("speculation", "pht"),
         ("nesting", "nested"), ("policy", "policy"))


def build_rung(rung: str, engine: str, vanilla, instrumented, config):
    """A fresh emulator for one rung on one engine."""
    emulator_cls, controller_cls = resolve_engine(engine)
    if rung == "bare":
        return emulator_cls(vanilla, max_steps=config.max_steps,
                            stack_protect=False, taint_sources_enabled=False)
    if rung == "policy":
        return TeapotRuntime(instrumented,
                             config=config.with_engine(engine)).emulator
    controller = None
    if rung == "pht":
        controller = controller_cls(DisabledNestingPolicy(),
                                    rob_budget=config.rob_budget)
    elif rung == "nested":
        controller = controller_cls(
            TeapotNestingPolicy(max_depth=config.max_depth,
                                eager_runs=config.eager_runs,
                                ramp=config.specfuzz_ramp),
            rob_budget=config.rob_budget)
    elif rung != "instr":
        raise ValueError(f"unknown rung {rung!r}")
    return emulator_cls(instrumented, controller=controller,
                        coverage=CoverageRuntime(),
                        max_steps=config.max_steps,
                        stack_protect=config.protect_stack,
                        taint_sources_enabled=False)


def _run(emulator, inputs: Sequence[bytes]) -> Tuple[float, str]:
    digest = hashlib.sha256()
    start = time.perf_counter()
    outcomes = [emulator.run(data) for data in inputs]
    elapsed = time.perf_counter() - start
    for result in outcomes:
        sites = sorted(report.site for report in result.reports)
        digest.update(repr((result.status, result.exit_status, result.steps,
                            result.cycles, sites)).encode("utf-8"))
    return elapsed, digest.hexdigest()


def run_ladder(vanilla, instrumented, config, inputs: Sequence[bytes],
               min_seconds: float) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer ladder metrics plus digest mismatches (gate failures).

    Rungs and engines are interleaved within each repeat so slow drift of
    the host hits every rung alike.  Repeats continue until every rung has
    at least three samples and ``min_seconds`` of measured time (cheap
    rungs are noisy otherwise); each rung reports its median sample.
    """
    times: Dict[Tuple[str, str], List[float]] = {}
    digests: Dict[Tuple[str, str], set] = {}
    pending = [(rung, engine) for rung in RUNGS for engine in ENGINES]
    while pending:
        for rung, engine in pending:
            emulator = build_rung(rung, engine, vanilla, instrumented, config)
            elapsed, digest = _run(emulator, inputs)
            times.setdefault((rung, engine), []).append(elapsed)
            digests.setdefault((rung, engine), set()).add(digest)
        pending = [key for key in pending
                   if len(times[key]) < MIN_REPEATS
                   or (sum(times[key]) < min_seconds
                       and len(times[key]) < MAX_REPEATS)]
    problems: List[str] = []
    for rung in RUNGS:
        seen = digests[(rung, "fast")] | digests[(rung, "jit")]
        if len(seen) != 1:
            problems.append(f"rung {rung}: fast and jit digests differ")
    values: Dict[str, float] = {}
    for (rung, engine), samples in times.items():
        values[f"rung.{rung}.{engine}"] = (
            1000.0 * statistics.median(samples) / len(inputs))
    for engine in ENGINES:
        for (layer, rung), below in zip(COSTS, RUNGS):
            values[f"cost.{layer}.{engine}"] = (
                values[f"rung.{rung}.{engine}"]
                - values[f"rung.{below}.{engine}"])
    return values, problems
