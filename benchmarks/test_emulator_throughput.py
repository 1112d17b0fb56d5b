"""Emulator engine throughput: the compiled engines vs legacy.

``jit`` and ``fast`` run the same compiled instruction semantics
(``repro.runtime.jit``): ``jit`` dispatches superblocks, ``fast`` is the
same compiler at a block cap of one and dispatches single-instruction
functions only.  The acceptance bars, engine by engine, with
bit-identity proven by the differential suite
(``tests/runtime/test_differential.py``) and the speedups proven here:

- ``fast`` (``repro.runtime.fastpath``): ≥ 2× executions/second over
  ``legacy`` on the Kocher-sample fuzzing loop, carrying over to a real
  target (jsmn, ≥ 1.5×).
- ``jit``: ≥ 2× architectural executions/second over ``fast`` on dense
  perf-input streams of both workloads (the ``jit_speedup_vs_fast`` BENCH
  fields below) — what superblocks gain over single-instruction
  dispatch of the same generated code.

Every registered engine is measured — a newly plugged-in engine shows up
in the BENCH rows automatically; only the engines named above carry
floors.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import SCALE
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter, TeapotRuntime
from repro.fuzzing.fuzzer import Fuzzer, FuzzTarget
from repro.runtime.fastpath import engine_names, resolve_engine
from repro.targets import get_target
from repro.targets.injection import compile_vanilla


def _timed_chunk(fuzzer, iterations: int):
    """One timed fuzzing chunk; returns (exec/s, result digest)."""
    started = time.perf_counter()
    result = fuzzer.run_chunk(iterations)
    elapsed = time.perf_counter() - started
    digest = (
        result.total_cycles,
        result.total_steps,
        result.crashes,
        result.hangs,
        result.normal_coverage,
        result.speculative_coverage,
        result.reports.to_dicts(),
    )
    return iterations / elapsed, digest


def _compare_engines(target_name: str, iterations: int, seed: int = 7,
                     repetitions: int = 5):
    """Per-chunk speedup of every registered engine over legacy.

    All engines replay the exact same deterministic input sequence, chunk
    for chunk, and each chunk is timed across the engines back to back —
    so the paired rates see the same inputs and (nearly) the same machine
    conditions.  The reported speedup per engine is the *second-highest*
    paired ratio: robust both to a load spike sinking the measured half
    of a chunk and to one sinking the legacy half (which would inflate
    the maximum).
    """
    target = get_target(target_name)
    binary = TeapotRewriter(TeapotConfig()).instrument(compile_vanilla(target))
    engines = sorted(engine_names(), key=lambda name: name != "legacy")
    fuzzers = {}
    for engine in engines:
        runtime = TeapotRuntime(binary, config=TeapotConfig(engine=engine))
        fuzzers[engine] = Fuzzer(FuzzTarget(runtime), seeds=list(target.seeds),
                                 seed=seed)
        fuzzers[engine].run_chunk(max(5, iterations // 10))  # warmup

    rates = {engine: [] for engine in engines}
    ratios = {engine: [] for engine in engines if engine != "legacy"}
    for _ in range(repetitions):
        digests = {}
        for engine in engines:
            rate, digests[engine] = _timed_chunk(fuzzers[engine], iterations)
            rates[engine].append(rate)
            if engine != "legacy":
                ratios[engine].append(rate / rates["legacy"][-1])
        for engine in engines:
            assert digests[engine] == digests["legacy"], (
                f"{target_name}: {engine} diverged from legacy — "
                f"engine results are wrong"
            )
    speedups = {}
    for engine, engine_ratios in ratios.items():
        engine_ratios.sort()
        speedups[engine] = (engine_ratios[-2] if len(engine_ratios) > 1
                            else engine_ratios[0])
    summary = " | ".join(
        f"{engine} {max(rates[engine]):8.1f} exec/s"
        + (f" ({speedups[engine]:.2f}x)" if engine in speedups else "")
        for engine in engines
    )
    print(f"\n{target_name}: {summary}")
    metrics = {"cycles_per_exec": round(digests["legacy"][0] / iterations, 1)}
    for engine in engines:
        metrics[f"{engine}_exec_per_sec"] = round(max(rates[engine]), 1)
    for engine, speedup in speedups.items():
        metrics[f"{engine}_speedup_vs_legacy"] = round(speedup, 2)
    return speedups, metrics


def _bare_throughput(target_name: str, size: int, runs: int,
                     repetitions: int = 7):
    """Architectural-execution throughput of jit vs fast, noise-robust.

    Runs a dense perf-input stream straight through bare ``fast`` and
    ``jit`` emulators (no fuzzing loop), in alternating-order chunks,
    and compares the *minimum* chunk time per engine — scheduling noise
    only ever adds time, so the min-of-chunks ratio is the stable
    estimator on a noisy host.
    """
    target = get_target(target_name)
    binary = target.compile()
    data = target.perf_input(size)
    emulators = {engine: resolve_engine(engine)[0](binary)
                 for engine in ("fast", "jit")}
    digests = {}
    for engine, emulator in emulators.items():  # warmup + identity guard
        result = emulator.run(data)
        digests[engine] = (result.status, result.exit_status, result.steps,
                           result.cycles, result.arch_instructions)
    assert digests["jit"] == digests["fast"], (
        f"{target_name}: jit diverged from fast on the perf input"
    )
    best = {"fast": None, "jit": None}
    for rep in range(repetitions):
        order = ("fast", "jit") if rep % 2 == 0 else ("jit", "fast")
        for engine in order:
            emulator = emulators[engine]
            started = time.perf_counter()
            for _ in range(runs):
                emulator.run(data)
            elapsed = time.perf_counter() - started
            if best[engine] is None or elapsed < best[engine]:
                best[engine] = elapsed
    speedup = best["fast"] / best["jit"]
    steps = digests["fast"][2]
    print(f"\n{target_name} bare: fast {runs / best['fast']:8.1f} exec/s | "
          f"jit {runs / best['jit']:8.1f} exec/s | "
          f"jit speedup {speedup:.2f}x ({steps} steps/exec)")
    return speedup, {
        "fast_exec_per_sec": round(runs / best["fast"], 1),
        "jit_exec_per_sec": round(runs / best["jit"], 1),
        "jit_speedup_vs_fast": round(speedup, 2),
        "steps_per_exec": steps,
    }


@pytest.mark.paper
def test_kocher_fuzzing_loop_speedup(bench_record):
    """Fast engine fuzzes the Kocher samples ≥ 2× faster than legacy."""
    speedups, metrics = _compare_engines("gadgets", iterations=400 * SCALE)
    bench_record("emulator_throughput_gadgets", **metrics)
    assert speedups["fast"] >= 2.0, (
        f"fast engine only {speedups['fast']:.2f}x on the Kocher-sample "
        f"fuzzing loop (acceptance floor is 2.0x)"
    )
    assert speedups["jit"] >= 2.0, (
        f"jit engine only {speedups['jit']:.2f}x over legacy on the "
        f"Kocher-sample fuzzing loop (must at least hold the fast floor)"
    )


@pytest.mark.paper
def test_jsmn_fuzzing_loop_speedup(bench_record):
    """The speedups carry over to a real target (jsmn)."""
    speedups, metrics = _compare_engines("jsmn", iterations=8 * SCALE, seed=5,
                                         repetitions=2)
    bench_record("emulator_throughput_jsmn", **metrics)
    assert speedups["fast"] >= 1.5, (
        f"fast engine only {speedups['fast']:.2f}x on jsmn (floor is 1.5x)"
    )
    assert speedups["jit"] >= 1.5, (
        f"jit engine only {speedups['jit']:.2f}x over legacy on jsmn "
        f"(must at least hold the fast floor)"
    )


@pytest.mark.paper
def test_jit_bare_throughput_gadgets(bench_record):
    """Jit tier executes dense gadget streams ≥ 2× faster than fast."""
    speedup, metrics = _bare_throughput("gadgets", size=1440,
                                        runs=12 * SCALE)
    bench_record("jit_throughput_gadgets", **metrics)
    assert speedup >= 2.0, (
        f"jit engine only {speedup:.2f}x over fast on the gadget stream "
        f"(acceptance floor is 2.0x)"
    )


@pytest.mark.paper
def test_jit_bare_throughput_jsmn(bench_record):
    """Jit tier parses dense JSON documents ≥ 2× faster than fast."""
    speedup, metrics = _bare_throughput("jsmn", size=160 * SCALE, runs=12)
    bench_record("jit_throughput_jsmn", **metrics)
    assert speedup >= 2.0, (
        f"jit engine only {speedup:.2f}x over fast on jsmn documents "
        f"(acceptance floor is 2.0x)"
    )
