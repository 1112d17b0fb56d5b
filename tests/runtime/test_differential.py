"""Differential suite: fast and jit engines must be bit-identical to legacy.

The jit engine (compiled basic blocks + persistent block cache +
copy-on-write rollback journaling, :mod:`repro.runtime.jit`) and the fast
engine (the same compiler one instruction at a time,
:mod:`repro.runtime.fastpath`) are only allowed to change *how fast*
executions run, never *what* they compute.
This suite drives the reusable harness in :mod:`differential` over the
full engine triple — every Kocher gadget sample, jsmn/libyaml smoke
inputs, full fuzzing campaigns and all four speculation-model variants —
asserting identical :class:`ExecutionResult` records (status, exit
status, steps, **cycle counts**, speculation statistics), identical
gadget reports, and identical coverage maps, parametrized over every
nested speculation policy.
"""

from __future__ import annotations

import random

import pytest

from differential import (
    NESTING_POLICIES,
    VARIANT_SETS,
    assert_campaigns_identical,
    assert_engines_identical,
    result_record,
)
from repro.baselines.specfuzz import SpecFuzzConfig, SpecFuzzRewriter, SpecFuzzRuntime
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter, TeapotRuntime
from repro.fuzzing.fuzzer import Fuzzer, FuzzTarget
from repro.fuzzing.mutators import Mutator
from repro.runtime.emulator import Emulator
from repro.runtime.fastpath import FastEmulator, engine_names, resolve_engine
from repro.runtime.jit import JitEmulator
from repro.targets import get_target
from repro.targets.injection import compile_vanilla

#: The full engine triple under test, baseline first.
ENGINES = ("legacy", "fast", "jit")

#: Kocher-sample inputs: the four seed selectors plus mutated variants that
#: drive each gadget shape in and out of bounds.
KOCHER_INPUTS = [
    bytes([selector]) + payload
    for selector in range(4)
    for payload in (b"\x05" * 8, b"\x7f" * 8, b"\xff" * 8, bytes(range(8)))
]


def test_engine_registry_exposes_triple():
    """All three engines are registered (plugins may add more)."""
    assert set(ENGINES) <= set(engine_names())


@pytest.mark.parametrize("policy_name", sorted(NESTING_POLICIES))
def test_kocher_samples_identical_across_engines(policy_name):
    """Every Kocher sample: same results, reports, cycles on all engines."""
    assert_engines_identical(
        "gadgets",
        engines=ENGINES,
        policies=(policy_name,),
        inputs=KOCHER_INPUTS,
    )


@pytest.mark.parametrize("variant_set", VARIANT_SETS,
                         ids=lambda vs: "+".join(vs))
def test_kocher_samples_identical_across_variants(variant_set):
    """Each speculation-model variant set (PHT/BTB/RSB/STL and the full
    matrix) yields bit-identical runs on all three engines."""
    assert_engines_identical(
        "gadgets",
        engines=ENGINES,
        variants=(variant_set,),
        inputs=KOCHER_INPUTS[:8],
    )


@pytest.mark.parametrize("policy_name", sorted(NESTING_POLICIES))
def test_kocher_fuzzing_campaign_identical(policy_name):
    """A full fuzzing loop over the Kocher samples is engine-invariant."""
    assert_campaigns_identical(
        "gadgets",
        engines=ENGINES,
        policy=policy_name,
        iterations=150,
        seed=11,
    )


@pytest.mark.parametrize("target_name", ["jsmn", "libyaml"])
def test_real_target_smoke_identical(target_name):
    """jsmn/libyaml smoke inputs: identical results on all engines."""
    target = get_target(target_name)
    inputs = list(target.seeds)[:2] + [target.perf_input(48)]
    assert_engines_identical(target, engines=ENGINES, inputs=inputs)


def test_specfuzz_runtime_identical_across_engines():
    """The SpecFuzz baseline runtime is engine-invariant too."""
    target = get_target("gadgets")
    config = SpecFuzzConfig()
    binary = SpecFuzzRewriter(config).instrument(compile_vanilla(target))
    records = {}
    for engine in ENGINES:
        runtime = SpecFuzzRuntime(binary, config=config.with_engine(engine))
        records[engine] = [
            result_record(runtime.run(data)) for data in KOCHER_INPUTS[:8]
        ]
    assert records["fast"] == records["legacy"]
    assert records["jit"] == records["legacy"]


@pytest.mark.parametrize("variants", [
    ("btb",), ("rsb",), ("stl",), ("pht", "btb", "rsb", "stl"),
])
def test_variant_models_identical_across_engines(variants):
    """Speculation-model campaigns (BTB/RSB/STL, alone and combined) must
    be engine-invariant: model sites funnel every engine through the same
    shared handlers — the compiled engines fall back to them there — and this
    locks that in over full fuzzing loops on every planted gadget-sample
    target."""
    for target_name in ("gadgets-btb", "gadgets-rsb", "gadgets-stl"):
        assert_campaigns_identical(
            target_name,
            engines=ENGINES,
            variants=variants,
            iterations=80,
            seed=23,
        )


def test_config_engine_selection_keeps_fuzz_results():
    """A runtime built from ``config.with_engine(...)`` runs on that
    engine, and fuzzing it gives the legacy engine's results."""
    target = get_target("gadgets")
    config = TeapotConfig(engine="legacy")
    binary = TeapotRewriter(config).instrument(compile_vanilla(target))
    results = {}
    for engine, emulator_cls in (("legacy", Emulator), ("fast", FastEmulator),
                                 ("jit", JitEmulator)):
        runtime = TeapotRuntime(binary, config=config.with_engine(engine))
        assert type(runtime.emulator) is emulator_cls
        fuzzer = Fuzzer(FuzzTarget(runtime), seeds=list(target.seeds), seed=5)
        results[engine] = fuzzer.run_campaign(60)
    legacy_result = results["legacy"]
    for engine in ("fast", "jit"):
        assert results[engine].total_cycles == legacy_result.total_cycles
        assert (results[engine].reports.to_dicts()
                == legacy_result.reports.to_dicts())


def test_resolve_engine_rejects_unknown():
    with pytest.raises(ValueError, match="unknown emulator engine"):
        resolve_engine("turbo")


def _speculation_counters(runtime, data: bytes) -> tuple:
    """The speculation bookkeeping of one execution, including the
    counters the compiled engines keep partly in generated code."""
    result = runtime.run(data)
    emulator = runtime.emulator
    coverage = emulator.coverage
    return (
        result.spec_stats,
        coverage.spec_notes,
        coverage.lazy_flushes,
        len(coverage.speculative),
        emulator.asan.violations,
        runtime.controller.undo_depth_max,
    )


def test_speculation_counters_exact_across_engines():
    """Controller, coverage and ASan counters agree on every engine over
    the gadgets seeds plus mutated inputs, execution by execution."""
    target = get_target("gadgets")
    config = TeapotConfig()
    binary = TeapotRewriter(config).instrument(compile_vanilla(target))
    mutator = Mutator(random.Random(13))
    inputs = list(target.seeds)
    inputs += [mutator.mutate(inputs[i % len(inputs)]) for i in range(12)]
    records = {}
    for engine in ENGINES:
        runtime = TeapotRuntime(binary, config=config.with_engine(engine))
        records[engine] = [_speculation_counters(runtime, data)
                           for data in inputs]
    assert records["fast"] == records["legacy"]
    assert records["jit"] == records["legacy"]
    final = records["legacy"][-1]
    assert final[0]["rollbacks"] and final[1] and final[2] and final[4], (
        "the inputs never exercised speculation, coverage notes or ASan"
    )
