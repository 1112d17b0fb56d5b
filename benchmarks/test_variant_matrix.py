"""Speculation-variant matrix — exec/s and reports per variant × engine.

Not a paper figure: the paper evaluates conditional-branch (Spectre-PHT)
misprediction only.  This benchmark measures the cost of the speculation
models that extend the reproduction past the paper — fuzzing throughput
and detected-site counts per variant, on both emulator engines, over the
planted gadget-sample targets.  Dynamic model sites force the compiled
engines onto legacy-handler fallbacks, so this is also the regression
gauge for how much of the compiled path a variant run retains.

Emits ``BENCH_variant_matrix.json`` via the ``bench_record`` fixture.
"""

import time

import pytest

from benchmarks.conftest import SCALE
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter, TeapotRuntime
from repro.fuzzing.fuzzer import Fuzzer, FuzzTarget
from repro.targets import get_target
from repro.targets.injection import compile_vanilla

VARIANTS = ("pht", "btb", "rsb", "stl")
ENGINES = ("fast", "legacy")
ITERATIONS = 40 * SCALE


def _target_for(variant: str) -> str:
    # PHT fuzzes the classic Kocher samples; each other variant fuzzes its
    # own planted gadget-sample target.
    return "gadgets" if variant == "pht" else f"gadgets-{variant}"


@pytest.mark.paper
def test_variant_matrix(bench_record):
    metrics = {}
    per_variant_sites = {}
    for variant in VARIANTS:
        target = get_target(_target_for(variant))
        config = TeapotConfig(variants=(variant,))
        binary = TeapotRewriter(config).instrument(compile_vanilla(target))
        engine_results = {}
        for engine in ENGINES:
            runtime = TeapotRuntime(binary,
                                    config=config.with_engine(engine))
            fuzzer = Fuzzer(FuzzTarget(runtime), seeds=list(target.seeds),
                            seed=97)
            started = time.perf_counter()
            result = fuzzer.run_campaign(ITERATIONS)
            elapsed = time.perf_counter() - started
            engine_results[engine] = result
            metrics[f"{variant}_{engine}_exec_per_sec"] = round(
                result.executions / elapsed, 1) if elapsed else 0.0
            metrics[f"{variant}_{engine}_cycles"] = result.total_cycles
        fast, legacy = engine_results["fast"], engine_results["legacy"]
        # Engine invariance holds for every variant (differential property).
        assert fast.reports.to_dicts() == legacy.reports.to_dicts()
        assert fast.total_cycles == legacy.total_cycles
        sites = fast.reports.count_by_variant().get(variant, 0)
        per_variant_sites[variant] = sites
        metrics[f"{variant}_unique_sites"] = sites

    bench_record(
        "variant_matrix",
        iterations=ITERATIONS,
        variants=",".join(VARIANTS),
        **metrics,
    )

    print("\nVariant matrix (unique sites):", per_variant_sites)
    for variant in ("btb", "rsb", "stl"):
        assert per_variant_sites[variant] >= 2, (
            f"{variant}: planted sites not detected")
    assert per_variant_sites["pht"] >= 4   # the four Kocher samples
