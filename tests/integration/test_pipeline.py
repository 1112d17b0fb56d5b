"""Cross-module integration tests: the full Figure 3 workflow."""

import pytest

from repro.analysis.experiments import run_figure2
from repro.baselines.specfuzz import SpecFuzzRewriter, SpecFuzzRuntime
from repro.baselines.spectaint import SpecTaintAnalyzer
from repro.core import TeapotConfig, TeapotRewriter
from repro.core.teapot import TeapotRuntime
from repro.fuzzing import Fuzzer, FuzzTarget
from repro.loader import dumps_binary, loads_binary
from repro.runtime import Emulator
from repro.targets import get_target, compile_vanilla, inject_gadgets
from repro.targets.case_studies import LZMA_CASE_STUDY, MASSAGE_CASE_STUDY
from repro.sanitizers.reports import AttackerClass, Channel


def test_full_workflow_on_serialized_cots_binary(tmp_path):
    """Compile → write to disk → load the opaque binary → rewrite → fuzz."""
    target = get_target("jsmn")
    path = tmp_path / "jsmn.telf"
    path.write_bytes(dumps_binary(compile_vanilla(target)))

    cots = loads_binary(path.read_bytes())
    instrumented = TeapotRewriter().instrument(cots)
    runtime = TeapotRuntime(instrumented)
    fuzzer = Fuzzer(FuzzTarget(runtime), seeds=list(target.seeds), seed=3)
    campaign = fuzzer.run_campaign(10)
    assert campaign.executions == 10
    assert campaign.normal_coverage > 0


def test_instrumented_binaries_preserve_behaviour_across_tools():
    target = get_target("libhtp")
    binary = compile_vanilla(target)
    seed = target.seeds[0]
    native = Emulator(binary).run(seed).exit_status

    teapot = TeapotRuntime(TeapotRewriter().instrument(binary))
    specfuzz = SpecFuzzRuntime(SpecFuzzRewriter().instrument(binary))
    spectaint = SpecTaintAnalyzer(binary)
    assert teapot.run(seed).exit_status == native
    assert specfuzz.run(seed).exit_status == native
    assert spectaint.run(seed).exit_status == native


def test_injected_gadgets_found_by_short_campaign():
    target = get_target("jsmn")
    injected = inject_gadgets(target)
    config = TeapotConfig(massage_enabled=False, taint_sources_enabled=False)
    instrumented = TeapotRewriter(config).instrument(injected.binary)
    runtime = TeapotRuntime(instrumented, config=config)
    fuzzer = Fuzzer(FuzzTarget(runtime), seeds=list(target.seeds), seed=11)
    campaign = fuzzer.run_campaign(20)
    assert campaign.gadget_count() >= 1
    assert all(r.attacker is AttackerClass.USER for r in campaign.reports)


def test_figure2_switch_lowering_shape():
    results = {r.lowering: r for r in run_figure2()}
    chain = results["branch_chain"]
    table = results["jump_table"]
    assert chain.spectre_v1_exposed
    assert not table.spectre_v1_exposed
    assert chain.conditional_branches > table.conditional_branches


def test_figure2_counts_each_speculation_entry_once():
    """The eight runs share one runtime, whose ``spec_stats`` are
    cumulative: the entries are its final count, not a sum of running
    totals."""
    results = {r.lowering: r for r in run_figure2()}
    assert results["branch_chain"].speculation_entries == 37
    assert results["jump_table"].speculation_entries == 16


def test_case_study_lzma_offset_manipulation_detected():
    """Appendix A.1: the dictionary-size offset gadget is a User-* gadget."""
    binary = LZMA_CASE_STUDY.compile()
    runtime = TeapotRuntime(TeapotRewriter().instrument(binary))
    crafted = bytes([0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 1]) + bytes(8)
    result = runtime.run(crafted)
    assert result.ok
    assert any(r.attacker is AttackerClass.USER for r in result.reports)


def test_case_study_massage_port_exercises_nested_speculation():
    """Appendix A.2: the memory-massage gadget needs three nested
    mispredictions.  The paper notes that detecting it is "extremely
    challenging if not impossible" for prior tools; here we check that
    Teapot's runtime explores the nested misprediction chain (the
    prerequisite the other detectors lack) and that the program's
    architectural behaviour is untouched while doing so."""
    binary = MASSAGE_CASE_STUDY.compile()
    config = TeapotConfig(eager_runs=8)
    runtime = TeapotRuntime(TeapotRewriter(config).instrument(binary), config=config)
    baseline = Emulator(binary).run(bytes([7, 1, 2, 3, 200, 250, 9, 9]))
    result = None
    for _ in range(4):
        result = runtime.run(bytes([7, 1, 2, 3, 200, 250, 9, 9]))
        assert result.ok
        assert result.exit_status == baseline.exit_status
    stats = result.spec_stats
    assert stats["nested_simulations"] > 0
    assert stats["max_depth_reached"] >= 2
