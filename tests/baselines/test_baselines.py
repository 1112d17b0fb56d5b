"""Tests for the SpecFuzz and SpecTaint baselines."""

import pytest

from repro.baselines.specfuzz import SpecFuzzConfig, SpecFuzzRewriter, SpecFuzzRuntime
from repro.baselines.spectaint import SpecTaintAnalyzer, SpecTaintConfig
from repro.disasm import disassemble
from repro.isa.instructions import Opcode
from repro.runtime import Emulator
from repro.sanitizers.reports import AttackerClass


def test_specfuzz_emits_guards_everywhere(spectre_victim_binary):
    rewriter = SpecFuzzRewriter()
    instrumented = rewriter.instrument(spectre_victim_binary)
    module = disassemble(instrumented)
    guard_count = sum(
        1 for f in module.functions for i in f.instructions()
        if i.opcode is Opcode.GUARD_CHECK
    )
    assert guard_count > 0
    stats = rewriter.last_stats["specfuzz-mixed-instrumentation"]
    assert stats["guarded_asan_checks"] > 0
    assert instrumented.metadata["tool"] == "specfuzz"
    # Single copy: no $spec functions.
    assert all(not f.name.endswith("$spec") for f in module.functions)


def test_specfuzz_preserves_program_semantics(spectre_victim_binary, inbounds_input):
    instrumented = SpecFuzzRewriter().instrument(spectre_victim_binary)
    native = Emulator(spectre_victim_binary).run(inbounds_input)
    runtime = SpecFuzzRuntime(instrumented, config=SpecFuzzConfig())
    result = runtime.run(inbounds_input)
    assert result.ok
    assert result.exit_status == native.exit_status


def test_specfuzz_detects_oob_without_attribution(spectre_victim_binary, oob_input):
    instrumented = SpecFuzzRewriter().instrument(spectre_victim_binary)
    runtime = SpecFuzzRuntime(instrumented)
    result = runtime.run(oob_input)
    assert result.ok
    assert result.reports
    assert all(r.attacker is AttackerClass.UNKNOWN for r in result.reports)
    assert all(r.tool == "specfuzz" for r in result.reports)


def test_spectaint_runs_unmodified_binary(spectre_victim_binary, inbounds_input):
    analyzer = SpecTaintAnalyzer(spectre_victim_binary)
    native = Emulator(spectre_victim_binary).run(inbounds_input)
    result = analyzer.run(inbounds_input)
    assert result.ok
    assert result.exit_status == native.exit_status
    assert result.spec_stats["simulations_started"] > 0


def test_spectaint_detects_user_controlled_leak(spectre_victim_binary):
    # A moderately out-of-bounds index: the speculative load lands in mapped
    # heap memory (so it does not fault away the transient window) and the
    # loaded value is then dereferenced — SpecTaint's user-taint-only policy
    # flags the flow without needing any bounds information.
    analyzer = SpecTaintAnalyzer(spectre_victim_binary)
    result = analyzer.run(bytes([100, 0, 0, 0]) + bytes(12))
    assert result.ok
    assert any(r.tool == "spectaint" for r in result.reports)


def test_spectaint_reports_without_bounds_evidence(spectre_victim_binary):
    """SpecTaint flags user-controlled speculative flows even when the access
    lands in perfectly valid memory — the over-restrictive policy the paper
    attributes to its lack of program-level information."""
    from repro.core import TeapotRewriter
    from repro.core.teapot import TeapotRuntime

    mild = bytes([100, 0, 0, 0]) + bytes(12)   # OOB index but mapped, unpoisoned
    st_result = SpecTaintAnalyzer(spectre_victim_binary).run(mild)
    teapot = TeapotRuntime(TeapotRewriter().instrument(spectre_victim_binary))
    tp_result = teapot.run(mild)
    assert st_result.reports
    # Teapot requires sanitizer-visible out-of-bounds evidence before calling
    # the loaded value a secret, so it stays quiet here.
    assert not [r for r in tp_result.reports if r.attacker is AttackerClass.USER]


def test_spectaint_emulation_overhead(spectre_victim_binary, inbounds_input):
    """Full-system emulation makes SpecTaint an order of magnitude slower."""
    native = Emulator(spectre_victim_binary).run(inbounds_input)
    st_result = SpecTaintAnalyzer(
        spectre_victim_binary, config=SpecTaintConfig(nested_speculation=False)
    ).run(inbounds_input)
    assert st_result.cycles > 20 * native.cycles


def test_spectaint_five_visit_cap_limits_exploration(spectre_victim_binary, oob_input):
    config = SpecTaintConfig()
    analyzer = SpecTaintAnalyzer(spectre_victim_binary, config=config)
    totals = []
    for _ in range(8):
        result = analyzer.run(oob_input)
        totals.append(result.spec_stats["simulations_started"])
    # Statistics are cumulative across the campaign; the per-run increment
    # must shrink to (near) zero once every branch has used its five visits.
    increments = [b - a for a, b in zip(totals, totals[1:])]
    assert increments[-1] < increments[0] or increments[-1] == 0
    assert increments[-1] <= 1
    # Overall exploration stays bounded by five visits per static branch.
    branch_count = 16
    assert analyzer.controller.stats.simulations_started <= 5 * branch_count


def test_nesting_disabled_configs():
    assert SpecFuzzConfig().without_nesting().nested_speculation is False
    assert SpecTaintConfig().without_nesting().nested_speculation is False
    # The original configs are unchanged.
    assert SpecFuzzConfig().nested_speculation is True


def test_tool_table_gives_every_campaign_tool_its_meaning(
        spectre_victim_binary, inbounds_input):
    """One table entry per campaign tool, in the spec's (and the bench
    stage's) order; each builds a runtime that runs the victim on the
    engine its configuration names."""
    import repro.api as api
    from repro.campaign.spec import TOOLS
    from repro.campaign.worker import TOOL_TABLE

    assert tuple(TOOL_TABLE) == TOOLS == api.BENCH_TOOLS
    for name, tool in TOOL_TABLE.items():
        config = tool.make_config("legacy")
        binary = tool.instrument(spectre_victim_binary, config)
        assert (binary is spectre_victim_binary) == (tool.rewriter is None)
        if tool.rewriter is not None:
            assert binary.metadata["tool"] == name
            assert config.engine == "legacy"
        runtime = tool.runtime(binary, config=config)
        assert type(runtime.emulator).__name__ in ("Emulator",
                                                   "SpecTaintEmulator")
        assert runtime.run(inbounds_input).ok
