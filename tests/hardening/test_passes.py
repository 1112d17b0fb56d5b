"""Mitigation passes: fences, masking, and behaviour preservation."""

from __future__ import annotations

import pytest

import repro.api as api
from repro.disasm.disassembler import disassemble
from repro.hardening.passes import (
    PRED_SYMBOL,
    FenceAllBranchesPass,
    FenceAtSitePass,
    HardeningError,
    MaskLoadPass,
    strategy_pass,
)
from repro.hardening.pipeline import harden_module
from repro.hardening.sites import GadgetSite, locate_site, resolve_sites
from repro.campaign.worker import compiled_binary, instrumented_binary
from repro.isa.instructions import Opcode, is_conditional_branch, is_pseudo
from repro.isa.operands import Label
from repro.rewriting.passes import PassManager
from repro.rewriting.reassemble import reassemble
from repro.runtime.emulator import Emulator
from repro.targets import get_target


@pytest.fixture(scope="module")
def gadget_sites():
    """Deterministic gadget sites of the Kocher-sample driver."""
    reports = (api.pipeline(target="gadgets", seed=1234)
               .fuzz(iterations=400).report().gadget_reports())
    instrumented = instrumented_binary("gadgets", "teapot", "vanilla")
    sites = resolve_sites(instrumented, reports)
    assert sites, "the Kocher samples must produce gadget reports"
    return sorted(sites, key=lambda s: (s.function, s.ordinal))


def _fresh_module():
    return disassemble(compiled_binary("gadgets", "vanilla"))


def _run_signature(binary, data):
    result = Emulator(binary).run(data)
    return (result.status, result.exit_status, result.crash_reason,
            tuple(result.output))


def test_strategy_pass_factory():
    assert isinstance(strategy_pass("fence"), FenceAtSitePass)
    assert isinstance(strategy_pass("mask"), MaskLoadPass)
    assert isinstance(strategy_pass("fence-all"), FenceAllBranchesPass)
    with pytest.raises(HardeningError):
        strategy_pass("nonsense")


def test_fence_at_site_inserts_fences_directly_before_sites(gadget_sites):
    module = _fresh_module()
    targets = [locate_site(module, site)[1:] for site in gadget_sites]
    originals = [block.instructions[index] for block, index in targets]

    mitigation = FenceAtSitePass(gadget_sites)
    stats = PassManager().add(mitigation).run(module)
    assert stats["fence-at-site"]["fences_inserted"] == len(gadget_sites)
    assert all(outcome == "fenced"
               for outcome in mitigation.site_outcomes.values())

    for (block, _), original in zip(targets, originals):
        position = next(i for i, instr in enumerate(block.instructions)
                        if instr is original)
        assert block.instructions[position - 1].opcode is Opcode.LFENCE


def test_fence_at_site_survives_ordinal_shifts(gadget_sites):
    """Inserting fences must not invalidate later sites' ordinals.

    All sites live in ``main``; each fence shifts subsequent architectural
    ordinals, so a naive locate-as-you-insert loop would fence the wrong
    instructions (the bug class the resolve-all-first design prevents).
    """
    module = _fresh_module()
    expected = {id(locate_site(module, site)[1].instructions[
        locate_site(module, site)[2]]) for site in gadget_sites}
    PassManager().add(FenceAtSitePass(gadget_sites)).run(module)
    fenced_before = set()
    for func in module.functions:
        for block in func.blocks:
            for i, instr in enumerate(block.instructions):
                if instr.opcode is Opcode.LFENCE:
                    fenced_before.add(id(block.instructions[i + 1]))
    assert fenced_before == expected


def test_fence_all_branches_fences_both_successors():
    module = _fresh_module()
    PassManager().add(FenceAllBranchesPass()).run(module)
    for func in module.functions:
        for index, block in enumerate(func.blocks):
            term = block.terminator
            if term is None or not is_conditional_branch(term):
                continue
            taken = func.block(term.operands[0].name)
            fallthrough = func.blocks[index + 1]
            for successor in (taken, fallthrough):
                assert successor.instructions[0].opcode is Opcode.LFENCE, (
                    func.name, successor.label)


def test_mask_load_pass_masks_loads_and_allocates_predicate(gadget_sites):
    load_sites = [site for site in gadget_sites if site.kind == "load"]
    module = _fresh_module()
    located = {site: locate_site(module, site) for site in load_sites}

    mitigation = MaskLoadPass(load_sites)
    stats = PassManager().add(mitigation).run(module)
    assert stats["mask-loads"]["loads_masked"] == len(load_sites)
    assert stats["mask-loads"].get("guards_instrumented", 0) >= 1
    assert any(obj.name == PRED_SYMBOL for obj in module.data_objects)
    # The predicate slot starts all-ones: "not misspeculating".
    assert module.data_object(PRED_SYMBOL).data == b"\xff" * 8

    for site, (_, block, _) in located.items():
        assert mitigation.site_outcomes[site] == "masked"
        # Immediately before every masked load: and <index>, <pred-scratch>.
        position = next(
            i for i, instr in enumerate(block.instructions)
            if instr.comment.startswith("harden: slh-mask")
            and instr.opcode is Opcode.AND
        )
        masked_load = next(
            instr for instr in block.instructions[position:]
            if instr.opcode is Opcode.LOAD and not instr.comment
        )
        assert masked_load.memory_operand().index is not None


def test_mask_load_pass_falls_back_to_fences_for_branch_sites():
    module = _fresh_module()
    func = module.function("main")
    # Synthesise a branch-kind site: the ordinal of some conditional branch.
    ordinal = 0
    branch_ordinal = None
    for instr in func.instructions():
        if is_pseudo(instr):
            continue
        if is_conditional_branch(instr) and branch_ordinal is None:
            branch_ordinal = ordinal
        ordinal += 1
    assert branch_ordinal is not None
    site = GadgetSite(function="main", ordinal=branch_ordinal, kind="branch")

    mitigation = MaskLoadPass([site])
    stats = PassManager().add(mitigation).run(module)
    assert stats["mask-loads"]["fallback_fences"] == 1
    assert mitigation.site_outcomes[site] == "mask-fallback-fence"
    fences = [instr for instr in func.instructions()
              if instr.opcode is Opcode.LFENCE]
    assert len(fences) == 1
    assert fences[0].comment.startswith("harden: slh-fallback")


def test_unresolvable_sites_are_reported_not_fatal(gadget_sites):
    ghost = GadgetSite(function="no_such_function", ordinal=0, kind="load")
    beyond = GadgetSite(function="main", ordinal=10_000, kind="load")
    module = _fresh_module()
    mitigation = FenceAtSitePass([ghost, beyond])
    stats = PassManager().add(mitigation).run(module)
    assert stats["fence-at-site"]["sites_unresolved"] == 2
    assert mitigation.site_outcomes[ghost] == "unresolved"
    assert mitigation.site_outcomes[beyond] == "unresolved"


@pytest.mark.parametrize("strategy", ("fence", "mask", "fence-all"))
def test_hardening_preserves_architectural_behaviour(strategy, gadget_sites):
    """Hardened binaries behave identically on normal executions."""
    target = get_target("gadgets")
    base = compiled_binary("gadgets", "vanilla")
    module = _fresh_module()
    harden_module(module, strategy, gadget_sites)
    hardened = reassemble(module)

    inputs = list(target.seeds) + [target.perf_input(200), b"", b"\x00" * 32,
                                   b"\xff" * 32]
    # INT64_MIN attacker index: `idx - bound` overflows, so a naive
    # sar64(idx - bound) mask would disagree with the branch's SF^OF
    # semantics and silently clamp an architecturally-taken path — the
    # overflow-exact predicate must reproduce the vanilla wild access.
    inputs.append(b"\x00" * 7 + b"\x80" + b"\x00" * 8)
    for data in inputs:
        assert _run_signature(base, data) == _run_signature(hardened, data), (
            strategy, data[:8])


@pytest.mark.parametrize("strategy", ("fence", "mask", "fence-all"))
def test_hardening_is_deterministic(strategy, gadget_sites):
    def build():
        module = _fresh_module()
        harden_module(module, strategy, gadget_sites)
        binary = reassemble(module)
        return {name: section.data for name, section in binary.sections.items()}
    assert build() == build()
