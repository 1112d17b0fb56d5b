"""Shadow-Copy and Real-Copy instrumentation passes (paper §6.1, §6.2, §6.3).

Thanks to Speculation Shadows, every pass below can put its instrumentation
only where it is needed — ASan/policy checks, memory logging, per-instruction
tag propagation and restore points go exclusively into the Shadow Copy,
while the Real Copy receives only the cheap batched tag propagation and the
coverage trace at conditional branches.  No ``if (in_simulation)`` guards
are emitted anywhere (contrast with the SpecFuzz baseline rewriter in
:mod:`repro.baselines.specfuzz`).
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.core.config import TeapotConfig
from repro.core.shadows import is_shadow_function
from repro.disasm.ir import BasicBlock, Module
from repro.isa.instructions import (
    Instruction,
    Opcode,
    is_conditional_branch,
    is_pseudo,
    is_serializing,
)
from repro.isa.operands import Imm
from repro.rewriting.passes import RewritePass


def _access_info(instr: Instruction):
    """Return ``(mem, size, is_write)`` for an instrumentable data access.

    Stack push/pop and instructions without memory operands return ``None``;
    they are either implicitly frame-relative (allowlisted) or not data
    accesses at all.
    """
    if instr.opcode is Opcode.LOAD:
        return instr.operands[1], instr.size, False
    if instr.opcode is Opcode.STORE:
        return instr.operands[0], instr.size, True
    if instr.opcode is Opcode.IJMP:
        mem = instr.memory_operand()
        if mem is not None:
            return mem, 8, False
    return None


class AccessInstrumentationPass(RewritePass):
    """Kasper policy checks, ASan checks and memory logging in the Shadow Copy."""

    name = "access-instrumentation"

    def __init__(self, config: Optional[TeapotConfig] = None) -> None:
        super().__init__()
        self.config = config or TeapotConfig()

    def run(self, module: Module) -> None:
        for func in module.functions:
            if not is_shadow_function(func.name):
                continue
            for block in func.blocks:
                block.instructions = self._instrument_block(block.instructions)

    def _instrument_block(self, instructions: List[Instruction]) -> List[Instruction]:
        out: List[Instruction] = []
        for instr in instructions:
            if not is_pseudo(instr):
                access = _access_info(instr)
                if access is not None:
                    mem, size, is_write = access
                    allowlisted = (
                        self.config.allowlist_frame_accesses
                        and mem.is_frame_relative_constant
                    )
                    if not allowlisted:
                        opcode = Opcode.POLICY_STORE if is_write else Opcode.POLICY_LOAD
                        out.append(Instruction(opcode, [mem], size=size))
                        self.bump("policy_checks")
                    if is_write:
                        out.append(Instruction(Opcode.MEMLOG, [mem], size=size))
                        self.bump("memlogs")
                if is_conditional_branch(instr):
                    out.append(Instruction(Opcode.POLICY_BRANCH, []))
                    self.bump("branch_checks")
            out.append(instr)
        return out


class DiftInstrumentationPass(RewritePass):
    """Tag-propagation instrumentation (paper §6.2.2).

    Shadow Copy: a ``dift.prop`` snippet before every architectural
    instruction (propagation must stay synchronised with execution because
    the taint sinks are here).  Real Copy: one ``dift.batch`` snippet per
    basic block — the asynchronous, LLVM-optimised variant the paper
    describes, which only needs to be consistent at block granularity
    because the Real Copy contains no sinks.
    """

    name = "dift-instrumentation"

    def run(self, module: Module) -> None:
        for func in module.functions:
            shadow = is_shadow_function(func.name)
            for block in func.blocks:
                if shadow:
                    block.instructions = self._instrument_shadow(block.instructions)
                else:
                    self._instrument_real(block)

    def _instrument_shadow(self, instructions: List[Instruction]) -> List[Instruction]:
        out: List[Instruction] = []
        for instr in instructions:
            if not is_pseudo(instr) and instr.opcode is not Opcode.NOP:
                out.append(Instruction(Opcode.DIFT_PROP, []))
                self.bump("per_instruction_props")
            out.append(instr)
        return out

    def _instrument_real(self, block: BasicBlock) -> None:
        arch_count = sum(1 for i in block.instructions if not is_pseudo(i))
        if arch_count == 0:
            return
        block.instructions.insert(
            0, Instruction(Opcode.DIFT_BATCH, [Imm(arch_count)])
        )
        self.bump("batched_props")


class RestorePointPass(RewritePass):
    """Conditional and unconditional restore points (paper §6.1)."""

    name = "restore-points"

    def __init__(self, config: Optional[TeapotConfig] = None) -> None:
        super().__init__()
        self.config = config or TeapotConfig()

    def run(self, module: Module) -> None:
        for func in module.functions:
            if not is_shadow_function(func.name):
                continue
            for block in func.blocks:
                block.instructions = self._instrument_block(block.instructions)

    def _instrument_block(self, instructions: List[Instruction]) -> List[Instruction]:
        out: List[Instruction] = []
        since_restore = 0
        for instr in instructions:
            # Unconditional restore points: external calls and serializing
            # instructions terminate the simulation.
            if instr.opcode is Opcode.ECALL or is_serializing(instr):
                out.append(Instruction(Opcode.RESTORE_ALWAYS, []))
                self.bump("unconditional_restores")
                since_restore = 0
            out.append(instr)
            if not is_pseudo(instr):
                since_restore += 1
                if since_restore >= self.config.restore_interval:
                    out.append(Instruction(Opcode.RESTORE_COND, []))
                    self.bump("conditional_restores")
                    since_restore = 0
        # Conditional restore point near the end of every block.
        insert_at = len(out)
        if out and (out[-1].opcode in (Opcode.JMP, Opcode.JCC, Opcode.RET,
                                       Opcode.IJMP, Opcode.ICALL, Opcode.CALL,
                                       Opcode.HALT)):
            insert_at -= 1
        out.insert(insert_at, Instruction(Opcode.RESTORE_COND, []))
        self.bump("conditional_restores")
        return out


class CoveragePass(RewritePass):
    """Coverage tracing (paper §6.3).

    Normal coverage is traced at every conditional branch in the Real Copy;
    speculative coverage uses the cheap lazy ``cov.spec`` note at the start
    of every Shadow-Copy block (or the expensive ``cov.trace`` call when the
    lazy optimisation is disabled, which the ablation benchmark measures).
    """

    name = "coverage"

    def __init__(self, config: Optional[TeapotConfig] = None) -> None:
        super().__init__()
        self.config = config or TeapotConfig()
        self._guard_ids = itertools.count(1)

    def run(self, module: Module) -> None:
        if not self.config.coverage:
            return
        for func in module.functions:
            shadow = is_shadow_function(func.name)
            for block in func.blocks:
                if shadow:
                    opcode = (
                        Opcode.COV_SPEC
                        if self.config.lazy_spec_coverage
                        else Opcode.COV_TRACE
                    )
                    block.instructions.insert(
                        0, Instruction(opcode, [Imm(next(self._guard_ids))])
                    )
                    self.bump("speculative_guards")
                else:
                    self._trace_branches(block)

    def _trace_branches(self, block: BasicBlock) -> None:
        out: List[Instruction] = []
        for instr in block.instructions:
            if is_conditional_branch(instr):
                out.append(
                    Instruction(Opcode.COV_TRACE, [Imm(next(self._guard_ids))])
                )
                self.bump("normal_guards")
            out.append(instr)
        block.instructions = out
