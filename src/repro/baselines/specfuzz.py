"""SpecFuzz baseline: compiler-style single-copy instrumentation.

SpecFuzz (paper §2.2.1, §3.2, Listing 3) instruments the program during
compilation: normal-execution code and speculation-simulation code coexist
in a single copy, and every piece of simulation-only instrumentation —
ASan checks, memory logging, restore points — is wrapped in an
``if (in_simulation)`` guard that must be evaluated at run time on *every*
execution, normal or speculative.  That guard traffic is exactly the
overhead Speculation Shadows eliminates, and it is modelled here by
emitting an explicit ``guard.check`` pseudo-op (with its own cycle cost)
before each guarded instrumentation site.

Detection-wise SpecFuzz flags **every** speculative out-of-bounds access as
a gadget (no data-flow tracking), which reproduces its large
false-positive counts in the paper's Tables 3 and 4.

Although the real SpecFuzz requires source code, its instrumentation is
expressed here as a rewriting pipeline over the same IR so that both tools
see the exact same input program; the compile-time-vs-binary differences
the paper discusses (Figure 2) are modelled by the mini-C compiler's switch
lowering options instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.config import TeapotConfig, ToolConfig
from repro.core.teapot import InstrumentedRuntime, Rewriter
from repro.core.trampolines import TrampolinePass
from repro.disasm.ir import Module
from repro.isa.instructions import (
    Instruction,
    Opcode,
    is_pseudo,
    is_serializing,
)
from repro.isa.operands import Imm
from repro.rewriting.passes import PassManager, RewritePass
from repro.runtime.speculation import SpecFuzzNestingPolicy
from repro.sanitizers.policy import SpecFuzzPolicy
from repro.core.instrumentation import _access_info
from repro.plugins import DEFAULT_ENGINE


@dataclass
class SpecFuzzConfig(ToolConfig):
    """Knobs of the SpecFuzz baseline (kept close to Teapot's for fairness)."""

    rob_budget: int = 250
    nested_speculation: bool = True
    max_depth: int = 6
    ramp: int = 16
    restore_interval: int = 50
    coverage: bool = True
    allowlist_frame_accesses: bool = True
    max_steps: int = 5_000_000
    #: emulator engine ("jit", "fast" or "legacy"); results are
    #: engine-invariant.
    engine: str = DEFAULT_ENGINE
    #: speculation variants to simulate.  The real SpecFuzz is PHT-only;
    #: the model subsystem extends the baseline past the original tool.
    variants: Tuple[str, ...] = ("pht",)
    #: optional :class:`repro.telemetry.Telemetry` observer (see
    #: :class:`repro.core.config.TeapotConfig.telemetry`).
    telemetry: object = None


class MixedInstrumentationPass(RewritePass):
    """Single-copy instrumentation with per-site guards (paper Listing 3)."""

    name = "specfuzz-mixed-instrumentation"

    def __init__(self, config: SpecFuzzConfig) -> None:
        super().__init__()
        self.config = config
        self._guard_counter = 0

    def run(self, module: Module) -> None:
        for func in module.functions:
            for block in func.blocks:
                block.instructions = self._instrument_block(block.instructions)
        module.metadata["tool"] = "specfuzz"

    def _next_guard(self) -> int:
        self._guard_counter += 1
        return self._guard_counter

    def _instrument_block(self, instructions: List[Instruction]) -> List[Instruction]:
        out: List[Instruction] = []
        since_restore = 0
        if self.config.coverage:
            # SpecFuzz traces coverage with the full (expensive) callback in
            # every block, in both execution modes.
            out.append(Instruction(Opcode.COV_TRACE, [Imm(self._next_guard())]))
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
                        out.append(Instruction(Opcode.GUARD_CHECK, []))
                        out.append(
                            Instruction(Opcode.ASAN_CHECK,
                                        [mem, Imm(1 if is_write else 0)], size=size)
                        )
                        self.bump("guarded_asan_checks")
                    if is_write:
                        out.append(Instruction(Opcode.GUARD_CHECK, []))
                        out.append(Instruction(Opcode.MEMLOG, [mem], size=size))
                        self.bump("guarded_memlogs")
                if instr.opcode is Opcode.ECALL or is_serializing(instr):
                    out.append(Instruction(Opcode.GUARD_CHECK, []))
                    out.append(Instruction(Opcode.RESTORE_ALWAYS, []))
                    self.bump("guarded_unconditional_restores")
                    since_restore = 0
            out.append(instr)
            if not is_pseudo(instr):
                since_restore += 1
                if since_restore >= self.config.restore_interval:
                    out.append(Instruction(Opcode.GUARD_CHECK, []))
                    out.append(Instruction(Opcode.RESTORE_COND, []))
                    self.bump("guarded_conditional_restores")
                    since_restore = 0
        # Guarded conditional restore point near the end of every block.
        insert_at = len(out)
        if out and out[-1].opcode in (Opcode.JMP, Opcode.JCC, Opcode.RET,
                                      Opcode.IJMP, Opcode.ICALL, Opcode.CALL,
                                      Opcode.HALT):
            insert_at -= 1
        out.insert(insert_at, Instruction(Opcode.RESTORE_COND, []))
        out.insert(insert_at, Instruction(Opcode.GUARD_CHECK, []))
        self.bump("guarded_conditional_restores")
        return out


class SpecFuzzRewriter(Rewriter):
    """Static instrumentation pipeline for the SpecFuzz baseline."""

    tool_name = "specfuzz"
    config_type = SpecFuzzConfig

    def build_pass_manager(self) -> PassManager:
        """Mixed instrumentation followed by single-copy trampolines."""
        manager = PassManager()
        manager.add(MixedInstrumentationPass(self.config))
        teapot_like = TeapotConfig(nested_speculation=self.config.nested_speculation)
        manager.add(TrampolinePass(teapot_like, single_copy=True))
        return manager


@dataclass
class SpecFuzzRuntime(InstrumentedRuntime):
    """Runtime bundle for executing/fuzzing a SpecFuzz-instrumented binary."""

    config: SpecFuzzConfig = field(default_factory=SpecFuzzConfig)

    def build_nesting_policy(self):
        return SpecFuzzNestingPolicy(max_depth=self.config.max_depth,
                                     ramp=self.config.ramp)

    def build_detection_policy(self):
        return SpecFuzzPolicy()
