"""SpecTaint baseline: full-system-emulation-based detection.

SpecTaint (paper §2.2.2, §3.1) is the only prior binary-level detector.  It
needs **no static rewriting** — the program runs unmodified inside a
DECAF/QEMU emulator that (a) forces branch mispredictions dynamically,
(b) tracks taint for every instruction at the emulation layer, and
(c) reports a gadget whenever user-controlled data is loaded speculatively
and later dereferenced.  Those properties are modelled here by

* :class:`SpecTaintEmulator`, an :class:`~repro.runtime.emulator.Emulator`
  subclass that performs speculation entry, budget checks and policy sink
  checks itself (no instrumentation pseudo-ops in the binary), and
* a cost model with a large per-instruction *emulation multiplier*
  (``SPECTAINT_EMULATION_MULTIPLIER``) standing in for dynamic binary
  translation plus whole-system DIFT, which is what makes SpecTaint an
  order of magnitude slower than compiler-based instrumentation
  (paper Figure 1).

Its nested-speculation heuristic enters speculation for each branch at most
five times (paper §6.1), the root cause of the false negatives the paper
reports in §7.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import ToolConfig
from repro.coverage.sancov import CoverageRuntime
from repro.isa.instructions import Opcode
from repro.loader.binary_format import TelfBinary
from repro.runtime.costs import DEFAULT_COSTS, SPECTAINT_EMULATION_MULTIPLIER
from repro.runtime.emulator import Emulator, ExecutionResult
from repro.runtime.externals import ExternalRegistry
from repro.runtime.speculation import (
    DisabledNestingPolicy,
    SpecTaintNestingPolicy,
    SpeculationController,
)
from repro.sanitizers.policy import SpecTaintPolicy


@dataclass
class SpecTaintConfig(ToolConfig):
    """Configuration of the SpecTaint baseline."""

    rob_budget: int = 250
    nested_speculation: bool = True
    max_depth: int = 6
    #: per-branch speculation entries (SpecTaint stops after five).
    max_visits: int = 5
    #: per-instruction emulation cost multiplier (QEMU/DECAF model).
    emulation_multiplier: int = SPECTAINT_EMULATION_MULTIPLIER
    max_steps: int = 5_000_000


class SpecTaintEmulator(Emulator):
    """Emulator with dynamic (instrumentation-free) speculation simulation."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: branch address whose next encounter must not re-enter speculation
        #: (set right after a rollback so the branch can retire normally).
        self._skip_speculation_at: Optional[int] = None

    # -- speculation entry at conditional branches -------------------------------
    def _op_jcc(self, instr):
        controller = self.controller
        if controller is not None and instr.opcode is Opcode.JCC:
            address = instr.address
            if controller.in_simulation and controller.budget_exceeded():
                return self._rollback("budget")
            if self._skip_speculation_at == address:
                self._skip_speculation_at = None
            elif controller.maybe_enter(self.machine, branch_address=address,
                                        resume_pc=address, dift=self.dift):
                self._skip_speculation_at = address
                # Follow the *wrong* direction of the branch.
                if self.machine.flags.evaluate(instr.cc):
                    return self._next(instr)
                return self._branch_target(instr)
        return super()._op_jcc(instr)

    # -- taint sink checks on memory accesses --------------------------------------
    def _policy_access(self, instr, mem, is_write: bool) -> None:
        if (
            self.controller is not None
            and self.controller.in_simulation
            and self.policy is not None
            and mem is not None
        ):
            addr = self.machine.effective_address(mem)
            promoted = self.policy.on_speculative_access(
                instr, mem, addr, instr.size, is_write, self.machine, self.controller
            )
            if promoted:
                self._pending_promotion |= promoted

    def _op_load(self, instr):
        self._policy_access(instr, instr.operands[1], is_write=False)
        return super()._op_load(instr)

    def _op_store(self, instr):
        self._policy_access(instr, instr.operands[0], is_write=True)
        return super()._op_store(instr)

    def _rollback(self, reason: str, charge: bool = True) -> int:
        # Every rollback the emulator performs (budget, fault, and the
        # inherited handlers' forced ones at externals, serializing
        # instructions, halts and exit-sentinel returns) pays the recovery
        # cost, and the branch it resumes at retires before speculation may
        # start there again.
        pc = super()._rollback(reason)
        self._skip_speculation_at = pc
        return pc


@dataclass
class SpecTaintAnalyzer:
    """Runtime bundle for analysing an *unmodified* binary with SpecTaint."""

    binary: TelfBinary
    config: SpecTaintConfig = field(default_factory=SpecTaintConfig)
    externals: Optional[ExternalRegistry] = None

    def __post_init__(self) -> None:
        if self.config.nested_speculation:
            policy = SpecTaintNestingPolicy(max_visits=self.config.max_visits,
                                            max_depth=self.config.max_depth)
        else:
            policy = DisabledNestingPolicy()
        self.controller = SpeculationController(policy, rob_budget=self.config.rob_budget)
        self.detection_policy = SpecTaintPolicy()
        self.coverage = CoverageRuntime()
        self.cost_model = DEFAULT_COSTS.scaled(self.config.emulation_multiplier)
        self.emulator = SpecTaintEmulator(
            self.binary,
            externals=self.externals,
            cost_model=self.cost_model,
            controller=self.controller,
            policy=self.detection_policy,
            coverage=self.coverage,
            max_steps=self.config.max_steps,
        )

    def run(self, input_data: bytes, argv=None) -> ExecutionResult:
        """Analyse one input."""
        return self.emulator.run(input_data, argv=argv)
