"""Deterministic cycle-cost model for TVM execution.

The paper's Figures 1 and 7 report *normalized run time* — instrumented
execution time divided by native execution time on the same machine.  This
reproduction replaces wall-clock time with a deterministic cycle model so
the benchmarks are reproducible and machine-independent, while preserving
the structural sources of overhead the paper attributes the results to:

* every architectural instruction costs a small constant,
* every instrumentation pseudo-op costs the length of the assembly snippet
  the paper's runtime library would emit for it (checkpointing all
  registers is expensive, a guard ``if (in_simulation)`` check is cheap but
  ubiquitous, per-instruction DIFT propagation is costlier than the
  per-block batched variant, ...),
* rollbacks cost a base amount plus work proportional to the memory log,
* SpecTaint pays a per-instruction *emulation multiplier* modelling DECAF /
  QEMU dynamic binary translation plus whole-system taint tracking, which
  is what makes it an order of magnitude slower than the compiler-based
  approach (paper §3.1).

The exact constants are calibration parameters, documented here and swept
by the ablation benchmarks; the paper-facing claims (who is faster, by
roughly what factor) are robust to them because they stem from *counts* of
executed instrumentation, which the instrumentation structure dictates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.isa.instructions import Opcode


def _default_opcode_costs() -> Dict[Opcode, int]:
    costs = {op: 1 for op in Opcode}
    costs.update(
        {
            # architectural
            Opcode.LOAD: 2,
            Opcode.STORE: 2,
            Opcode.PUSH: 2,
            Opcode.POP: 2,
            Opcode.MUL: 3,
            Opcode.DIV: 10,
            Opcode.MOD: 10,
            Opcode.CALL: 3,
            Opcode.ICALL: 4,
            Opcode.IJMP: 3,
            Opcode.RET: 3,
            Opcode.ECALL: 5,
            Opcode.CPUID: 20,
            Opcode.LFENCE: 10,
            # instrumentation pseudo-ops (snippet lengths, paper §6.1/6.2)
            Opcode.CHECKPOINT: 34,       # pack & spill GPRs + flags + pc
            Opcode.TRAMP_JCC: 1,
            Opcode.ASAN_CHECK: 5,        # shadow address compute + test + branch
            Opcode.MEMLOG: 6,            # read old value + append to log
            Opcode.DIFT_PROP: 8,         # per-instruction tag transfer + tag log
            Opcode.DIFT_BATCH: 2,        # per-block optimised snippet (plus per-op term)
            Opcode.POLICY_LOAD: 10,      # attacker-tag test + ASan + secret promotion
            Opcode.POLICY_STORE: 6,
            Opcode.POLICY_BRANCH: 4,     # FLAGS-operand secret test
            Opcode.RESTORE_COND: 3,      # instruction-counter check
            Opcode.RESTORE_ALWAYS: 2,
            Opcode.SPEC_REDIRECT: 2,     # in_simulation test + jump
            Opcode.MARKER_NOP: 1,
            Opcode.GUARD_CHECK: 2,       # load in_simulation flag + test + branch
            Opcode.COV_TRACE: 6,         # call into coverage runtime (clobbers regs)
            Opcode.COV_SPEC: 2,          # lazy guard-ID note (paper §6.3 optimisation)
            Opcode.TAINT_SOURCE: 5,
        }
    )
    return costs


@dataclass
class CostModel:
    """Cycle costs for architectural and instrumentation operations."""

    opcode_costs: Dict[Opcode, int] = field(default_factory=_default_opcode_costs)
    #: additional per-architectural-instruction multiplier (1 = no overhead);
    #: SpecTaint uses ~50 to model full-system emulation with DIFT.
    emulation_multiplier: int = 1
    #: fixed cost of performing a rollback.
    rollback_base: int = 40
    #: per-memory-log-entry cost during rollback.
    rollback_per_entry: int = 2
    #: fixed cost of an external (libc stand-in) call.
    external_base: int = 20
    #: per-byte cost of bulk externals (memcpy/memset/input reads).
    external_per_byte: int = 1

    def instruction_cost(self, opcode: Opcode) -> int:
        """Cost of executing one instruction of the given opcode."""
        base = self.opcode_costs.get(opcode, 1)
        if opcode in _ARCHITECTURAL_FOR_MULTIPLIER and self.emulation_multiplier > 1:
            return base * self.emulation_multiplier
        return base

    def rollback_cost(self, memlog_entries: int) -> int:
        """Cost of a rollback that must undo ``memlog_entries`` logged writes."""
        return self.rollback_base + self.rollback_per_entry * memlog_entries

    def external_cost(self, byte_count: int = 0) -> int:
        """Cost of an external call moving ``byte_count`` bytes."""
        return self.external_base + self.external_per_byte * byte_count

    def scaled(self, emulation_multiplier: int) -> "CostModel":
        """A copy of this model with a different emulation multiplier."""
        return CostModel(
            opcode_costs=dict(self.opcode_costs),
            emulation_multiplier=emulation_multiplier,
            rollback_base=self.rollback_base,
            rollback_per_entry=self.rollback_per_entry,
            external_base=self.external_base,
            external_per_byte=self.external_per_byte,
        )


#: Opcodes subject to the emulation multiplier (architectural work that a
#: full-system emulator must translate and instrument one by one).
_ARCHITECTURAL_FOR_MULTIPLIER = frozenset(
    op for op in Opcode
    if op
    not in {
        Opcode.CHECKPOINT,
        Opcode.TRAMP_JCC,
        Opcode.ASAN_CHECK,
        Opcode.MEMLOG,
        Opcode.DIFT_PROP,
        Opcode.DIFT_BATCH,
        Opcode.POLICY_LOAD,
        Opcode.POLICY_STORE,
        Opcode.POLICY_BRANCH,
        Opcode.RESTORE_COND,
        Opcode.RESTORE_ALWAYS,
        Opcode.SPEC_REDIRECT,
        Opcode.MARKER_NOP,
        Opcode.GUARD_CHECK,
        Opcode.COV_TRACE,
        Opcode.COV_SPEC,
        Opcode.TAINT_SOURCE,
    }
)

#: The default cost model used by native and Teapot/SpecFuzz executions.
DEFAULT_COSTS = CostModel()

#: Emulation multiplier used for the SpecTaint baseline (QEMU/DECAF model).
SPECTAINT_EMULATION_MULTIPLIER = 150
