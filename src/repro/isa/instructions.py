"""Instruction definitions and semantic metadata for the TVM ISA.

An :class:`Instruction` is a mnemonic (:class:`Opcode`) plus a list of
operands and a small amount of metadata (access size for loads/stores,
condition code for conditional branches).

Two opcode families exist:

* **architectural opcodes** — what a compiler emits and a CPU executes:
  data movement, ALU, compares, control flow, and a handful of "system"
  instructions (``lfence``, ``cpuid``, ``halt``, ``ecall``).
* **instrumentation pseudo-opcodes** — what Teapot's (and the baselines')
  rewriting passes insert.  In the paper these are calls into a runtime
  support library written in C and assembly; here each pseudo-op is executed
  by the emulator's runtime and carries a documented *cycle cost* equal to
  the instruction count of the snippet the paper's runtime would emit, so
  that run-time comparisons between tools reflect the same structural
  overheads (see :mod:`repro.runtime.costs`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.isa.operands import Imm, Label, Mem, Operand, Reg


class Opcode(enum.Enum):
    """All TVM opcodes (architectural and instrumentation pseudo-ops)."""

    # -- data movement ----------------------------------------------------
    MOV = "mov"          # mov rd, rs|imm|label
    LOAD = "load"        # load rd, [mem]          (size 1/2/4/8)
    STORE = "store"      # store [mem], rs|imm     (size 1/2/4/8)
    LEA = "lea"          # lea rd, [mem]
    PUSH = "push"        # push rs|imm
    POP = "pop"          # pop rd

    # -- ALU (two-operand, dest = dest OP src; sets ZF/SF/CF/OF) ----------
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    SAR = "sar"
    NOT = "not"
    NEG = "neg"

    # -- compares (set flags only) ----------------------------------------
    CMP = "cmp"
    TEST = "test"

    # -- control flow ------------------------------------------------------
    JMP = "jmp"          # jmp label
    JCC = "jcc"          # j<cc> label
    CALL = "call"        # call label
    ICALL = "icall"      # icall rs          (indirect call through register)
    IJMP = "ijmp"        # ijmp rs|[mem]     (indirect jump; jump tables)
    RET = "ret"

    # -- system -------------------------------------------------------------
    NOP = "nop"
    LFENCE = "lfence"    # serializing: terminates speculation
    CPUID = "cpuid"      # serializing: terminates speculation
    HALT = "halt"        # terminate the program
    ECALL = "ecall"      # call external/runtime function (import index)

    # -- instrumentation pseudo-ops (inserted by rewriters) ----------------
    CHECKPOINT = "checkpoint"        # Real Copy: checkpoint + enter trampoline
    TRAMP_JCC = "tramp.jcc"          # trampoline conditional jump (shadow target)
    ASAN_CHECK = "asan.check"        # Shadow Copy: shadow-memory validity check
    MEMLOG = "memlog"                # Shadow Copy: log original contents of a store
    DIFT_PROP = "dift.prop"          # Shadow Copy: per-instruction tag propagation
    DIFT_BATCH = "dift.batch"        # Real Copy: batched per-block tag propagation
    POLICY_LOAD = "policy.load"      # Shadow Copy: Kasper policy checks before a load
    POLICY_STORE = "policy.store"    # Shadow Copy: Kasper policy checks before a store
    POLICY_BRANCH = "policy.branch"  # Shadow Copy: port-contention sink check
    RESTORE_COND = "restore.cond"    # Shadow Copy: conditional restore point
    RESTORE_ALWAYS = "restore.always"  # Shadow Copy: unconditional restore point
    SPEC_REDIRECT = "spec.redirect"  # Real Copy marker block: redirect into shadow
    MARKER_NOP = "marker.nop"        # Real Copy: special marker nop (escape targets)
    GUARD_CHECK = "guard.check"      # baseline: 'if (in_simulation)' guard cost
    COV_TRACE = "cov.trace"          # normal-execution coverage trace
    COV_SPEC = "cov.spec"            # speculative coverage note (lazy flush)
    TAINT_SOURCE = "taint.source"    # mark a buffer as attacker controlled


class ConditionCode(enum.Enum):
    """Condition codes for ``jcc`` (mirroring x86 semantics on TVM flags)."""

    EQ = "e"    # ZF
    NE = "ne"   # !ZF
    LT = "l"    # SF != OF        (signed <)
    LE = "le"   # ZF or SF != OF  (signed <=)
    GT = "g"    # !ZF and SF == OF
    GE = "ge"   # SF == OF
    B = "b"     # CF              (unsigned <)
    BE = "be"   # CF or ZF
    A = "a"     # !CF and !ZF
    AE = "ae"   # !CF

    def negate(self) -> "ConditionCode":
        """The condition taken exactly when this one is not."""
        return _NEGATIONS[self]


_NEGATIONS = {
    ConditionCode.EQ: ConditionCode.NE,
    ConditionCode.NE: ConditionCode.EQ,
    ConditionCode.LT: ConditionCode.GE,
    ConditionCode.GE: ConditionCode.LT,
    ConditionCode.LE: ConditionCode.GT,
    ConditionCode.GT: ConditionCode.LE,
    ConditionCode.B: ConditionCode.AE,
    ConditionCode.AE: ConditionCode.B,
    ConditionCode.BE: ConditionCode.A,
    ConditionCode.A: ConditionCode.BE,
}

#: Opcodes that read memory.
LOAD_OPCODES = frozenset({Opcode.LOAD, Opcode.POP})
#: Opcodes that write memory.
STORE_OPCODES = frozenset({Opcode.STORE, Opcode.PUSH})
#: Architectural opcodes that transfer control.
CONTROL_FLOW_OPCODES = frozenset(
    {Opcode.JMP, Opcode.JCC, Opcode.CALL, Opcode.ICALL, Opcode.IJMP, Opcode.RET,
     Opcode.HALT}
)
#: Opcodes whose target cannot be resolved statically.
INDIRECT_OPCODES = frozenset({Opcode.ICALL, Opcode.IJMP, Opcode.RET})
#: Serializing instructions: speculation cannot proceed past them.
SERIALIZING_OPCODES = frozenset({Opcode.LFENCE, Opcode.CPUID})
#: Instrumentation pseudo-opcodes.
PSEUDO_OPCODES = frozenset(
    {
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
#: ALU opcodes that write a destination register and set flags.
ALU_OPCODES = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.DIV,
        Opcode.MOD,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.SAR,
        Opcode.NOT,
        Opcode.NEG,
    }
)
#: Opcodes that update the flags register.
FLAG_SETTING_OPCODES = ALU_OPCODES | {Opcode.CMP, Opcode.TEST}


@dataclass
class Instruction:
    """A single TVM instruction.

    Attributes:
        opcode: the instruction's :class:`Opcode`.
        operands: operand list; layout depends on the opcode.
        size: access width in bytes for loads/stores (1, 2, 4 or 8).
        cc: condition code for ``jcc``/``tramp.jcc``.
        address: absolute address once placed by the assembler/loader
            (``None`` at the assembly level).
        length: encoded length in bytes once encoded.
        comment: free-form annotation carried through assembly printing.
    """

    opcode: Opcode
    operands: List[Operand] = field(default_factory=list)
    size: int = 8
    cc: Optional[ConditionCode] = None
    address: Optional[int] = None
    length: Optional[int] = None
    comment: str = ""

    def __post_init__(self) -> None:
        if self.size not in (1, 2, 4, 8):
            raise ValueError(f"invalid access size {self.size}")
        if self.opcode in (Opcode.JCC, Opcode.TRAMP_JCC) and self.cc is None:
            raise ValueError(f"{self.opcode.value} requires a condition code")

    # -- operand accessors -------------------------------------------------
    @property
    def dest(self) -> Optional[Operand]:
        """Destination operand for register-writing instructions."""
        if self.opcode in (Opcode.MOV, Opcode.LOAD, Opcode.LEA, Opcode.POP) or (
            self.opcode in ALU_OPCODES
        ):
            return self.operands[0] if self.operands else None
        return None

    @property
    def target(self) -> Optional[Operand]:
        """Branch/call target operand, if any."""
        if self.opcode in (Opcode.JMP, Opcode.JCC, Opcode.CALL, Opcode.TRAMP_JCC,
                           Opcode.SPEC_REDIRECT, Opcode.CHECKPOINT):
            return self.operands[0] if self.operands else None
        if self.opcode in (Opcode.ICALL, Opcode.IJMP):
            return self.operands[0] if self.operands else None
        return None

    def memory_operand(self) -> Optional[Mem]:
        """The memory operand accessed by this instruction, if any."""
        for op in self.operands:
            if isinstance(op, Mem):
                return op
        return None

    def labels(self) -> Tuple[Label, ...]:
        """All symbolic label references appearing in the operands."""
        found = []
        for op in self.operands:
            if isinstance(op, Label):
                found.append(op)
            elif isinstance(op, Mem) and isinstance(op.disp, Label):
                found.append(op.disp)
        return tuple(found)

    def copy(self, **changes) -> "Instruction":
        """A shallow copy with ``changes`` applied (operands list duplicated)."""
        dup = replace(self, **changes)
        if "operands" not in changes:
            dup.operands = list(self.operands)
        return dup

    # -- pretty printing ----------------------------------------------------
    def mnemonic(self) -> str:
        """Assembly mnemonic (including condition code / size suffix)."""
        if self.opcode is Opcode.JCC:
            return f"j{self.cc.value}"
        if self.opcode is Opcode.TRAMP_JCC:
            return f"tramp.j{self.cc.value}"
        if self.opcode in (Opcode.LOAD, Opcode.STORE) and self.size != 8:
            return f"{self.opcode.value}.{self.size}"
        return self.opcode.value

    def __str__(self) -> str:
        ops = ", ".join(str(op) for op in self.operands)
        text = f"{self.mnemonic()} {ops}".rstrip()
        if self.comment:
            text = f"{text}  ; {self.comment}"
        return text


# --------------------------------------------------------------------------
# Predicates used throughout the rewriting and runtime packages.
# --------------------------------------------------------------------------

def is_load(instr: Instruction) -> bool:
    """Whether ``instr`` reads data memory."""
    if instr.opcode in LOAD_OPCODES:
        return True
    return instr.opcode is Opcode.IJMP and instr.memory_operand() is not None


def is_store(instr: Instruction) -> bool:
    """Whether ``instr`` writes data memory."""
    return instr.opcode in STORE_OPCODES


def is_memory_access(instr: Instruction) -> bool:
    """Whether ``instr`` reads or writes data memory."""
    return is_load(instr) or is_store(instr)


def is_control_flow(instr: Instruction) -> bool:
    """Whether ``instr`` is an architectural control-flow transfer."""
    return instr.opcode in CONTROL_FLOW_OPCODES


def is_branch(instr: Instruction) -> bool:
    """Whether ``instr`` is a (conditional or unconditional) branch."""
    return instr.opcode in (Opcode.JMP, Opcode.JCC, Opcode.IJMP)


def is_conditional_branch(instr: Instruction) -> bool:
    """Whether ``instr`` is a conditional branch (a misprediction victim)."""
    return instr.opcode is Opcode.JCC


def is_call(instr: Instruction) -> bool:
    """Whether ``instr`` is a direct or indirect call."""
    return instr.opcode in (Opcode.CALL, Opcode.ICALL, Opcode.ECALL)


def is_indirect_control_flow(instr: Instruction) -> bool:
    """Whether ``instr``'s target cannot be resolved statically."""
    return instr.opcode in INDIRECT_OPCODES


def is_serializing(instr: Instruction) -> bool:
    """Whether ``instr`` terminates speculative execution (lfence/cpuid)."""
    return instr.opcode in SERIALIZING_OPCODES


def is_pseudo(instr: Instruction) -> bool:
    """Whether ``instr`` is an instrumentation pseudo-op."""
    return instr.opcode in PSEUDO_OPCODES


def falls_through(instr: Instruction) -> bool:
    """Whether execution can continue to the next sequential instruction."""
    if instr.opcode in (Opcode.JMP, Opcode.IJMP, Opcode.RET, Opcode.HALT):
        return False
    return True


# --------------------------------------------------------------------------
# Convenience constructors (heavily used by the code generator and passes).
# --------------------------------------------------------------------------

def mov(dst: Reg, src) -> Instruction:
    """``mov dst, src`` where ``src`` is a register, immediate or label."""
    return Instruction(Opcode.MOV, [dst, _as_operand(src)])


def load(dst: Reg, mem: Mem, size: int = 8) -> Instruction:
    """``load.<size> dst, [mem]``."""
    return Instruction(Opcode.LOAD, [dst, mem], size=size)


def store(mem: Mem, src, size: int = 8) -> Instruction:
    """``store.<size> [mem], src``."""
    return Instruction(Opcode.STORE, [mem, _as_operand(src)], size=size)


def lea(dst: Reg, mem: Mem) -> Instruction:
    """``lea dst, [mem]``."""
    return Instruction(Opcode.LEA, [dst, mem])


def alu(opcode: Opcode, dst: Reg, src) -> Instruction:
    """Two-operand ALU instruction ``dst = dst OP src``."""
    if opcode not in ALU_OPCODES:
        raise ValueError(f"{opcode} is not an ALU opcode")
    if opcode in (Opcode.NOT, Opcode.NEG):
        return Instruction(opcode, [dst])
    return Instruction(opcode, [dst, _as_operand(src)])


def cmp(a, b) -> Instruction:
    """``cmp a, b`` (sets flags for a subsequent conditional branch)."""
    return Instruction(Opcode.CMP, [_as_operand(a), _as_operand(b)])


def test(a, b) -> Instruction:
    """``test a, b``."""
    return Instruction(Opcode.TEST, [_as_operand(a), _as_operand(b)])


def jmp(target) -> Instruction:
    """``jmp target``."""
    return Instruction(Opcode.JMP, [_as_label(target)])


def jcc(cc: ConditionCode, target) -> Instruction:
    """``j<cc> target``."""
    return Instruction(Opcode.JCC, [_as_label(target)], cc=cc)


def call(target) -> Instruction:
    """``call target``."""
    return Instruction(Opcode.CALL, [_as_label(target)])


def icall(target: Reg) -> Instruction:
    """``icall reg`` — indirect call through a register."""
    return Instruction(Opcode.ICALL, [target])


def ijmp(target) -> Instruction:
    """``ijmp reg|[mem]`` — indirect jump (e.g. through a jump table)."""
    return Instruction(Opcode.IJMP, [target])


def ret() -> Instruction:
    """``ret``."""
    return Instruction(Opcode.RET)


def push(src) -> Instruction:
    """``push src``."""
    return Instruction(Opcode.PUSH, [_as_operand(src)])


def pop(dst: Reg) -> Instruction:
    """``pop dst``."""
    return Instruction(Opcode.POP, [dst])


def ecall(name) -> Instruction:
    """``ecall name`` — call an external (imported) runtime function."""
    return Instruction(Opcode.ECALL, [_as_label(name)])


def nop() -> Instruction:
    """``nop``."""
    return Instruction(Opcode.NOP)


def halt() -> Instruction:
    """``halt`` — terminate the program."""
    return Instruction(Opcode.HALT)


def lfence() -> Instruction:
    """``lfence`` — serializing barrier."""
    return Instruction(Opcode.LFENCE)


def _as_operand(value) -> Operand:
    if isinstance(value, (Reg, Imm, Mem, Label)):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Imm(value)
    if isinstance(value, str):
        return Label(value)
    raise TypeError(f"cannot convert {value!r} to an operand")


def _as_label(value) -> Operand:
    if isinstance(value, (Label, Reg)):
        return value
    if isinstance(value, str):
        return Label(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Imm(value)
    raise TypeError(f"cannot convert {value!r} to a branch target")
