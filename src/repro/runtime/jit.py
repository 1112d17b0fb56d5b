"""The compiled emulator engines: one instruction semantics as generated source.

:class:`JitEmulator` compiles the decoded program into generated Python
functions: operand decoding, effective-address arithmetic, cycle costs,
DIFT tag propagation, memory-journal undo-logging and the speculation
hooks (nesting gates, policy fast paths) are emitted as source text with
every constant folded to a literal, then ``compile()``d and ``exec``d.
The emitters of :class:`_BlockCompiler` are the only compiled semantics
of each instruction; they produce two kinds of function from the same
code:

* **Blocks.**  Each basic block (and straight-line superblock) of up to
  ``max_block`` instructions becomes one function, compiled once per
  binary as a code object of its own, so a cold build never holds more
  than one block's syntax tree.  Only blocks that some dispatch can
  reach are compiled (``_BlockCompiler.reachable_blocks``).  Executing
  a block is one dict lookup and one call for *n* instructions instead
  of *n* of each.
* **Single-instruction functions.**  The same compiler run with a cap of
  one instruction.  The dispatch loop steps through them wherever no
  whole block applies: at addresses that start no block, and at the fuel
  gate.  They are compiled on first dispatch, not up front.

The ``fast`` engine (:class:`repro.runtime.fastpath.FastEmulator`) is this
engine at a block cap of one: it dispatches single-instruction functions
only.

Bit-identity with the legacy reference interpreter (enforced by
``tests/runtime/differential.py``) is preserved by construction:

* **Legacy handlers at intricate sites.**  Any instruction the compiler
  does not inline (indirect control flow, ``ecall`` with an unresolvable
  import, div/mod/not/neg, ``halt``, taint sources, speculation-model
  source sites, unresolvable operands) is an *ender*: it ends its block,
  and its single-instruction function wraps the legacy handler
  (:meth:`JitEmulator._make_fallback`), so intricate semantics keep
  exactly one implementation.  Direct calls and returns *are* inlined
  (as block terminators) unless a speculation model claims them as
  source sites.
* **Batched-but-exact accounting.**  Step/cycle/arch counters and the
  controller's in-simulation counts (the ROB count and
  ``simulated_instructions``) are accumulated per block segment and
  flushed before every block exit and the fuel check in front of a
  tail-called ender.  A checkpoint entry or a rollback budget check
  flushes only what it reads — the steps and the ROB count — and
  leaves the rest pending across the episode.  Instructions that can
  merely *fault* (loads, stores, push/pop) or call out (policy/coverage
  hooks) do not flush; instead each such site stores a fault-table
  index, and a per-block ``except BaseException`` handler flushes the
  exact pending prefix (a precomputed ``(steps, cycles, arch, rob)``
  tuple) before re-raising — so at every observable point (faults,
  rollbacks, checkpoint entries, run end) the counters equal the legacy
  engine's per-instruction sums.
* **Simulation-specialized variants.**  A function comes in two
  variants: a *no-sim* variant (dispatched while no checkpoint is live)
  with all journal undo-logging, speculation bookkeeping and policy
  hooks constant-folded away, and a *sim* variant (dispatched inside
  speculation) with the ``in-simulation?`` tests folded to true —
  journal appends unguarded, instruction counts batched.  The dispatch
  loop re-selects the variant on every iteration from the controller's
  live-checkpoint list.  A rollback exits the function, and a checkpoint
  entry runs its whole episode as a call that returns at the depth it
  started from, so the folded truth value can never go stale.  In a
  binary with Speculation Shadows each block is compiled only in the
  mode its copy runs in (Real Copy no-sim, Shadow Copy sim, marker nops
  both); see ``_BlockCompiler._leader_modes``.
* **Episodes as calls.**  An accepted checkpoint entry evaluates its
  folded trampoline inline, re-enters the engine's one dispatch loop
  until its checkpoint is rolled back, and resumes the block right after
  the checkpoint (``_BlockCompiler._emit_episode``), so neither resume
  points nor trampolines need blocks of their own.  Fuel, exit and crash
  end the run from any depth through :class:`_RunEnd`.
* **Episode bookkeeping without controller calls.**  A built-in nesting
  gate pushes its checkpoint inline (``_emit_checkpoint``), and every
  compiled rollback site calls the function ``Emulator._bind_rollbacks``
  bound once per (reason, charged) pair: the controller's
  ``rollback_function``, the one rollback sequence of every engine,
  which also flushes the speculative coverage notes and charges the
  rollback's cycles.
* **One page split per guest access.**  A guest byte and its DIFT
  shadow byte share the in-page offset (the tag flip bit is a multiple
  of the page size), so one in-page test serves the tag and the data
  access (``_BlockCompiler._emit_split``).
* **Fuel gate.**  A block of ``n`` steps only runs when ``steps + n <=
  max_steps``; otherwise the loop steps single-instruction functions, so
  fuel expiry lands on exactly the same instruction as the legacy
  engine.  The limit is bound at install (``FUEL``), not compiled in, so
  emulators that differ only in ``max_steps`` share one module.

The block module, the tuple of per-block code objects, is persistently
cached across processes by :mod:`repro.runtime.jitcache`, keyed by
(binary hash, repro version, engine-options digest, bytecode magic);
single-instruction functions are memoized per process under the same
key.  See ``docs/emulator.md``.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.isa.instructions import ConditionCode, Instruction, Opcode
from repro.isa.operands import Imm, Mem, Reg
from repro.loader.serialize import dumps_binary
from repro.plugins import register_engine
from repro.runtime.emulator import (
    EXIT_SENTINEL,
    Emulator,
    ExecutionResult,
    _PSEUDO_SET,
)
from repro.runtime.errors import (
    ArithmeticFault,
    MemoryFault,
    ProgramCrash,
    ProgramExit,
)
from repro.runtime.jitcache import shared_cache
from repro.runtime.machine import MASK64, to_signed, to_unsigned
from repro.runtime.speculation import (
    DisabledNestingPolicy,
    JournalCheckpoint,
    JournalingSpeculationController,
    SpecFuzzNestingPolicy,
    TeapotNestingPolicy,
)
from repro.sanitizers.dift import ALL_TAGS, TAG_ANY_SECRET
from repro.sanitizers.policy import noop_conditions

#: bump to invalidate every cached module when the emitted code or the
#: set of compiled blocks changes.
_CODEGEN_VERSION = 24

#: nesting depth up to which an accepted entry runs its episode in place
#: (each level nests two Python frames: the gate's block and the loop).
_INPLACE_DEPTH = 64

SIGN_BIT = 1 << 63
TWO64 = 1 << 64

SP_IDX = 14
RET_IDX = 0

#: Width-specific page accessors: ``struct`` unpack/pack beats an
#: ``int.from_bytes`` over a fresh slice (and a ``to_bytes`` slice
#: assignment) by 3-4x, and in-page accesses are guaranteed not to
#: cross the 4 KiB boundary, so the fixed-width forms always apply.
_UNPACKERS = {size: struct.Struct("<" + fmt).unpack_from
              for size, fmt in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))}
_PACKERS = {size: struct.Struct("<" + fmt).pack_into
            for size, fmt in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))}

#: two-operand ALU instructions with inlined flags computation.
_ALU_INLINE = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR,
    Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.SAR,
})

#: pseudo-ops whose only effect is their cycle cost.
_FREE_PSEUDOS = frozenset({
    Opcode.NOP, Opcode.MEMLOG, Opcode.DIFT_PROP, Opcode.DIFT_BATCH,
    Opcode.MARKER_NOP, Opcode.GUARD_CHECK,
})

#: inline instructions that overwrite *all four* architectural flags.
_FLAG_WRITER_OPS = _ALU_INLINE | {Opcode.CMP, Opcode.TEST}

#: inline instructions whose emitted code never reads the flags object
#: (data movement and stack traffic; faults are covered by the liveness
#: argument in ``_dead_flag_addrs``).
_FLAG_TRANSPARENT_OPS = frozenset({
    Opcode.MOV, Opcode.LEA, Opcode.LOAD, Opcode.STORE,
    Opcode.PUSH, Opcode.POP,
})

#: condition-code expressions over the hoisted ``f`` (flags) local;
#: mirrors ``Flags.evaluate``.
_CC_EXPR = {
    ConditionCode.EQ: "f.zero",
    ConditionCode.NE: "not f.zero",
    ConditionCode.LT: "f.sign != f.overflow",
    ConditionCode.GE: "f.sign == f.overflow",
    ConditionCode.LE: "(f.zero or f.sign != f.overflow)",
    ConditionCode.GT: "(not f.zero and f.sign == f.overflow)",
    ConditionCode.B: "f.carry",
    ConditionCode.AE: "not f.carry",
    ConditionCode.BE: "(f.carry or f.zero)",
    ConditionCode.A: "(not f.carry and not f.zero)",
}

#: nesting policies whose ``should_enter`` the compiler emits inline, by
#: exact type (a subclass may override ``should_enter``).
_NESTING_GATES = {
    TeapotNestingPolicy: "teapot",
    SpecFuzzNestingPolicy: "specfuzz",
    DisabledNestingPolicy: "disabled",
}

#: policy no-op conditions and the sanitizer each one reads.
_CONDITION_NEEDS = {
    "address_untainted": "needs_dift",
    "flags_not_secret": "needs_dift",
    "in_bounds": "needs_asan",
}

#: direct branches whose immediate targets become block leaders.
_BRANCH_OPS = (Opcode.JMP, Opcode.JCC, Opcode.CALL, Opcode.TRAMP_JCC,
               Opcode.CHECKPOINT, Opcode.SPEC_REDIRECT)


def _imm_target(instr: Instruction) -> Optional[int]:
    """Pre-resolved branch target of a direct branch, if any."""
    if instr.operands and isinstance(instr.operands[0], Imm):
        return to_unsigned(instr.operands[0].value)
    return None


def _ea_expr(mem: Mem) -> Optional[str]:
    """Source text of the effective address (``None`` while the
    displacement is still symbolic; the legacy handler raises the
    descriptive error for those)."""
    disp = mem.disp
    if not isinstance(disp, int):
        return None
    base = int(mem.base) if mem.base is not None else None
    index = int(mem.index) if mem.index is not None else None
    scale = mem.scale
    if base is not None and index is None:
        if disp == 0:
            return f"regs[{base}]"
        return f"(regs[{base}] + {disp}) & {MASK64}"
    if base is not None:
        return f"(regs[{base}] + regs[{index}] * {scale} + {disp}) & {MASK64}"
    if index is not None:
        return f"(regs[{index}] * {scale} + {disp}) & {MASK64}"
    return str(disp & MASK64)


def _const_ea(mem: Mem) -> Optional[int]:
    """The effective address when it is a constant (a global), else None."""
    if mem.base is None and mem.index is None and isinstance(mem.disp, int):
        return mem.disp & MASK64
    return None


def _val_expr(operand) -> Optional[str]:
    """Source text reading a Reg/Imm operand."""
    if isinstance(operand, Reg):
        return f"regs[{int(operand.reg)}]"
    if isinstance(operand, Imm):
        return str(to_unsigned(operand.value))
    return None


def _read_tag_range(m, addr: int, size: int, flip: int) -> int:
    """Equivalent of ``BinaryDift.get_mem_tag`` (generated code's ``RTR``).

    Fast path: when the range lives in one page, one dict lookup covers
    all its shadow bytes (the flip bit is a multiple of the page size, so
    an in-page range never straddles it).
    """
    pages = m.memory._pages
    sh = addr ^ flip
    off = sh & 4095
    if off + size <= 4096 and addr >= 0:
        page = pages.get(sh >> 12)
        if page is None:
            return 0
        tag = 0
        for byte in page[off:off + size]:
            tag |= byte
        return tag & ALL_TAGS
    tag = 0
    for i in range(size):
        sh = (addr + i) ^ flip
        page = pages.get(sh >> 12)
        if page is not None:
            tag |= page[sh & 4095]
    return tag & ALL_TAGS


def _write_tag_range(d, m, addr: int, size: int, tag: int, flip: int) -> None:
    """Equivalent of ``BinaryDift.set_mem_tag`` with taint logging
    (generated code's ``WTR``)."""
    pages = m.memory._pages
    controller = d.controller
    # the taint log, appended to directly (``log_taint_write``) in simulation
    log = (controller.taint_log
           if controller is not None and controller.checkpoints else None)
    tag &= 0xFF
    for off in range(size):
        sh = (addr + off) ^ flip
        page_id = sh >> 12
        page_off = sh & 4095
        page = pages.get(page_id)
        if page is None:
            page = bytearray(4096)
            pages[page_id] = page
        if log is not None:
            old = page[page_off]
            if old != tag:
                log.append((sh, old))
        page[page_off] = tag


#: a DIFT tag access as source lines: ``(in_page, other)`` (see
#: ``_BlockCompiler._emit_split``).
_TagLines = Tuple[List[str], List[str]]


def _rollback_name(reason: str, charge: bool) -> str:
    """Namespace name of the rollback function bound for a site kind."""
    return f"RB_{reason}" if charge else f"RB_{reason}_free"


def _fn_name(kind: str, addr: int, sim: bool) -> str:
    """Name of a generated function: ``kind`` is ``b`` (block) or ``i``
    (single instruction)."""
    return f"_{kind}{'s' if sim else 'n'}_{addr:x}"


class _BlockWriter:
    """Accumulates the body of one generated block function.

    One writer builds one *variant* of one block: ``sim=False`` is the
    no-checkpoint variant (journal and speculation bookkeeping folded
    away), ``sim=True`` the in-simulation variant (journal attached by
    invariant, instruction counts flushed to the controller).
    """

    def __init__(self, sim: bool) -> None:
        self.sim = sim
        self.lines: List[str] = []
        #: keyword parameters bound at module-exec time (name -> expr).
        self.params: Dict[str, str] = {}
        #: per-call hoists the body needs (regs, f, memory, jn, ...).
        self.uses: Set[str] = set()
        # pending (not yet emitted) counter contributions: steps, cycles,
        # architectural instructions (in the sim variant also the pending
        # ``simulated_instructions``) and, in the sim variant, the
        # instructions not yet in the controller's ROB count.
        self.pend_steps = 0
        self.pend_cycles = 0
        self.pend_arch = 0
        self.pend_rob = 0
        #: total steps the whole block consumes (the fuel-gate ``need``).
        self.total_steps = 0
        #: indentation of the statements being emitted (structured ifs).
        self.pad = ""
        #: exception-flush table: entry ``i`` is the pending
        #: ``(steps, cycles, arch, rob)`` at fault-site marker ``i``
        #: (entry 0 is the just-flushed sentinel).  Emitted as the ``_P``
        #: tuple.
        self.fault_entries: List[Tuple[int, int, int, int]] = [(0, 0, 0, 0)]
        #: static addresses the block hands to the dispatch loop: its
        #: ``return N`` exits, an episode's ``m.pc = N`` before ``RUN``
        #: and an ender tail's ``T[N]``
        #: (see ``_BlockCompiler.reachable_blocks``).
        self.exits: Set[int] = set()

    def emit(self, line: str) -> None:
        self.lines.append(self.pad + line)

    def goto(self, addr: int, pad: str = "") -> None:
        """Exit the block to the static address ``addr``."""
        self.exits.add(addr)
        self.emit(f"{pad}return {addr}")

    def resume_at(self, addr: int, pad: str = "") -> None:
        """Point the machine at ``addr`` for the dispatch loop (``RUN``)."""
        self.exits.add(addr)
        self.emit(f"{pad}m.pc = {addr}")

    def param(self, name: str, expr: str) -> None:
        self.params.setdefault(name, expr)

    def use(self, *names: str) -> None:
        self.uses.update(names)

    def account(self, cost: int, is_arch: bool) -> None:
        self.pend_steps += 1
        self.total_steps += 1
        self.pend_cycles += cost
        if is_arch:
            self.pend_arch += 1
            if self.sim:
                self.pend_rob += 1

    def mark(self) -> None:
        """Record a fault site: the next statements may raise.

        Stores the fault-table index of the current pending counters
        (including the instruction being emitted) into ``_e``; the
        block's ``except BaseException`` handler flushes ``_P[_e]``
        before re-raising, so counters are exact at every fault without
        a full flush on the non-faulting path.
        """
        entry = (self.pend_steps, self.pend_cycles, self.pend_arch,
                 self.pend_rob)
        self.fault_entries.append(entry)
        self.emit(f"_e = {len(self.fault_entries) - 1}")

    def _flush_lines(self, pad: str = "",
                     read_only: bool = False) -> List[str]:
        """The pending counter updates; ``read_only``: only the steps and
        the ROB count (see :meth:`flush_read`)."""
        lines: List[str] = []
        if self.pend_steps:
            self.param("STP", "STP")
            lines.append(f"{pad}STP[0] += {self.pend_steps}")
        if self.pend_rob:
            # count_instruction() n times, batched: the ROB half ...
            self.param("CTRL", "CTRL")
            lines.append(
                f"{pad}CTRL.spec_instruction_count += {self.pend_rob}")
        if read_only:
            return lines
        if self.pend_cycles:
            self.param("CYC", "CYC")
            lines.append(f"{pad}CYC[0] += {self.pend_cycles}")
        if self.pend_arch:
            self.param("ARC", "ARC")
            lines.append(f"{pad}ARC[0] += {self.pend_arch}")
            if self.sim:
                # ... and the statistics half.
                self.param("ST", "CTRL.stats")
                lines.append(
                    f"{pad}ST.simulated_instructions += {self.pend_arch}")
        return lines

    def flush(self) -> None:
        """Emit the pending counter updates and reset the fault marker.

        Required before every block exit (the dispatch loop reads the
        step cell, the run's end reads them all) and before the fuel
        check in front of an ender.  Batching is safe in between: nothing
        in a straight-line segment reads them, and simulation state
        cannot change without exiting the block (a checkpoint gate, which
        runs an episode in place, flushes what the episode reads first).
        """
        self.lines.extend(self._flush_lines(self.pad))
        self.pend_steps = self.pend_cycles = self.pend_arch = 0
        self.pend_rob = 0
        if len(self.fault_entries) > 1:
            # a stale marker from before this flush must not double-count
            self.emit("_e = 0")

    def flush_read(self) -> None:
        """Flush only what a checkpoint gate or a ROB-budget check reads.

        That is the steps (the fuel the episode and the fuel-fit test
        read) and, in the sim variant, the controller's ROB count (the
        budget test, and nested episodes' budget tests).  Cycles, the
        arch count and ``simulated_instructions`` stay pending until the
        next block exit; the exit arms in between flush them with
        :meth:`flush_exit`, and a fault marker keeps them exact when the
        run ends inside the episode.
        """
        self.lines.extend(self._flush_lines(self.pad, read_only=True))
        self.pend_steps = self.pend_rob = 0
        if self.pend_cycles or self.pend_arch:
            self.mark()
        elif len(self.fault_entries) > 1:
            self.emit("_e = 0")

    def flush_exit(self, pad: str = "    ") -> None:
        """Emit the pending updates inside a conditional exit arm.

        The arm returns immediately, so pending state is *not* cleared:
        the fall-through path keeps accumulating as if the arm did not
        exist (that is exactly the per-instruction sum).
        """
        self.lines.extend(self._flush_lines(self.pad + pad))

    def render(self, name: str) -> str:
        wrapped = len(self.fault_entries) > 1
        if wrapped:
            self.param("_P", repr(tuple(self.fault_entries)))
            self.param("STP", "STP")
            self.param("CYC", "CYC")
            self.param("ARC", "ARC")
            if self.sim:
                self.param("CTRL", "CTRL")
                self.param("ST", "CTRL.stats")
        uses = self.uses
        if uses & {"D", "rt", "cov", "pol", "asan"}:
            self.param("EM", "EM")
        params = ["m"] + [f"{key}={expr}" for key, expr in self.params.items()]
        head = f"def {name}({', '.join(params)}):"
        hoists = []
        if "regs" in uses:
            hoists.append("regs = m.registers")
        if "f" in uses:
            hoists.append("f = m.flags")
        if uses & {"memory", "pages", "fpg", "fpc"}:
            hoists.append("memory = m.memory")
        if "fpg" in uses:
            hoists.append("fpg = memory._fast_pages.get")
        if "fpc" in uses:
            hoists.append("fpc = memory._fast_ranges.get")
        if "pages" in uses:
            hoists.append("pages = memory._pages")
        if "jn" in uses:
            hoists.append("jn = m.journal")
        if uses & {"D", "rt"}:
            hoists.append("D = EM.dift")
        if "rt" in uses:
            hoists.append("rt = D.register_tags")
        if "cov" in uses:
            hoists.append("cov = EM.coverage")
        if "asan" in uses:
            hoists.append("asan = EM.asan")
        if "pol" in uses:
            hoists.append("pol = EM.policy")
        if not wrapped:
            body = hoists + self.lines
            return head + "\n" + "\n".join("    " + line for line in body)
        out = [head]
        out.extend("    " + line for line in hoists)
        out.append("    _e = 0")
        out.append("    try:")
        out.extend("        " + line for line in self.lines)
        out.append("    except BaseException:")
        out.append("        _t = _P[_e]")
        out.append("        STP[0] += _t[0]")
        out.append("        CYC[0] += _t[1]")
        out.append("        ARC[0] += _t[2]")
        if self.sim:
            out.append("        ST.simulated_instructions += _t[2]")
            out.append("        CTRL.spec_instruction_count += _t[3]")
        out.append("        raise")
        return "\n".join(out)


class _BlockCompiler:
    """Generates the block module source for one emulator configuration."""

    def __init__(self, emulator: "JitEmulator") -> None:
        self.em = emulator
        self.instructions = emulator.instructions
        self.next_address = emulator.next_address
        self.flip = emulator.layout.tag_flip_bit
        if self.flip & 4095:
            # a guest access and its DIFT shadow share one page split
            # (``_emit_split``) only if they share the in-page offset
            raise ValueError("the DIFT tag flip bit must be a multiple of "
                             "the page size")
        self.dift_on = (emulator.policy is not None
                        and emulator.policy.needs_dift)
        self.have_controller = emulator.controller is not None
        self.cost = emulator.cost_model.instruction_cost
        #: compile-time shape of the speculation hooks (nesting gate,
        #: policy no-op conditions); in the digest.
        self.hooks = emulator._hooks
        #: the DIFT object argument of controller calls: ``EM.dift`` is
        #: ``None`` exactly when DIFT is off, so that case folds.
        self.dift_arg = "D" if self.dift_on else "None"
        #: variant currently being compiled (set per `_compile_block` pass).
        self.sim = False
        #: addresses whose flag writes are dead (set per `_compile_block`).
        self._dead_flags: Set[int] = set()

    # -- classification ------------------------------------------------------
    def _kind(self, instr: Instruction) -> str:
        """``inline`` | ``cexit`` | ``term`` | ``ender``.

        ``cexit`` instructions *conditionally* leave the block (taken
        branches, triggered rollbacks) or run an episode in place
        (checkpoint entries) and otherwise fall through, so superblocks
        extend across them; ``term`` always
        exits in-block; ``ender`` ends the block and tail-calls its
        single-instruction function, which runs the legacy handler
        (:meth:`JitEmulator._make_fallback`), so intricate semantics
        stay in exactly one implementation.

        Classification is variant-aware (``self.sim``): a redirect or
        forced restore always fires inside simulation (``term``) and
        never fires outside it (``inline``, cost only).
        """
        em = self.em
        opcode = instr.opcode
        ops = instr.operands
        if em._model_opcodes and opcode in em._model_opcodes and any(
            model.speculation_sources(instr) for model in em._dynamic_models
        ):
            return "ender"
        if opcode in _FREE_PSEUDOS:
            return "inline"
        if opcode in (Opcode.COV_TRACE, Opcode.COV_SPEC):
            return "inline"
        if opcode is Opcode.CHECKPOINT:
            if _imm_target(instr) is None:
                return "ender"
            if not em._pht_enabled or not self.have_controller:
                return "inline"  # inert checkpoint: cost only
            return "cexit"
        if opcode is Opcode.RESTORE_COND:
            return "cexit" if self.sim else "inline"
        if opcode is Opcode.RESTORE_ALWAYS:
            return "term" if self.sim else "inline"
        if opcode is Opcode.TRAMP_JCC:
            return "cexit" if _imm_target(instr) is not None else "ender"
        if opcode is Opcode.SPEC_REDIRECT:
            if _imm_target(instr) is None:
                return "ender"
            return "term" if self.sim else "inline"
        if opcode in (Opcode.ASAN_CHECK, Opcode.POLICY_LOAD,
                      Opcode.POLICY_STORE):
            mem = ops[0] if ops else None
            if isinstance(mem, Mem) and _ea_expr(mem) is not None:
                return "inline"
            return "ender"
        if opcode is Opcode.POLICY_BRANCH:
            return "inline"
        if opcode is Opcode.MOV:
            if (len(ops) == 2 and isinstance(ops[0], Reg)
                    and isinstance(ops[1], (Reg, Imm))):
                return "inline"
            return "ender"
        if opcode in (Opcode.LOAD, Opcode.LEA):
            if (len(ops) == 2 and isinstance(ops[0], Reg)
                    and isinstance(ops[1], Mem)
                    and _ea_expr(ops[1]) is not None):
                return "inline"
            return "ender"
        if opcode is Opcode.STORE:
            if (len(ops) == 2 and isinstance(ops[0], Mem)
                    and _ea_expr(ops[0]) is not None
                    and _val_expr(ops[1]) is not None):
                return "inline"
            return "ender"
        if opcode is Opcode.PUSH:
            if len(ops) == 1 and _val_expr(ops[0]) is not None:
                return "inline"
            return "ender"
        if opcode is Opcode.POP:
            if len(ops) == 1 and isinstance(ops[0], Reg):
                return "inline"
            return "ender"
        if opcode in _ALU_INLINE:
            if (len(ops) == 2 and isinstance(ops[0], Reg)
                    and _val_expr(ops[1]) is not None):
                return "inline"
            return "ender"
        if opcode in (Opcode.CMP, Opcode.TEST):
            if (len(ops) == 2 and _val_expr(ops[0]) is not None
                    and _val_expr(ops[1]) is not None):
                return "inline"
            return "ender"
        if opcode is Opcode.JMP:
            target = _imm_target(instr)
            if target is None:
                return "ender"
            # A jump to the next instruction is cost only.
            return ("inline" if target == self.next_address[instr.address]
                    else "term")
        if opcode is Opcode.JCC:
            return "cexit" if _imm_target(instr) is not None else "ender"
        if opcode is Opcode.CALL:
            return "term" if _imm_target(instr) is not None else "ender"
        if opcode is Opcode.RET:
            return "term"
        if opcode in (Opcode.LFENCE, Opcode.CPUID):
            # Fences roll back inside simulation and are plain
            # fall-through (cost only) outside it.
            return "term" if self.sim else "inline"
        if opcode is Opcode.ECALL:
            # Uninstrumented side effects end the simulation (rollback);
            # outside it a resolvable import is a plain handler call, so
            # superblocks extend across external calls.
            if self.sim:
                return "term"
            index = ops[0] if ops else None
            if isinstance(index, Imm):
                try:
                    self.em.binary.import_name(index.value)
                except Exception:
                    return "ender"
                return "inline"
            return "ender"
        return "ender"

    # -- block discovery -----------------------------------------------------
    def leaders(self) -> Set[int]:
        """Every address a compiled block may start at: the roots and the
        immediate branch targets of :meth:`_leader_sets`."""
        roots, targets = self._leader_sets()
        return roots | targets

    def _leader_sets(self) -> Tuple[Set[int], Set[int]]:
        """``(roots, branch targets)``: the two reasons an address leads.

        Roots are the addresses the dispatch loop reaches without a
        compiled block naming them: function entries, the fall-through
        successor of every ender and every direct call (return sites —
        ``ret`` returns there dynamically) and of every inert checkpoint,
        and a trampoline a checkpoint gate cannot fold.  Branch targets
        are the immediate targets of direct branches; such a leader gets
        a block only when some block exits to it (:meth:`reachable_blocks`).
        A compiled checkpoint gate runs its episode as a call and resumes
        in place (:meth:`_emit_episode`), so neither its resume point nor
        its trampoline — folded into the gate — is a leader.  Control
        transfers into the *middle* of a block (dynamic-model resumes,
        stale targets) are always safe: the main loop simply steps
        single-instruction functions until the next leader.
        """
        self.sim = False  # ecall classification differs per variant
        roots: Set[int] = {sym.address
                            for sym in self.em.binary.function_symbols()}
        targets: Set[int] = set()
        for addr, instr in self.instructions.items():
            kind = self._kind(instr)
            if instr.opcode is Opcode.CHECKPOINT and kind == "cexit":
                target = _imm_target(instr)
                if self._trampoline(target) is None:
                    roots.add(target)
                continue
            if instr.opcode in _BRANCH_OPS:
                target = _imm_target(instr)
                if target is not None:
                    targets.add(target)
            if (kind == "ender"
                    or instr.opcode in (Opcode.CHECKPOINT, Opcode.CALL)):
                nxt = self.next_address.get(addr)
                if nxt is not None:
                    roots.add(nxt)
        return roots, targets

    def _trampoline(self, target: int) -> Optional[Tuple[Instruction,
                                                         Instruction]]:
        """The ``(tramp.jcc, jmp)`` pair at a checkpoint target, when it is
        the two-instruction trampoline a gate folds, else ``None``."""
        jcc = self.instructions.get(target)
        if (jcc is None or jcc.opcode is not Opcode.TRAMP_JCC
                or self._kind(jcc) != "cexit"):
            return None
        jmp = self.instructions.get(self.next_address[target])
        if (jmp is None or jmp.opcode is not Opcode.JMP
                or self._kind(jmp) == "ender"):
            return None
        return jcc, jmp

    # -- module generation ---------------------------------------------------
    def _leader_modes(self, instr: Instruction) -> Tuple[bool, ...]:
        """The variants compiled for the block at ``instr``.

        With Speculation Shadows each copy runs in one mode: the Real
        Copy architecturally (no-sim), the Shadow Copy only inside a
        simulation (sim).  Marker nops are the one Real-Copy site that
        also runs simulated: a speculative ``ret`` lands there and
        ``spec.redirect`` bounces it back into the Shadow Copy.  Any
        other (leader, mode) pair falls back to single-instruction
        functions, so dropping its block changes no result.
        """
        if not self.have_controller:
            return (False,)
        em = self.em
        if not em.has_shadows or instr.opcode is Opcode.MARKER_NOP:
            return (False, True)
        return (True,) if em._in_shadow_copy(instr.address) else (False,)

    def reachable_blocks(self) -> Dict[Tuple[int, bool],
                                       Tuple[str, int, List[int], Set[int]]]:
        """``(leader, sim) -> (source, steps, span, exits)`` of every block
        some dispatch can reach.

        The walk starts at the roots and adds the recorded exits
        (:attr:`_BlockWriter.exits`) of each block it compiles until
        nothing new is reached.  A leader that is only the target of
        in-block forward skips (``_forward_skips``) is never dispatched
        to, so it gets no block.  Blocks of fewer than two steps are
        walked too: the single-instruction function dispatched in their
        place exits to the same addresses.  Every block is compiled
        against all leaders, so its cap cut, and hence its source, does
        not depend on what else is reached.
        """
        roots, targets = self._leader_sets()
        leaders = roots | targets
        blocks = {}
        reached = set(roots)
        work = sorted(roots)
        while work:
            leader = work.pop()
            instr = self.instructions.get(leader)
            if instr is None:
                continue
            for sim in self._leader_modes(instr):
                block = self._compile_block(
                    leader, sim, self.em.max_block, _fn_name("b", leader, sim),
                    leaders)
                blocks[(leader, sim)] = block
                fresh = (block[3] & leaders) - reached
                reached |= fresh
                work.extend(sorted(fresh))
        return blocks

    def compile_source(self) -> List[str]:
        """Sources of the block module, one per block: every reachable
        block of two or more steps (for a shorter one the
        single-instruction function is just as fast), each registered in
        its variant's table.  Each compiles on its own, so compiling the
        module never holds more than one block's syntax tree."""
        sources = []
        for (leader, sim), (source, need, span, _) in sorted(
                self.reachable_blocks().items()):
            if need < 2:
                continue
            name = _fn_name("b", leader, sim)
            table = "BLOCKS" if sim else "NBLOCKS"
            spans = "SSPANS" if sim else "NSPANS"
            sources.append(
                f"{source}\n\n{table}[{leader}] = ({name}, {need})\n\n"
                f"{spans}[{leader}] = {tuple(span)!r}\n")
        return sources

    def compile_single(self, addr: int, sim: bool) -> Optional[str]:
        """Source of the single-instruction function at ``addr``: the
        block starting there, compiled with a cap of one instruction.
        ``None`` for an ender, which runs the legacy handler instead."""
        self.sim = sim
        if self._kind(self.instructions[addr]) == "ender":
            return None
        return self._compile_block(addr, sim, 1, _fn_name("i", addr, sim))[0]

    def _compile_block(self, leader: int, sim: bool, cap: int, name: str,
                       leaders: Set[int] = frozenset()):
        """``(source, steps, span, exits)`` of the block at ``leader``
        holding at most ``cap`` inline instructions.

        A block that reaches the cap ends in front of the last of
        ``leaders`` in its sequence, so its exit lands on a compiled
        block; with none there it exits at the cap."""
        self.sim = sim
        # Phase 1: walk the block to collect its instruction sequence (the
        # emission below follows this list verbatim), so liveness analysis
        # can look ahead before any code is generated.
        seq: List[Tuple[int, Instruction, str]] = []
        seen: Set[int] = set()
        addr = leader
        tail = None
        while True:
            instr = self.instructions.get(addr)
            if instr is None:
                tail = ("goto", addr)
                break
            kind = self._kind(instr)
            if kind == "ender":
                tail = ("ender", addr)
                break
            seen.add(addr)
            if (kind == "term" and instr.opcode is Opcode.CALL
                    and len(seq) + 1 < cap
                    and _imm_target(instr) not in seen):
                # Follow a direct call into its callee; the return site
                # stays a leader, so the matching ``ret`` lands on a block.
                seq.append((addr, instr, "call"))
                addr = _imm_target(instr)
                continue
            seq.append((addr, instr, kind))
            if kind == "term":
                break
            if len(seq) >= cap:
                cut = next((i for i in range(len(seq) - 1, 0, -1)
                            if seq[i][0] in leaders), None)
                if cut is None:
                    tail = ("goto", self.next_address[addr])
                else:
                    tail = ("goto", seq[cut][0])
                    del seq[cut:]
                break
            addr = self.next_address[addr]
        self._dead_flags = self._dead_flag_addrs(seq)
        # Phase 2: emit.
        writer = _BlockWriter(sim)
        span: List[int] = []
        skips = self._forward_skips(seq)
        joins: List[int] = []
        for i, (addr, instr, kind) in enumerate(seq):
            while joins and joins[-1] == i:
                # End of a skipped range: settle its own counters.
                joins.pop()
                writer.flush()
                writer.pad = writer.pad[:-4]
            if i in skips:
                writer.account(self.cost(instr.opcode),
                               instr.opcode not in _PSEUDO_SET)
                writer.flush()
                writer.use("f")
                writer.emit(f"if not ({_CC_EXPR[instr.cc]}):")
                writer.pad += "    "
                joins.append(skips[i])
            elif kind == "call":
                writer.account(self.cost(instr.opcode), True)
                writer.flush()
                self._emit_call(writer, addr, instr)
            elif kind == "term":
                self._emit_term(writer, addr, instr)
            elif kind == "cexit":
                self._emit_cexit(writer, addr, instr, len(seq) - i - 1)
            else:
                self._emit_inline(writer, addr, instr)
            span.append(addr)
        if tail is not None:
            self._emit_tail(writer, tail)
        return writer.render(name), writer.total_steps, span, writer.exits

    @staticmethod
    def _forward_skips(seq) -> Dict[int, int]:
        """Conditional branches that stay in-block: ``{i: j}`` when the
        branch at ``seq[i]`` jumps forward to ``seq[j]`` and the skipped
        ranges nest.  They compile to ``if not <taken>:`` around
        ``seq[i + 1:j]``, so an ``if`` without ``else`` in the guest costs
        no block exit.  Counters are flushed on entry to and exit from
        the skipped range, so both paths stay exact.
        """
        index = {addr: i for i, (addr, _, _) in enumerate(seq)}
        skips: Dict[int, int] = {}
        ends: List[int] = []
        for i, (_, instr, kind) in enumerate(seq):
            while ends and ends[-1] <= i:
                ends.pop()
            if kind != "cexit" or instr.opcode not in (Opcode.JCC,
                                                       Opcode.TRAMP_JCC):
                continue
            j = index.get(_imm_target(instr), -1)
            if j > i + 1 and (not ends or j <= ends[-1]):
                skips[i] = j
                ends.append(j)
        return skips

    # -- intra-block flag liveness -------------------------------------------
    def _flag_transparent(self, instr: Instruction, kind: str) -> bool:
        """True when the instruction's *emitted* code can neither read the
        architectural flags nor leave the block (so flags written before it
        stay unobservable until the next in-block flag write).  Config-gated
        sites (coverage, policy) are transparent exactly when they fold to
        nothing; anything that calls out to arbitrary Python (externals,
        policies) is a barrier."""
        if kind != "inline":
            return False
        opcode = instr.opcode
        if opcode in _FLAG_TRANSPARENT_OPS:
            return True
        if opcode in _FREE_PSEUDOS or opcode in (
            Opcode.CHECKPOINT, Opcode.RESTORE_COND, Opcode.RESTORE_ALWAYS,
            Opcode.SPEC_REDIRECT, Opcode.LFENCE, Opcode.CPUID, Opcode.JMP,
        ):
            return True  # cost-only in this variant: nothing is emitted
        if opcode is Opcode.COV_SPEC:
            return True  # a buffer append at most
        if opcode is Opcode.COV_TRACE:
            return self.em.coverage is None
        if opcode in (Opcode.ASAN_CHECK, Opcode.POLICY_LOAD,
                      Opcode.POLICY_STORE, Opcode.POLICY_BRANCH):
            return not self.sim or self.em.policy is None
        return False

    def _dead_flag_addrs(self, seq) -> Set[int]:
        """Addresses whose flag writes are provably dead inside this block.

        A flag-writing instruction's ``f.*`` stores can be skipped when
        every path to the next flag *observation* point first passes
        another flag writer: the walk forward hits a second writer before
        any reader, barrier, or block exit.  Faults in between are safe —
        a no-sim fault ends the run (flags are never read again) and a
        sim fault rolls back to a checkpoint that snapshotted the flags
        wholesale — so memory operations do not pin flags live.
        """
        dead: Set[int] = set()
        for i, (addr, instr, kind) in enumerate(seq):
            if kind != "inline" or instr.opcode not in _FLAG_WRITER_OPS:
                continue
            for _, nxt, nkind in seq[i + 1:]:
                if nkind == "inline" and nxt.opcode in _FLAG_WRITER_OPS:
                    dead.add(addr)
                    break
                if not self._flag_transparent(nxt, nkind):
                    break
        return dead

    def _emit_rollback(self, w: _BlockWriter, reason: str,
                       pad: str = "", charge: bool = True) -> None:
        """Shared rollback sequence (sim variant).

        Flushes whatever counters are still pending, then calls the
        rollback function bound for (``reason``, ``charge``)
        (:func:`_rollback_name`; ``Emulator._bind_rollbacks``): it
        flushes the noted speculative coverage, restores the checkpoint
        and charges the rollback's cycles itself, as every engine's
        rollbacks do (``emulator.ROLLBACK_SITES`` says which kinds pay).
        """
        w.flush_exit(pad)
        # NB: EM.dift is read per call (the hoisted ``D``) — the reset
        # between runs builds a fresh BinaryDift, so it must not be bound
        # at install.
        if self.dift_on:
            w.use("D")
        name = _rollback_name(reason, charge)
        w.param(name, name)
        w.emit(f"{pad}{name}(m, {self.dift_arg})")
        w.emit(f"{pad}return m.pc")

    # -- terminators / conditional exits -------------------------------------
    def _emit_term(self, w: _BlockWriter, addr: int,
                   instr: Instruction) -> None:
        """Unconditional in-block exit.

        Direct JMPs, calls and returns in both variants; in the sim
        variant also SPEC_REDIRECT (always fires inside simulation),
        fences and RESTORE_ALWAYS (always roll back inside simulation).
        Counters are flushed *before* the call/return stack access, the
        order the legacy engine counts in, so a stack fault observes
        exact totals.
        """
        opcode = instr.opcode
        w.account(self.cost(opcode), opcode not in _PSEUDO_SET)
        w.flush()
        if opcode is Opcode.RESTORE_ALWAYS:
            self._emit_rollback(w, "forced")
        elif opcode in (Opcode.LFENCE, Opcode.CPUID, Opcode.ECALL):
            self._emit_rollback(w, "forced", charge=False)
        elif opcode is Opcode.CALL:
            self._emit_call(w, addr, instr)
            w.goto(_imm_target(instr))
        elif opcode is Opcode.RET:
            self._emit_ret(w, addr, instr)
        else:  # JMP / SPEC_REDIRECT(sim): direct target
            w.goto(_imm_target(instr))

    def _emit_cexit(self, w: _BlockWriter, addr: int, instr: Instruction,
                    rest: int) -> None:
        """Conditional block exit; the fall-through path stays in-block.

        Taken branches and triggered rollbacks ``return``; the (usually
        far more common) fall-through case continues executing the
        superblock without re-dispatching.  A checkpoint entry runs its
        episode in place and then falls through as well (``rest``: the
        steps the block has left after this instruction).  Branches flush
        *inside* the taken arm (nothing on the fall-through path reads
        the counters); checkpoint entries and budget restores flush the
        steps and the ROB count up front (:meth:`_BlockWriter.flush_read`)
        because the episode and the ROB-budget test read them.
        """
        opcode = instr.opcode
        nxt = self.next_address[addr]
        w.account(self.cost(opcode), opcode not in _PSEUDO_SET)
        if opcode in (Opcode.JCC, Opcode.TRAMP_JCC):
            w.use("f")
            w.emit(f"if {_CC_EXPR[instr.cc]}:")
            w.flush_exit()
            w.goto(_imm_target(instr), "    ")
        elif opcode is Opcode.CHECKPOINT:
            w.flush_read()
            self._emit_gate(w, nxt, _imm_target(instr), rest)
        else:  # RESTORE_COND (sim variant)
            w.flush_read()
            w.param("CTRL", "CTRL")
            w.emit("if CTRL.spec_instruction_count >= CTRL.rob_budget:")
            self._emit_rollback(w, "budget", pad="    ")

    def _emit_gate(self, w: _BlockWriter, site: int, target: int,
                   rest: int) -> None:
        """Checkpoint entry at ``site``: run the episode at ``target`` when
        the nesting policy admits a (possibly nested) simulation.

        A built-in nesting policy's ``should_enter`` is emitted inline
        over its encounter dict and parameters (bound at install as
        ``GP``/``ENC``/``GMAX``/``GEAGER``/``GRAMP``), and an accept pushes
        the checkpoint inline (:meth:`_emit_checkpoint`); the depth folds to 0
        in the no-sim variant.  Any other policy — or one swapped into
        the controller after install — goes through ``CTRL.maybe_enter``.
        Every accept runs :meth:`_emit_episode`.
        """
        w.param("CTRL", "CTRL")
        if self.dift_on:
            w.use("D")
        generic = f"CTRL.maybe_enter(m, {site}, {site}, {self.dift_arg})"
        gate = self.hooks["gate"]

        def episode(depth: Optional[str], pad: str) -> None:
            self._emit_episode(w, site, target, rest, depth, pad)

        if gate is None:
            w.emit(f"if {generic}:")
            episode(None, "    ")
            return
        w.param("GP", "GP")
        if gate == "disabled":
            # should_enter: depth == 0
            if w.sim:
                w.emit(f"if CTRL.policy is not GP and {generic}:")
                episode(None, "    ")
            else:
                w.emit("if CTRL.policy is GP:")
                self._emit_checkpoint(w, site, "    ")
                episode(None, "    ")
                w.emit(f"elif {generic}:")
                episode(None, "    ")
            return
        w.param("ENC", "ENC")
        w.param("GMAX", "GMAX")
        w.param("GRAMP", "GRAMP")
        depth = "0"
        if w.sim:
            w.param("CPS", "CTRL.checkpoints")
            depth = "d"
        w.emit("if CTRL.policy is not GP:")
        w.emit(f"    if {generic}:")
        episode(None, "        ")
        if gate == "teapot":
            # depth >= max_depth rejects before counting; within the eager
            # runs always accept; then depth < min(max_depth, 1 + c // ramp).
            w.param("GEAGER", "GEAGER")
            if w.sim:
                w.emit("elif (d := len(CPS)) < GMAX:")
            else:
                w.emit("elif 0 < GMAX:")
            w.emit(f"    c = ENC.get({site}, 0)")
            w.emit(f"    ENC[{site}] = c + 1")
            w.emit(f"    if c < GEAGER or {depth} <= c // GRAMP:")
        else:  # specfuzz: depth < min(max_depth, 1 + c // ramp)
            w.emit("else:")
            if w.sim:
                w.emit("    d = len(CPS)")
            w.emit(f"    c = ENC.get({site}, 0)")
            w.emit(f"    ENC[{site}] = c + 1")
            w.emit(f"    if {depth} <= c // GRAMP and {depth} < GMAX:")
        self._emit_checkpoint(w, site, "        ")
        episode(depth, "        ")

    def _emit_checkpoint(self, w: _BlockWriter, site: int, pad: str) -> None:
        """A built-in gate's accept: push the checkpoint
        ``JournalingSpeculationController.enter`` pushes, inline.

        The no-sim variant enters from depth 0: it resets the ROB count,
        counts a started simulation, clears and attaches the journal (so
        the checkpoint's journal mark is 0) and records the machine for
        ``begin_run`` to detach, as ``enter`` does.  The sim variant enters at
        depth ``d`` >= 1 and counts a nested simulation.  Both record the
        deepest nesting as ``enter`` does.
        """
        w.param("CPS", "CTRL.checkpoints")
        w.param("ST", "CTRL.stats")
        w.param("JE", "CTRL.journal.entries")
        w.param("TL", "CTRL.taint_log")
        w.param("JC", "JC")
        w.use("regs", "f")
        if w.sim:
            w.emit(f"{pad}ST.nested_simulations += 1")
            mark = "len(JE)"
        else:
            w.param("JN", "CTRL.journal")
            w.emit(f"{pad}CTRL.spec_instruction_count = 0")
            w.emit(f"{pad}ST.simulations_started += 1")
            w.emit(f"{pad}JE.clear()")
            w.emit(f"{pad}CTRL._machine = m")
            w.emit(f"{pad}m.journal = m.memory.journal = JN")
            mark = "0"
        if self.dift_on:
            w.use("rt")
            tags = "rt[:], D.flags_tag"
        else:
            tags = "None, 0"
        w.emit(f"{pad}CPS.append(JC(({site}, {site}, {mark}, regs[:], "
               f"(f.zero, f.sign, f.carry, f.overflow), len(TL), {tags}, "
               "'pht')))")
        if w.sim:
            w.emit(f"{pad}if d >= ST.max_depth_reached:")
            w.emit(f"{pad}    ST.max_depth_reached = d + 1")
        else:
            w.emit(f"{pad}if not ST.max_depth_reached:")
            w.emit(f"{pad}    ST.max_depth_reached = 1")

    def _emit_episode(self, w: _BlockWriter, site: int, target: int,
                      rest: int, depth: Optional[str], pad: str) -> None:
        """An accepted entry's episode, run as a call from the checkpoint.

        The folded trampoline picks the wrong path's first address and
        charges its own steps and cycles (when both its instructions fit
        the fuel; otherwise the loop steps them one by one), then the
        engine's dispatch loop (``RUN``) runs the episode until this
        gate's checkpoint is popped.  Rollback has restored registers and
        flags in place and set ``m.pc`` to ``site``, so the block resumes
        right here: only ``rt`` is re-hoisted (rollback hands DIFT the
        checkpoint's tag list), and the rest of the block runs only if it
        still fits the fuel.  ``depth`` is the expression of the depth
        before the entry in the sim variant (``None``: read it back; the
        no-sim variant enters from depth 0).  Past
        ``_INPLACE_DEPTH`` the gate returns the trampoline to the
        dispatch loop instead, bounding the Python recursion.  Both that
        exit and the fuel-fit exit after the episode flush the counters
        the gate left pending (:meth:`_BlockWriter.flush_read`).
        """
        w.param("RUN", "RUN")
        w.param("STP", "STP")
        if not w.sim:
            depth = "0"
        else:
            w.param("CPS", "CTRL.checkpoints")
            if depth is None:
                depth = "d"
                w.emit(f"{pad}d = len(CPS) - 1")
            w.emit(f"{pad}if {depth} >= {_INPLACE_DEPTH}:")
            w.flush_exit(pad + "    ")
            w.goto(target, pad + "    ")
        w.param("FUEL", "FUEL")
        folded = self._trampoline(target)
        if folded is None:
            w.resume_at(target, pad)
        else:
            # The trampoline's counters, as a sim-variant flush would
            # emit them after its first and after both instructions.
            jcc, jmp = folded
            charge = _BlockWriter(sim=True)
            charge.account(self.cost(jcc.opcode),
                           jcc.opcode not in _PSEUDO_SET)
            taken = charge._flush_lines(pad + "        ")
            charge.account(self.cost(jmp.opcode),
                           jmp.opcode not in _PSEUDO_SET)
            through = charge._flush_lines(pad + "        ")
            for name, expr in charge.params.items():
                w.param(name, expr)
            w.use("f")
            w.emit(f"{pad}if STP[0] < FUEL - 1:")
            w.emit(f"{pad}    if {_CC_EXPR[jcc.cc]}:")
            for line in taken:
                w.emit(line)
            w.resume_at(_imm_target(jcc), pad + "        ")
            w.emit(f"{pad}    else:")
            for line in through:
                w.emit(line)
            w.resume_at(_imm_target(jmp), pad + "        ")
            w.emit(f"{pad}else:")
            w.resume_at(target, pad + "    ")
        w.emit(f"{pad}RUN(m, {depth})")
        if self.dift_on:
            w.emit(f"{pad}rt = D.register_tags")
        if rest:
            w.emit(f"{pad}if STP[0] > FUEL - {rest}:")
            w.flush_exit(pad + "    ")
            w.goto(site, pad + "    ")

    def _emit_call(self, w: _BlockWriter, addr: int,
                   instr: Instruction) -> None:
        """Direct call: push the (literal) return address.  The caller
        then jumps to the target or follows it in-block."""
        nxt = self.next_address[addr]
        w.use("regs")
        w.emit(f"new_sp = (regs[{SP_IDX}] - 8) & {MASK64}")
        self._emit_write(w, "new_sp", 8, str(nxt), str(nxt))
        w.emit(f"regs[{SP_IDX}] = new_sp")
        w.use("asan")
        w.emit("if asan is not None:")
        w.emit("    asan.poison_return_slot(new_sp)")

    def _emit_ret(self, w: _BlockWriter, addr: int,
                  instr: Instruction) -> None:
        """Return: pop the target and jump to it dynamically.

        The exit sentinel only needs special handling in simulation —
        outside it the dispatch loop recognizes it — and the shadow-target
        check only fires inside simulation with shadows present (both
        folded: simulation via the variant, shadows via the cache
        digest).  The sentinel is tested first: it is neither Shadow-Copy
        code nor a marker, so the escape check would roll back exactly
        as the sentinel rollback does.
        """
        w.use("regs")
        w.emit(f"sp = regs[{SP_IDX}]")
        self._emit_read(w, "target", "sp", 8)
        w.use("asan")
        w.emit("if asan is not None:")
        w.emit("    asan.unpoison_return_slot(sp)")
        w.emit(f"regs[{SP_IDX}] = (sp + 8) & {MASK64}")
        if w.sim:
            w.emit(f"if target == {EXIT_SENTINEL}:")
            self._emit_rollback(w, "forced", pad="    ", charge=False)
        if w.sim and self.em.has_shadows:
            # Targets in OKT (Shadow-Copy instructions and Real-Copy
            # marker nops) always pass the escape check; only a miss pays
            # for the exact check, which may still let it pass.
            iname = f"I_{addr:x}"
            w.param(iname, f"INSTRS[{addr}]")
            w.param("EM", "EM")
            w.param("OKT", "OKT")
            w.emit("if target not in OKT:")
            w.emit("    redirected = EM._check_indirect_target("
                   f"{iname}, target)")
            w.emit("    if redirected is not None:")
            w.emit("        return redirected")
        w.emit("return target")

    def _emit_tail(self, w: _BlockWriter, tail) -> None:
        kind, addr = tail
        w.flush()
        if kind == "goto":
            w.goto(addr)
            return
        # Ender: one step of its (self-counting) single-instruction
        # function, behind the dispatch loop's fuel check.
        w.param("STP", "STP")
        w.param("FUEL", "FUEL")
        w.param("T", "SSINGLES" if w.sim else "NSINGLES")
        w.emit("if STP[0] >= FUEL:")
        w.goto(addr, "    ")
        w.emit(f"return T[{addr}](m)")

    # -- inline instruction emitters -----------------------------------------
    def _emit_inline(self, w: _BlockWriter, addr: int,
                     instr: Instruction) -> None:
        opcode = instr.opcode
        ops = instr.operands
        cost = self.cost(opcode)
        is_arch = opcode not in _PSEUDO_SET
        w.account(cost, is_arch)

        if opcode in _FREE_PSEUDOS or opcode in (
            Opcode.CHECKPOINT, Opcode.RESTORE_COND, Opcode.RESTORE_ALWAYS,
            Opcode.SPEC_REDIRECT, Opcode.LFENCE, Opcode.CPUID, Opcode.JMP,
        ):
            # Cost only: free pseudos, inert checkpoints, and the
            # speculation sites in the variant where they cannot fire
            # (no-sim redirects/restores/fences, controller-less configs).
            return

        if opcode in (Opcode.COV_TRACE, Opcode.COV_SPEC):
            if self.em.coverage is None:
                return  # folded: coverage presence is in the cache digest
            guard = ops[0] if ops else None
            gid = guard.value if isinstance(guard, Imm) else 0
            w.use("cov")
            if opcode is Opcode.COV_TRACE:
                w.mark()
                w.emit(f"cov.trace_normal({gid})")
            else:
                # cov.note_speculative(gid), inlined: cannot raise.
                w.emit(f"cov._spec_buffer.append({gid})")
                w.emit("cov.spec_notes += 1")
            return

        if opcode in (Opcode.ASAN_CHECK, Opcode.POLICY_LOAD,
                      Opcode.POLICY_STORE):
            if not self.sim or self.em.policy is None:
                return  # fires only inside simulation with a policy
            is_write = opcode is Opcode.POLICY_STORE
            if len(ops) > 1 and isinstance(ops[1], Imm):
                is_write = bool(ops[1].value)
            self._emit_access_hook(w, addr, instr, is_write)
            return

        if opcode is Opcode.POLICY_BRANCH:
            if not self.sim or self.em.policy is None:
                return
            conditions = self.hooks["branch"]
            if conditions is not None and not conditions:
                return  # the policy declares the hook a no-op
            iname = f"I_{addr:x}"
            w.param(iname, f"INSTRS[{addr}]")
            w.param("CTRL", "CTRL")
            w.use("pol")
            if conditions is None:
                w.mark()
                w.emit(f"pol.on_speculative_branch({iname}, m, CTRL)")
                return
            # flags_not_secret: only a secret flags tag can report.
            w.use("D")
            w.emit(f"if D.flags_tag & {TAG_ANY_SECRET}:")
            w.pad += "    "
            w.mark()
            w.emit(f"pol.on_speculative_branch({iname}, m, CTRL)")
            w.pad = w.pad[:-4]
            return

        if opcode is Opcode.ECALL:
            # no-sim only (sim classifies ECALL as a rollback terminator);
            # the import name is folded.
            name = self.em.binary.import_name(ops[0].value)
            w.param("XR", "EXTERNALS")
            w.param("EM", "EM")
            w.param("CYC", "CYC")
            w.param("EB", "EM.cost_model.external_base")
            w.param("EPB", "EM.cost_model.external_per_byte")
            w.use("regs")
            w.mark()
            # The external may read the pc (``abort`` reports it).
            w.emit(f"m.pc = {addr}")
            w.emit(f"external = XR.get({name!r})")
            w.emit("if external is None:")
            w.emit(f"    EM.externals.get({name!r})  # raises KeyError")
            w.emit("EM.pending_return_tag = 0")
            w.emit("ret, moved = external.handler(EM, "
                   "[regs[1], regs[2], regs[3], regs[4], regs[5]])")
            w.emit(f"regs[{RET_IDX}] = ret & {MASK64}")
            if self.dift_on:
                w.use("rt")
                w.emit(f"rt[{RET_IDX}] = "
                       f"EM.pending_return_tag & {ALL_TAGS}")
            w.emit("CYC[0] += EB + EPB * moved")
            return

        # -- architectural instructions ----------------------------------
        if opcode is Opcode.MOV:
            di = int(ops[0].reg)
            w.use("regs")
            if self.dift_on:
                w.use("rt")
                if isinstance(ops[1], Reg):
                    w.emit(f"rt[{di}] = rt[{int(ops[1].reg)}]")
                else:
                    w.emit(f"rt[{di}] = 0")
            if isinstance(ops[1], Reg):
                w.emit(f"regs[{di}] = regs[{int(ops[1].reg)}]")
            else:
                w.emit(f"regs[{di}] = {to_unsigned(ops[1].value)}")
            return

        if opcode is Opcode.LEA:
            di = int(ops[0].reg)
            w.use("regs")
            if self.dift_on:
                w.use("rt")
                regs_used = tuple(int(r) for r in ops[1].registers())
                tag = " | ".join(f"rt[{r}]" for r in regs_used) or "0"
                w.emit(f"rt[{di}] = {tag}")
            w.emit(f"value = {_ea_expr(ops[1])}")
            w.emit(f"regs[{di}] = value")
            return

        if opcode is Opcode.LOAD:
            self._emit_load(w, instr)
            return

        if opcode is Opcode.STORE:
            self._emit_store(w, instr)
            return

        if opcode is Opcode.PUSH:
            self._emit_push(w, instr)
            return

        if opcode is Opcode.POP:
            self._emit_pop(w, instr)
            return

        if opcode in _ALU_INLINE:
            self._emit_alu(w, addr, instr)
            return

        # CMP / TEST
        if self.dift_on:
            w.use("D")
            parts = [f"rt[{int(op.reg)}]" for op in ops if isinstance(op, Reg)]
            if parts:
                w.use("rt")
            w.emit(f"D.flags_tag = {' | '.join(parts) or '0'}")
        if addr in self._dead_flags:
            # The flags are overwritten before any possible observation
            # and the comparison computes nothing else, so it folds away
            # entirely (the flags *tag* above still propagates for DIFT).
            return
        w.use("regs", "f")
        w.emit(f"a = {_val_expr(ops[0])}")
        w.emit(f"b = {_val_expr(ops[1])}")
        if opcode is Opcode.CMP:
            w.emit(f"r = (a - b) & {MASK64}")
            w.emit("f.zero = r == 0")
            w.emit(f"f.sign = r >= {SIGN_BIT}")
            w.emit("f.carry = a < b")
            w.emit(f"f.overflow = (a >= {SIGN_BIT}) != (b >= {SIGN_BIT}) "
                   f"and (r >= {SIGN_BIT}) != (a >= {SIGN_BIT})")
        else:
            w.emit("r = a & b")
            w.emit("f.zero = r == 0")
            w.emit(f"f.sign = r >= {SIGN_BIT}")
            w.emit("f.carry = False")
            w.emit("f.overflow = False")

    def _emit_access_hook(self, w: _BlockWriter, addr: int,
                          instr: Instruction, is_write: bool) -> None:
        """A speculative access check: the policy's
        ``on_speculative_access``, behind the inline test of its declared
        no-op conditions (``address_untainted``, ``in_bounds``) when it
        has any."""
        mem = instr.operands[0]
        size = instr.size
        conditions = self.hooks["access"]
        if conditions is not None and not conditions:
            return  # the policy declares the hook a no-op
        iname, mname = f"I_{addr:x}", f"M_{addr:x}"
        w.param(iname, f"INSTRS[{addr}]")
        w.param(mname, f"INSTRS[{addr}].operands[0]")
        w.param("CTRL", "CTRL")
        w.param("EM", "EM")
        w.use("pol", "regs")
        ea = _ea_expr(mem)
        call = [f"promoted = pol.on_speculative_access({iname}, {mname}, "
                f"a, {size}, {is_write}, m, CTRL)",
                "if promoted:",
                "    EM._pending_promotion |= promoted"]
        w.emit(f"a = {ea}")
        if conditions is None:
            w.mark()
            for line in call:
                w.emit(line)
            return
        # ``c``: the call may report or promote.  Each declared condition
        # that can fail at run time adds a test; the rest fold away.
        tests = []
        if "address_untainted" in conditions:
            tags = [f"rt[{int(r)}]" for r in mem.registers()]
            if tags:
                w.use("rt")
                tests.append(" | ".join(tags))
        if "in_bounds" in conditions:
            self._emit_out_of_bounds(w, mem, size, tests)
        else:
            w.emit(f"c = {' or '.join(tests) or '0'}")
        w.emit("if c:")
        w.pad += "    "
        w.mark()
        for line in call:
            w.emit(line)
        w.pad = w.pad[:-4]

    def _emit_out_of_bounds(self, w: _BlockWriter, mem: Mem, size: int,
                            tests: List[str]) -> None:
        """Emit ``c = <access a/size may fail asan.check_access, or any
        of tests holds>``.

        In bounds for certain: a user-memory address, on a page the memory
        has published as fully mapped (or, for a constant address, an
        exactly published range), within that page, with zero ASan shadow
        bytes for every granule the access covers (an absent shadow page
        reads as zero).  Anything else is left to the policy.  Granules
        are ASan's 8 bytes, each with the shadow byte ``(addr >> 3) +
        offset``.
        """
        lo_end, hi_start, hi_end, offset = self.hooks["user_memory"]
        const = _const_ea(mem)
        quick = list(tests)
        if const is not None:
            if not (const <= lo_end or hi_start <= const <= hi_end):
                w.emit("c = 1")
                return
            w.use("memory", "fpc")
            quick.append(f"fpc({(const << 4) | size}) is None")
            first = (const >> 3) + offset
            second = first + 1 if (const & 7) > 8 - size else None
        else:
            w.use("memory", "fpg")
            quick.append(f"not (a <= {lo_end} or {hi_start} <= a <= {hi_end})")
            if size > 1:
                quick.append(f"(a & 4095) > {4096 - size}")
            quick.append("fpg(a >> 12) is None")
            first = f"(a >> 3) + {offset}"
            second = "g + 1" if size > 1 else None
        w.use("pages")
        w.emit(f"c = {' or '.join(quick)}")
        w.emit("if not c:")
        w.emit(f"    g = {first}")
        w.emit("    sp = pages.get(g >> 12)")
        w.emit("    c = sp is not None and sp[g & 4095]")
        if second is not None:
            # the access also covers the next granule
            if const is None:
                w.emit(f"    if not c and (a & 7) > {8 - size}:")
            else:
                w.emit("    if not c:")
            w.emit(f"        g = {second}")
            w.emit("        sp = pages.get(g >> 12)")
            w.emit("        c = sp is not None and sp[g & 4095]")

    # -- memory-operation emitters ------------------------------------------
    def _emit_split(self, w: _BlockWriter, addr_var: str, size: int,
                    const: Optional[int], tags: Optional[_TagLines] = None,
                    guard: Optional[str] = None) -> str:
        """Emit the one page split of a guest access at ``addr_var``.

        Afterwards ``page`` is the backing page of the access, or ``None``
        where the checked ``Memory`` accessors must do it; returns the
        in-page offset expression.  A constant address (a global) looks
        its exact range up in the memory's ``_fast_ranges``, which also
        holds ranges on partially mapped pages; any other address looks
        its page up in ``_fast_pages`` (fully mapped pages) when the
        access fits its page.  The checked accessors publish both the
        first time they succeed.

        ``tags``: the DIFT tag access as ``(in_page, other)`` lines.  The
        shadow byte of an address sits at the same in-page offset ``off``
        (the flip bit is a multiple of the page size), so one in-page test
        decides both.  ``guard``: a further condition of the tag's in-page
        lines (a push's unmasked tag address is non-negative).
        """
        if const is not None:
            w.use("memory", "fpc")
            off = const & 4095
            if tags is not None:
                w.emit(f"off = {off}")
                for line in tags[0] if off <= 4096 - size else tags[1]:
                    w.emit(line)
            w.emit(f"page = fpc({(const << 4) | size})")
            return str(off)
        w.use("memory", "fpg")
        w.emit(f"off = {addr_var} & 4095")
        tests = [f"off <= {4096 - size}"] if size > 1 else []
        if guard is not None and tags is not None:
            tests.append(guard)
        lookup = f"fpg({addr_var} >> 12)"
        if not tests:
            for line in tags[0] if tags is not None else ():
                w.emit(line)
            w.emit(f"page = {lookup}")
        elif tags is None:
            w.emit(f"page = {lookup} if {tests[0]} else None")
        else:
            w.emit(f"if {' and '.join(tests)}:")
            for line in tags[0]:
                w.emit(f"    {line}")
            w.emit(f"    page = {lookup}")
            w.emit("else:")
            for line in tags[1]:
                w.emit(f"    {line}")
            w.emit("    page = None")
        return "off"

    def _emit_read(self, w: _BlockWriter, dest: str, addr_var: str,
                   size: int, const: Optional[int] = None,
                   tags: Optional[_TagLines] = None) -> None:
        """``dest = <size-byte little-endian guest read at addr_var>``:
        straight from the page when :meth:`_emit_split` finds it, else the
        checked ``Memory.read_int``."""
        w.param(f"U{size}", f"U{size}")
        off = self._emit_split(w, addr_var, size, const, tags)
        w.emit(f"{dest} = (memory.read_int({addr_var}, {size}) "
               f"if page is None else U{size}(page, {off})[0])")

    def _emit_write(self, w: _BlockWriter, addr_var: str, size: int,
                    value: str, masked: str,
                    const: Optional[int] = None,
                    tags: Optional[_TagLines] = None,
                    split_var: Optional[str] = None) -> None:
        """Guest write of ``value`` (``masked``: the same value wrapped to
        ``size`` bytes), undo-logged in the sim variant; the fast and slow
        paths split as in :meth:`_emit_read`.  ``split_var``: a push
        splits on its unmasked tag address (guarded non-negative, so equal
        to ``addr_var`` on the in-page path)."""
        w.param(f"P{size}", f"P{size}")
        if split_var is None:
            off = self._emit_split(w, addr_var, size, const, tags)
        else:
            off = self._emit_split(w, split_var, size, const, tags,
                                   guard=f"{split_var} >= 0")
        w.emit("if page is None:")
        w.emit(f"    memory.write_int({addr_var}, {value}, {size})")
        w.emit("else:")
        if w.sim:
            w.use("jn")
            w.emit(f"    jn.entries.append(({addr_var}, "
                   f"bytes(page[{off}:{off} + {size}])))")
        w.emit(f"    P{size}(page, {off}, {masked})")

    def _promotion_tail(self, w: _BlockWriter, di: int) -> None:
        # A pending promotion is only ever *applied* through
        # ``dift.or_register_tag``; with DIFT off the legacy engine's
        # per-load check-and-clear is architecturally invisible (the flag
        # is reset at every ``_setup_process``), so skip it entirely.
        if not self.dift_on:
            return
        w.param("EM", "EM")
        w.emit("p = EM._pending_promotion")
        w.emit("if p:")
        w.use("rt")
        w.emit(f"    rt[{di}] |= p & {ALL_TAGS}")
        w.emit("    EM._pending_promotion = 0")

    def _read_tags(self, w: _BlockWriter, dest: str, addr_var: str,
                   size: int) -> _TagLines:
        """``(in_page, other)`` lines of a DIFT tag read into ``dest``.

        In one page (``addr_var`` is masked, so non-negative) an absent
        shadow page reads as tag 0, a present one as the OR of its bytes,
        folded from the little-endian integer by halving shifts; any
        other range takes the helper (``RTR``).
        """
        w.use("rt", "pages")
        fast = [f"spage = pages.get(({addr_var} ^ {self.flip}) >> 12)",
                "if spage is None:",
                f"    {dest} = 0",
                "else:"]
        if size == 1:
            fast.append(f"    {dest} = spage[off] & {ALL_TAGS}")
            return fast, []
        w.param(f"U{size}", f"U{size}")
        w.param("RTR", "RTR")
        fast.append(f"    t = U{size}(spage, off)[0]")
        fast.append("    if t:")
        shift = size * 4  # fold the high half down, then halve again
        while shift >= 8:
            fast.append(f"        t |= t >> {shift}")
            shift //= 2
        fast.append(f"        t &= {ALL_TAGS}")
        fast.append(f"    {dest} = t")
        return fast, [f"{dest} = RTR(m, {addr_var}, {size}, {self.flip})"]

    def _write_tags(self, w: _BlockWriter, addr_var: str, size: int,
                    tag: str) -> _TagLines:
        """``(in_page, other)`` lines of a DIFT tag write.

        Writing the tag over an unallocated shadow page is a no-op when
        the tag is 0 (absent pages read as 0, guest-side mapping checks
        are region-based, and no taint-undo entry would be written since
        old == new); a present page is written directly outside
        simulation, and inside simulation the write is skipped entirely
        when every byte already holds the tag (again old == new, so the
        helper would neither log nor change anything).  Page-crossing,
        negative and tag-changing simulation cases call the helper
        (``WTR``).
        """
        w.use("D", "pages")
        w.param("WTR", "WTR")
        helper = f"WTR(D, m, {addr_var}, {size}, {tag}, {self.flip})"
        if size == 1:
            read = "spage[off]"
            tb = tag
            write = f"spage[off] = {tag}"
        else:
            # The tag byte replicated across the range, as one fixed-width
            # little-endian integer (0x01 repeated ``size`` times works as
            # the replicator since tags fit in a byte).
            rep = int.from_bytes(b"\x01" * size, "little")
            w.param(f"U{size}", f"U{size}")
            w.param(f"P{size}", f"P{size}")
            read = f"U{size}(spage, off)[0]"
            tb = "0" if tag == "0" else f"{tag} * {rep}"
            write = f"P{size}(spage, off, {tb})"
        fast = [f"spage = pages.get(({addr_var} ^ {self.flip}) >> 12)"]
        if tag == "0":
            fast.append("if spage is not None:")
        else:
            fast.append("if spage is None:")
            fast.append(f"    if {tag}:")
            if w.sim:
                fast.append(f"        {helper}")
            else:
                fast.append("        spage = bytearray(4096)")
                fast.append(
                    f"        pages[({addr_var} ^ {self.flip}) >> 12] = spage")
                fast.append(f"        {write}")
            fast.append("else:")
        if w.sim:
            fast.append(f"    if {read} != {tb}:")
            fast.append(f"        {helper}")
        else:
            fast.append(f"    {write}")
        return fast, [helper]

    def _emit_load(self, w: _BlockWriter, instr: Instruction) -> None:
        di = int(instr.operands[0].reg)
        size = instr.size
        w.use("regs")
        w.mark()
        w.emit(f"a = {_ea_expr(instr.operands[1])}")
        tags = (self._read_tags(w, f"rt[{di}]", "a", size)
                if self.dift_on else None)
        self._emit_read(w, "value", "a", size, _const_ea(instr.operands[1]),
                        tags)
        w.emit(f"regs[{di}] = value")
        self._promotion_tail(w, di)

    def _emit_store(self, w: _BlockWriter, instr: Instruction) -> None:
        size = instr.size
        mask = (1 << (8 * size)) - 1
        src = instr.operands[1]
        w.use("regs")
        w.mark()
        w.emit(f"a = {_ea_expr(instr.operands[0])}")
        tags = None
        if self.dift_on:
            if isinstance(src, Reg):
                w.use("rt")
                w.emit(f"t = rt[{int(src.reg)}]")
                tags = self._write_tags(w, "a", size, "t")
            else:
                tags = self._write_tags(w, "a", size, "0")
        const = _const_ea(instr.operands[0])
        if isinstance(src, Reg):
            value = f"regs[{int(src.reg)}]"
            self._emit_write(w, "a", size, value, f"{value} & {mask}", const,
                             tags)
        else:
            value = to_unsigned(src.value)
            self._emit_write(w, "a", size, str(value), str(value & mask),
                             const, tags)

    def _emit_push(self, w: _BlockWriter, instr: Instruction) -> None:
        src = instr.operands[0]
        w.use("regs")
        w.mark()
        tags = split_var = None
        if self.dift_on:
            # NB: unmasked sp - 8, exactly like BinaryDift.propagate.
            w.emit(f"wa = regs[{SP_IDX}] - 8")
            split_var = "wa"
            if isinstance(src, Reg):
                w.use("rt")
                w.emit(f"t = rt[{int(src.reg)}]")
                tags = self._write_tags(w, "wa", 8, "t")
            else:
                tags = self._write_tags(w, "wa", 8, "0")
        if isinstance(src, Reg):
            w.emit(f"value = regs[{int(src.reg)}]")
            written = "value"
        else:
            written = str(to_unsigned(src.value))
        w.emit(f"new_sp = (regs[{SP_IDX}] - 8) & {MASK64}")
        self._emit_write(w, "new_sp", 8, written, written, tags=tags,
                         split_var=split_var)
        w.emit(f"regs[{SP_IDX}] = new_sp")

    def _emit_pop(self, w: _BlockWriter, instr: Instruction) -> None:
        di = int(instr.operands[0].reg)
        w.use("regs")
        w.mark()
        w.emit(f"sp = regs[{SP_IDX}]")
        tags = (self._read_tags(w, f"rt[{di}]", "sp", 8)
                if self.dift_on else None)
        self._emit_read(w, "value", "sp", 8, tags=tags)
        w.emit(f"regs[{di}] = value")
        w.emit(f"new_sp = (regs[{SP_IDX}] + 8) & {MASK64}")
        w.emit(f"regs[{SP_IDX}] = new_sp")
        self._promotion_tail(w, di)

    def _emit_alu(self, w: _BlockWriter, addr: int,
                  instr: Instruction) -> None:
        opcode = instr.opcode
        ops = instr.operands
        di = int(ops[0].reg)
        src = ops[1]
        live_flags = addr not in self._dead_flags
        w.use("regs")
        if live_flags:
            w.use("f")
        if self.dift_on:
            w.use("D")
            zeroing = (opcode in (Opcode.XOR, Opcode.SUB)
                       and isinstance(src, Reg) and src.reg == ops[0].reg)
            if zeroing:
                w.use("rt")
                w.emit(f"rt[{di}] = 0")
                w.emit("D.flags_tag = 0")
            elif isinstance(src, Reg):
                w.use("rt")
                w.emit(f"t = rt[{di}] | rt[{int(src.reg)}]")
                w.emit(f"rt[{di}] = t")
                w.emit("D.flags_tag = t")
            else:
                w.use("rt")
                w.emit(f"D.flags_tag = rt[{di}]")
        w.emit(f"a = regs[{di}]")
        b = (f"regs[{int(src.reg)}]" if isinstance(src, Reg)
             else str(to_unsigned(src.value)))
        w.emit(f"b = {b}")
        S, M, T = SIGN_BIT, MASK64, TWO64
        if opcode is Opcode.ADD:
            w.emit(f"r = (a + b) & {M}")
            if live_flags:
                w.emit("f.zero = r == 0")
                w.emit(f"f.sign = r >= {S}")
                w.emit(f"f.carry = a + b > {M}")
                w.emit(f"f.overflow = (a >= {S}) == (b >= {S}) "
                       f"and (r >= {S}) != (a >= {S})")
        elif opcode is Opcode.SUB:
            w.emit(f"r = (a - b) & {M}")
            if live_flags:
                w.emit("f.zero = r == 0")
                w.emit(f"f.sign = r >= {S}")
                w.emit("f.carry = a < b")
                w.emit(f"f.overflow = (a >= {S}) != (b >= {S}) "
                       f"and (r >= {S}) != (a >= {S})")
        else:
            if opcode is Opcode.AND:
                w.emit("r = a & b")
            elif opcode is Opcode.OR:
                w.emit("r = a | b")
            elif opcode is Opcode.XOR:
                w.emit("r = a ^ b")
            elif opcode is Opcode.SHL:
                w.emit(f"r = (a << (b & 63)) & {M}")
            elif opcode is Opcode.SHR:
                w.emit("r = a >> (b & 63)")
            elif opcode is Opcode.SAR:
                w.emit(f"sa = a - {T} if a >= {S} else a")
                w.emit(f"r = (sa >> (b & 63)) & {M}")
            else:  # MUL
                w.emit(f"sa = a - {T} if a >= {S} else a")
                w.emit(f"sb = b - {T} if b >= {S} else b")
                w.emit(f"r = (sa * sb) & {M}")
            if live_flags:
                w.emit("f.zero = r == 0")
                w.emit(f"f.sign = r >= {S}")
                w.emit("f.carry = False")
                w.emit("f.overflow = False")
        w.emit(f"regs[{di}] = r")


class _RunEnd(BaseException):
    """Ends a run from any episode depth: ``(status, exit_status,
    crash_reason)`` for fuel, exit or crash.

    A ``BaseException`` so that it passes the dispatch loops' fault
    handlers and the blocks' flush-and-reraise handlers of every
    enclosing episode on its way to ``JitEmulator._execute``.
    """

    def __init__(self, status: str, exit_status: int = 0,
                 crash_reason: str = "") -> None:
        super().__init__(status, exit_status, crash_reason)


class _SingleTable(dict):
    """addr -> single-instruction function of one variant, built on first use.

    Subscripting an address not yet in the table calls ``build`` and keeps
    the function; ``None`` (an address holding no instruction) is returned
    but not kept.
    """

    def __init__(self, build: Callable[[int], Optional[Callable]]) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, addr: int) -> Optional[Callable]:
        fn = self.build(addr)
        if fn is not None:
            self[addr] = fn
        return fn


def _require_journal(controller) -> None:
    """The compiled engines undo-log speculative stores through the
    machine journal only; a snapshot controller would silently leave
    speculative memory writes committed after rollback."""
    if controller is not None and not getattr(
        controller, "uses_machine_journal", False
    ):
        raise ValueError(
            "the compiled engines require a journaling speculation "
            "controller (JournalingSpeculationController); use "
            "resolve_engine() to get a matched pair, or the legacy "
            "Emulator for snapshot controllers"
        )


class JitEmulator(Emulator):
    """Compiled engine: generated blocks and single-instruction functions."""

    engine_name = "jit"

    #: inline-instruction cap per superblock (keeps generated functions and
    #: the worst-case counter-flush granularity bounded).  At a cap of one
    #: no block module is built and only single-instruction functions run.
    max_block = 64

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        _require_journal(self.controller)
        #: per-execution accounting cells shared between the dispatch loop
        #: and the generated functions (with ``_cycles_cell``).
        self._arch_cell = [0]
        self._steps_cell = [0]
        #: addresses dispatched to legacy-handler fallbacks so far
        #: (telemetry reads the count).
        self._fallback_addresses: Set[int] = set()
        #: block-module cache outcome ("none" when no module is built).
        self._jit_cache_event = "none"
        self._compile_blocks()

    def rebind_controller(self, controller) -> None:
        """Swap controllers and regenerate everything bound to the old one.

        The generated functions bind the controller when they are
        installed, so unlike the legacy engine a plain attribute
        assignment is not enough; the differential tests use this to
        re-run one emulator under several nesting policies without paying
        binary decode again.
        """
        _require_journal(controller)
        super().rebind_controller(controller)
        self._fallback_addresses = set()
        # Controller presence is part of the options digest; going
        # through _compile_blocks re-keys the cache lookup (memo-hit
        # when only the instance changed) and rebinds the namespace.
        self._compile_blocks()

    # -- compilation ---------------------------------------------------------
    def _decode_text(self) -> None:
        """Decode the text section once per binary and cache directory.

        The decode (``instructions``, ``next_address``) and the set of
        shadow-escape-free return targets (``OKT``: Shadow-Copy
        instructions and marker nops) depend on the binary alone, so
        they are memoized in the shared :class:`BlockCache` under the
        binary hash and shared by every engine over that binary.
        Sharing is safe because decoded instructions are never mutated
        after decode.
        """
        cache = shared_cache()
        self._binary_hash = hashlib.sha256(
            dumps_binary(self.binary)).hexdigest()
        decoded = cache.decoded.get(self._binary_hash)
        if decoded is None:
            super()._decode_text()
            self._index_shadow_functions()
            instructions = self.instructions
            ok_targets = frozenset(
                [addr for start, end in self._shadow_ranges
                 for addr in range(start, end) if addr in instructions]
                + [addr for addr, instr in instructions.items()
                   if instr.opcode is Opcode.MARKER_NOP])
            decoded = (instructions, self.next_address, ok_targets)
            cache.decoded[self._binary_hash] = decoded
        self.instructions, self.next_address, self._ok_targets = decoded

    def _options_digest(self) -> str:
        """Digest of every knob the generated source depends on.

        Part of the persistent-cache key: two emulators with equal
        binary hash and equal digest are guaranteed to generate
        byte-identical source.
        """
        payload = {
            "codegen": _CODEGEN_VERSION,
            "max_block": self.max_block,
            "costs": {op.name: self.cost_model.instruction_cost(op)
                      for op in Opcode},
            "flip": self.layout.tag_flip_bit,
            "pht": self._pht_enabled,
            "models": sorted(model.name for model in self.spec_models),
            "model_opcodes": sorted(op.name for op in self._model_opcodes),
            "has_shadows": self.has_shadows,
            "dift": self.policy is not None and self.policy.needs_dift,
            "controller": self.controller is not None,
            # presence of these is constant-folded into the functions
            "policy": self.policy is not None,
            "coverage": self.coverage is not None,
            "hooks": self._hooks,
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def _speculation_hooks(self) -> Dict[str, object]:
        """The compile-time shape of the speculation hooks.

        ``gate``: the built-in nesting policy compiled inline at
        checkpoints (``None``: call ``maybe_enter``).  ``access`` /
        ``branch``: the policy's declared no-op conditions per callback
        (``None``: call it every time), kept only when the sanitizer they
        read is on.  ``user_memory``: the layout constants of the
        in-bounds test.
        """
        controller = self.controller
        policy = self.policy
        gate = None
        if (controller is not None and self._pht_enabled
                and type(controller).maybe_enter
                is JournalingSpeculationController.maybe_enter
                and type(controller).enter
                is JournalingSpeculationController.enter):
            gate = _NESTING_GATES.get(type(controller.policy))

        def noops(hook: str) -> Optional[List[str]]:
            conditions = (None if policy is None
                          else noop_conditions(policy, hook))
            if conditions is None or not all(
                    getattr(policy, _CONDITION_NEEDS[name])
                    for name in conditions):
                return None  # undeclared, or a condition's sanitizer is off
            return list(conditions)

        layout = self.layout
        return {
            "gate": gate,
            "access": noops("on_speculative_access"),
            "branch": noops("on_speculative_branch"),
            "user_memory": [layout.lowmem_end, layout.highmem_start,
                            layout.highmem_end, layout.asan_shadow_offset],
        }

    def _compile_blocks(self) -> None:
        self._hooks = self._speculation_hooks()
        cache = shared_cache()
        self._jit_cache = cache
        binary_hash = self._binary_hash
        digest = self._options_digest()
        self._jit_key = (binary_hash, digest)
        self._compiler = _BlockCompiler(self)
        code = ()
        if self.max_block > 1:
            code = cache.load(binary_hash, digest)
            if code is None:
                code = tuple(compile(source, "<repro-jit>", "exec")
                             for source in self._compiler.compile_source())
                cache.store(binary_hash, digest, code)
                self._jit_cache_event = "miss"
            else:
                self._jit_cache_event = "hit"
        #: one code object per block (empty at a block cap of one).
        self._block_code = code
        self._install_blocks()

    def _install_blocks(self) -> None:
        """Bind the compiled blocks to this instance's live objects.

        The generated source is instance-independent (every constant is
        a literal); instance objects enter through the exec namespace,
        into which every block's code object is exec'd and which each
        generated function captures via keyword-parameter defaults
        evaluated at exec time.  Single-instruction functions
        are exec'd into the same namespace as they are first dispatched.
        """
        self._singles_nosim = _SingleTable(
            lambda addr: self._build_single(addr, False))
        self._singles_sim = _SingleTable(
            lambda addr: self._build_single(addr, True))
        #: addr -> (block fn, fuel need), one map per simulation state.
        self._blocks_sim: Dict[int, Tuple[Callable, int]] = {}
        self._blocks_nosim: Dict[int, Tuple[Callable, int]] = {}
        self._run = self._dispatch_loop()
        namespace = {
            "EM": self,
            "CTRL": self.controller,
            "CYC": self._cycles_cell,
            "ARC": self._arch_cell,
            "STP": self._steps_cell,
            "FUEL": self.max_steps,
            "NSINGLES": self._singles_nosim,
            "SSINGLES": self._singles_sim,
            "INSTRS": self.instructions,
            "OKT": self._ok_targets,
            "RTR": _read_tag_range,
            "WTR": _write_tag_range,
            "U1": _UNPACKERS[1], "U2": _UNPACKERS[2],
            "U4": _UNPACKERS[4], "U8": _UNPACKERS[8],
            "P1": _PACKERS[1], "P2": _PACKERS[2],
            "P4": _PACKERS[4], "P8": _PACKERS[8],
            "EXTERNALS": self.externals._externals,
            "JC": JournalCheckpoint,
            **self._gate_bindings(),
            **{_rollback_name(reason, charge): rollback
               for (reason, charge), rollback in self._rollbacks.items()},
            "RUN": self._run,
            "BLOCKS": self._blocks_sim,
            "NBLOCKS": self._blocks_nosim,
            "SSPANS": {},
            "NSPANS": {},
        }
        for code in self._block_code:
            exec(code, namespace)
        self._namespace = namespace
        #: addr -> covered instruction addresses (profiler attribution).
        self._block_spans_sim = namespace["SSPANS"]
        self._block_spans_nosim = namespace["NSPANS"]
        self._jit_inline_instructions = sum(
            len(span) for spans in (self._block_spans_nosim,
                                    self._block_spans_sim)
            for span in spans.values())

    def _gate_bindings(self) -> Dict[str, object]:
        """The compiled nesting gate's policy and parameters, bound at
        install (``GP``: the policy the gate was compiled for)."""
        if self._hooks["gate"] is None:
            return {}
        policy = self.controller.policy
        return {
            "GP": policy,
            "ENC": getattr(policy, "_encounters", None),
            "GMAX": getattr(policy, "max_depth", None),
            "GEAGER": getattr(policy, "eager_runs", None),
            "GRAMP": getattr(policy, "ramp", None),
        }

    def _build_single(self, addr: int, sim: bool) -> Optional[Callable]:
        """The single-instruction function at ``addr`` (``None`` off code).

        Compiled code objects are memoized process-wide under the cache
        key, so a stream of emulators over one binary compiles each at
        most once; every instance execs them into its own namespace.
        """
        instr = self.instructions.get(addr)
        if instr is None:
            return None
        memo = self._jit_cache.singles
        key = self._jit_key + (addr, sim)
        code = memo.get(key)
        if code is None:
            source = self._compiler.compile_single(addr, sim)
            if source is None:
                return self._make_fallback(instr)
            code = compile(source, "<repro-jit>", "exec")
            memo[key] = code
        exec(code, self._namespace)
        return self._namespace.pop(_fn_name("i", addr, sim))

    def _make_fallback(self, instr: Instruction) -> Callable:
        """An ender's single-instruction function: the legacy handler
        wrapped in the legacy main loop's per-step sequence (counters,
        DIFT propagation, extra cycles), without its dispatch-table and
        cost-model lookups."""
        self._fallback_addresses.add(instr.address)
        em = self
        controller = self.controller
        cps = controller.checkpoints if controller is not None else None
        cost = self.cost_model.instruction_cost(instr.opcode)
        is_arch = instr.opcode not in _PSEUDO_SET
        handler = self._dispatch[instr.opcode]

        def single(m, em=em, controller=controller, cps=cps,
                   stp=self._steps_cell, cyc=self._cycles_cell,
                   arc=self._arch_cell, cost=cost, is_arch=is_arch,
                   handler=handler, instr=instr):
            stp[0] += 1
            cyc[0] += cost
            if is_arch:
                arc[0] += 1
                if cps:
                    controller.count_instruction()
                d = em.dift
                if d is not None:
                    try:
                        d.propagate(instr, m)
                    except MemoryFault:
                        pass
            em._extra_cycles = 0
            new_pc = handler(instr)
            extra = em._extra_cycles
            if extra:
                cyc[0] += extra
            return new_pc
        return single

    # -- main loop -----------------------------------------------------------
    def _dispatch_loop(self) -> Callable:
        """The engine's one dispatch loop, bound to this install's tables.

        ``run(machine, floor)`` dispatches blocks and single-instruction
        functions from ``machine.pc`` and returns once no more than
        ``floor`` checkpoints are live: a compiled gate calls it with the
        depth before its entry, so the call returns when the episode's
        rollback pops the gate's checkpoint, and ``_execute`` calls it
        with ``-1``.  Fuel, exit and crash end the run at any depth by
        raising :class:`_RunEnd`.
        """
        em = self
        controller = self.controller
        # live-checkpoint list: truthy exactly while simulating.  The
        # controller clears it in place (never reassigns), so the bound
        # reference stays valid for every run of this install.
        cps = controller.checkpoints if controller is not None else ()

        def run(machine, floor, cps=cps, sim_get=self._blocks_sim.get,
                nosim_get=self._blocks_nosim.get,
                sim_singles=self._singles_sim,
                nosim_singles=self._singles_nosim, stp=self._steps_cell,
                max_steps=self.max_steps) -> None:
            while len(cps) > floor:
                pc = machine.pc
                entry = (sim_get if cps else nosim_get)(pc)
                if entry is not None and stp[0] + entry[1] <= max_steps:
                    # Whole block fits in the remaining fuel: one call runs
                    # it (the block advances the counters itself).  Every
                    # block needs two or more steps and none starts at the
                    # exit sentinel, so neither test below could fire.
                    fn = entry[0]
                else:
                    if stp[0] >= max_steps:
                        raise _RunEnd("fuel")
                    if pc == EXIT_SENTINEL:
                        raise _RunEnd("exit",
                                      to_signed(machine.registers[RET_IDX]))
                    # One step; the function advances the counters itself.
                    fn = (sim_singles if cps else nosim_singles)[pc]
                    if fn is None:
                        if em._dynamic_models and cps:
                            # Speculative wrong path reached non-code (stale
                            # model target): squash the simulation.
                            em._rollback("exception")
                            continue
                        raise _RunEnd(
                            "crash", crash_reason="jump to non-code address "
                            f"{pc:#x}")
                try:
                    new_pc = fn(machine)
                except (MemoryFault, ArithmeticFault) as exc:
                    if cps:
                        em._rollback("exception")
                        continue
                    raise _RunEnd("crash", crash_reason=str(exc))
                except ProgramExit as exc:
                    raise _RunEnd("exit", exc.status)
                except ProgramCrash as exc:
                    # only an external raises it, never in a simulation
                    raise _RunEnd("crash", crash_reason=str(exc))
                if new_pc is not None:
                    # (None: the handler already set machine.pc.)
                    machine.pc = new_pc

        return run

    def _execute(self) -> ExecutionResult:
        cyc = self._cycles_cell
        arc = self._arch_cell
        stp = self._steps_cell
        cyc[0] = 0
        arc[0] = 0
        stp[0] = 0
        try:
            self._run(self.machine, -1)
        except _RunEnd as end:
            status, exit_status, crash_reason = end.args
        return ExecutionResult(status=status, exit_status=exit_status,
                               crash_reason=crash_reason, steps=stp[0],
                               cycles=cyc[0], arch_instructions=arc[0])


@register_engine("jit")
def _jit_engine_plugin():
    """Block-compiled execution paired with copy-on-write journal rollback."""
    return JitEmulator, JournalingSpeculationController
