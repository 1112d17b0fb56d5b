"""Binary dynamic information-flow tracking (DIFT), paper §6.2.2.

Tags are small bit sets stored one byte per user-memory byte in the *tag
shadow*, which maps to user memory by flipping bit 45 of the address (paper
Table 2).  Registers and the flags register carry tags as well.

Tag bits:

* ``TAG_USER`` — attacker-directly controlled data (the paper's *User*):
  bytes produced by input-reading externals, ``argv`` and anything derived
  from them.
* ``TAG_MASSAGE`` — attacker-indirectly controlled data (the paper's
  *Massage*): outcomes of speculative out-of-bounds accesses, which may be
  wild values the attacker shaped by massaging memory.
* ``TAG_SECRET_USER`` / ``TAG_SECRET_MASSAGE`` — secrets, split by how the
  access that produced them was controlled so reports can be categorised as
  ``User-*`` vs ``Massage-*`` (paper Table 4).

Propagation follows DFSan's model: data movement and arithmetic union the
tags of their inputs into the output; loads take the tag of the loaded
bytes; stores write the tag of the stored value; compares taint the flags.
Address registers do *not* implicitly taint loaded values — address-based
flows are what the Kasper policy's sink checks look for explicitly.

Tag *writes* performed during speculation simulation are logged through the
speculation controller so rollback also restores taint state, exactly like
the paper's "log the tag changes for later rollback".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.isa.instructions import Instruction, Opcode
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import Register
from repro.loader.layout import DEFAULT_LAYOUT, MemoryLayout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime ↔ sanitizers)
    from repro.runtime.machine import MachineState, Memory

TAG_USER = 0x01
TAG_MASSAGE = 0x02
TAG_SECRET_USER = 0x04
TAG_SECRET_MASSAGE = 0x08

TAG_ANY_ATTACKER = TAG_USER | TAG_MASSAGE
TAG_ANY_SECRET = TAG_SECRET_USER | TAG_SECRET_MASSAGE
ALL_TAGS = TAG_USER | TAG_MASSAGE | TAG_SECRET_USER | TAG_SECRET_MASSAGE


class BinaryDift:
    """Byte-granular taint tracker over the TVM machine state."""

    # Exposed so externals can refer to tags without importing constants.
    TAG_USER = TAG_USER
    TAG_MASSAGE = TAG_MASSAGE
    TAG_SECRET_USER = TAG_SECRET_USER
    TAG_SECRET_MASSAGE = TAG_SECRET_MASSAGE

    def __init__(self, memory: Memory, layout: MemoryLayout = DEFAULT_LAYOUT) -> None:
        self.memory = memory
        self.layout = layout
        self.register_tags: List[int] = [0] * 16
        self.flags_tag: int = 0
        #: speculation controller used to log tag writes for rollback
        #: (attached by the emulator).
        self.controller = None
        #: whether new input is tagged (Table 3 disables taint sources and
        #: marks only the artificial gadget's variable instead).
        self.sources_enabled = True
        #: statistics
        self.bytes_tagged_user = 0

    # -- register tags -----------------------------------------------------------
    def get_register_tag(self, reg: Register) -> int:
        """Tag bits currently attached to a register."""
        return self.register_tags[int(reg)]

    def set_register_tag(self, reg: Register, tag: int) -> None:
        """Replace a register's tag bits."""
        self.register_tags[int(reg)] = tag & ALL_TAGS

    def or_register_tag(self, reg: Register, tag: int) -> None:
        """Union additional tag bits into a register."""
        self.register_tags[int(reg)] |= tag & ALL_TAGS

    def snapshot_register_tags(self) -> Tuple[int, ...]:
        """Capture register tags (for checkpoints)."""
        return tuple(self.register_tags)

    def restore_register_tags(self, snapshot) -> None:
        """Restore register tags from a snapshot."""
        self.register_tags = list(snapshot)

    # -- memory tags --------------------------------------------------------------
    def _tag_address(self, addr: int) -> int:
        return self.layout.tag_shadow_address(addr)

    def _write_tag_byte(self, addr: int, tag: int) -> None:
        shadow = self._tag_address(addr)
        if self.controller is not None and self.controller.in_simulation:
            old = self.memory.read_shadow_byte(shadow)
            if old != (tag & 0xFF):
                self.controller.log_taint_write(shadow, old)
        self.memory.write_shadow_byte(shadow, tag & 0xFF)

    def _contiguous_shadow(self, addr: int, size: int) -> bool:
        """Whether the tag shadow of ``[addr, addr+size)`` is one flat range.

        The bit-45 flip preserves contiguity as long as the range does not
        cross a bit-45 boundary — always true for real user memory, checked
        explicitly so wild speculative addresses fall back to the exact
        per-byte path.
        """
        return addr >= 0 and (addr >> 45) == ((addr + size - 1) >> 45)

    def get_mem_tag(self, addr: int, size: int) -> int:
        """Union of the tags of ``size`` bytes at ``addr``."""
        if size > 1 and self._contiguous_shadow(addr, size):
            tag = 0
            for byte in self.memory.read_shadow(self._tag_address(addr), size):
                tag |= byte
            return tag & ALL_TAGS
        tag = 0
        for offset in range(size):
            tag |= self.memory.read_shadow_byte(self._tag_address(addr + offset))
        return tag & ALL_TAGS

    def set_mem_tag(self, addr: int, size: int, tag: int) -> None:
        """Set the tag of every byte in ``[addr, addr+size)``."""
        in_sim = self.controller is not None and self.controller.in_simulation
        if size > 1 and not in_sim and self._contiguous_shadow(addr, size):
            # Outside simulation no taint logging is needed: one bulk write.
            self.memory.write_shadow(self._tag_address(addr),
                                     bytes([tag & 0xFF]) * size)
            return
        for offset in range(size):
            self._write_tag_byte(addr + offset, tag)

    def clear_mem_tags(self, addr: int, size: int) -> None:
        """Clear the tags of a memory range (e.g. after ``memset``)."""
        self.set_mem_tag(addr, size, 0)

    def copy_mem_tags(self, dst: int, src: int, size: int) -> None:
        """Copy tags byte-by-byte (used by ``memcpy``-style externals)."""
        in_sim = self.controller is not None and self.controller.in_simulation
        if (
            size > 1
            and not in_sim
            and self._contiguous_shadow(src, size)
            and self._contiguous_shadow(dst, size)
        ):
            tags = self.memory.read_shadow(self._tag_address(src), size)
            self.memory.write_shadow(self._tag_address(dst), tags)
            return
        tags = [
            self.memory.read_shadow_byte(self._tag_address(src + i))
            for i in range(size)
        ]
        for i, tag in enumerate(tags):
            self._write_tag_byte(dst + i, tag)

    # -- taint sources --------------------------------------------------------------
    def mark_user_input(self, addr: int, size: int) -> None:
        """Mark freshly read input bytes as attacker-directly controlled."""
        if not self.sources_enabled:
            return
        self.set_mem_tag(addr, size, TAG_USER)
        self.bytes_tagged_user += size

    def mark_region(self, addr: int, size: int, tag: int) -> None:
        """Mark an arbitrary region with a tag (used by Table 3's setup,
        which tags only the artificial gadget's input variable)."""
        self.set_mem_tag(addr, size, tag)

    # -- propagation -------------------------------------------------------------------
    def propagate(self, instr: Instruction, machine: MachineState) -> None:
        """Propagate tags for one architectural instruction.

        Must be called *before* the instruction executes (source values and
        addresses are still intact).
        """
        opcode = instr.opcode
        if opcode is Opcode.MOV:
            dst, src = instr.operands
            self.set_register_tag(dst.reg, self._operand_tag(src, machine))
        elif opcode is Opcode.LOAD:
            dst, mem = instr.operands
            addr = machine.effective_address(mem)
            self.set_register_tag(dst.reg, self.get_mem_tag(addr, instr.size))
        elif opcode is Opcode.STORE:
            mem, src = instr.operands
            addr = machine.effective_address(mem)
            self.set_mem_tag(addr, instr.size, self._operand_tag(src, machine))
        elif opcode is Opcode.LEA:
            dst, mem = instr.operands
            tag = 0
            for reg in mem.registers():
                tag |= self.get_register_tag(reg)
            self.set_register_tag(dst.reg, tag)
        elif opcode is Opcode.PUSH:
            (src,) = instr.operands
            addr = machine.sp - 8
            self.set_mem_tag(addr, 8, self._operand_tag(src, machine))
        elif opcode is Opcode.POP:
            (dst,) = instr.operands
            self.set_register_tag(dst.reg, self.get_mem_tag(machine.sp, 8))
        elif opcode in (Opcode.CMP, Opcode.TEST):
            a, b = instr.operands
            self.flags_tag = (
                self._operand_tag(a, machine) | self._operand_tag(b, machine)
            )
        elif opcode in _TWO_OPERAND_ALU:
            dst = instr.operands[0]
            src = instr.operands[1] if len(instr.operands) > 1 else None
            if (
                opcode in (Opcode.XOR, Opcode.SUB)
                and isinstance(src, Reg)
                and src.reg == dst.reg
            ):
                # Idiomatic zeroing (xor r, r / sub r, r) clears the taint.
                tag = 0
            else:
                tag = self.get_register_tag(dst.reg)
                if src is not None:
                    tag |= self._operand_tag(src, machine)
            self.set_register_tag(dst.reg, tag)
            self.flags_tag = tag
        elif opcode in (Opcode.NOT, Opcode.NEG):
            dst = instr.operands[0]
            tag = self.get_register_tag(dst.reg)
            self.set_register_tag(dst.reg, tag)
            self.flags_tag = tag
        # Control flow, system and pseudo instructions do not move data.

    def _operand_tag(self, operand, machine: MachineState) -> int:
        if isinstance(operand, Reg):
            return self.get_register_tag(operand.reg)
        if isinstance(operand, Imm):
            return 0
        if isinstance(operand, Mem):
            addr = machine.effective_address(operand)
            return self.get_mem_tag(addr, 8)
        return 0

    # -- queries used by detection policies ---------------------------------------------
    def address_tag(self, mem: Mem, machine: MachineState) -> int:
        """Union of the tags of the registers forming an effective address."""
        tag = 0
        for reg in mem.registers():
            tag |= self.get_register_tag(reg)
        return tag

    def reset(self) -> None:
        """Clear register and flags tags (memory tags are per-run anyway)."""
        self.register_tags = [0] * 16
        self.flags_tag = 0
        self.bytes_tagged_user = 0


_TWO_OPERAND_ALU = frozenset(
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
    }
)
