"""Architectural machine state: registers, flags and sparse virtual memory."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.isa.instructions import ConditionCode
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import Register
from repro.loader.layout import DEFAULT_LAYOUT, MemoryLayout
from repro.runtime.errors import MemoryFault

MASK64 = (1 << 64) - 1
PAGE_SIZE = 4096
PAGE_MASK = PAGE_SIZE - 1


class StateJournal:
    """Copy-on-write undo log over guest memory.

    While a speculation simulation is active the machine's memory appends
    the *old* contents of every overwritten guest range to this journal; a
    rollback replays the entries in reverse instead of restoring a full
    memory snapshot.  Registers are not journaled: each checkpoint copies
    the 16-entry register file, which is cheaper than one undo entry per
    register write.  Nested speculation works with *marks*: each
    checkpoint remembers ``len(entries)`` at entry and rolling back pops
    only the segment recorded since that mark.

    Entries are ``(address, old_bytes)`` tuples.  The journal is attached
    to a :class:`MachineState` and its :class:`Memory` through their
    ``journal`` attributes; ``None`` (the default) disables journaling
    entirely, so the non-speculative fast path pays only a single ``is not
    None`` test.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[Tuple[int, bytes]] = []

    def mark(self) -> int:
        """The current journal position (stored by checkpoints)."""
        return len(self.entries)

    def rollback_to(self, mark: int, machine: "MachineState") -> int:
        """Undo every entry recorded since ``mark`` (newest first).

        Restoration writes bypass the journal and the guest mapping check —
        every undone range was mapped when its write was logged.  Returns
        the number of entries undone, which is the quantity the cost model
        charges for (registers ride inside the fixed rollback base cost,
        exactly like the registers of a legacy full-snapshot restore).
        """
        entries = self.entries
        memory = machine.memory
        pages = memory._pages
        for index in range(len(entries) - 1, mark - 1, -1):
            address, old = entries[index]
            # An in-page range goes straight into its page (it exists: the
            # logged write touched it); a page-crossing one is split.
            offset = address & PAGE_MASK
            end = offset + len(old)
            page = pages.get(address >> 12)
            if page is not None and end <= PAGE_SIZE:
                page[offset:end] = old
            else:
                memory._write_raw(address, old)
        undone = len(entries) - mark
        del entries[mark:]
        return undone

    def clear(self) -> None:
        """Drop all entries (end of the outermost simulation or of a run)."""
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)


def to_signed(value: int) -> int:
    """Interpret a 64-bit value as signed."""
    value &= MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


def to_unsigned(value: int) -> int:
    """Wrap a Python int into an unsigned 64-bit value."""
    return value & MASK64


@dataclass
class Flags:
    """The architectural flags register (ZF/SF/CF/OF)."""

    zero: bool = False
    sign: bool = False
    carry: bool = False
    overflow: bool = False

    def snapshot(self) -> Tuple[bool, bool, bool, bool]:
        """Capture the flags as a tuple (used by checkpoints)."""
        return (self.zero, self.sign, self.carry, self.overflow)

    def restore(self, snapshot: Tuple[bool, bool, bool, bool]) -> None:
        """Restore flags from a :meth:`snapshot`."""
        self.zero, self.sign, self.carry, self.overflow = snapshot

    def evaluate(self, cc: ConditionCode) -> bool:
        """Whether a condition code holds under the current flags."""
        if cc is ConditionCode.EQ:
            return self.zero
        if cc is ConditionCode.NE:
            return not self.zero
        if cc is ConditionCode.LT:
            return self.sign != self.overflow
        if cc is ConditionCode.GE:
            return self.sign == self.overflow
        if cc is ConditionCode.LE:
            return self.zero or self.sign != self.overflow
        if cc is ConditionCode.GT:
            return not self.zero and self.sign == self.overflow
        if cc is ConditionCode.B:
            return self.carry
        if cc is ConditionCode.AE:
            return not self.carry
        if cc is ConditionCode.BE:
            return self.carry or self.zero
        if cc is ConditionCode.A:
            return not self.carry and not self.zero
        raise ValueError(f"unknown condition code {cc!r}")

    def set_compare(self, a: int, b: int) -> None:
        """Set flags as ``cmp a, b`` (i.e. compute ``a - b``)."""
        ua, ub = to_unsigned(a), to_unsigned(b)
        result = (ua - ub) & MASK64
        self.zero = result == 0
        self.sign = result >= (1 << 63)
        self.carry = ua < ub
        sa, sb, sr = to_signed(ua), to_signed(ub), to_signed(result)
        self.overflow = (sa < 0) != (sb < 0) and (sr < 0) != (sa < 0)

    def set_test(self, a: int, b: int) -> None:
        """Set flags as ``test a, b`` (bitwise AND, CF=OF=0)."""
        result = to_unsigned(a) & to_unsigned(b)
        self.zero = result == 0
        self.sign = result >= (1 << 63)
        self.carry = False
        self.overflow = False

    def set_logic(self, result: int) -> None:
        """Set flags after a logical operation (CF=OF=0)."""
        result = to_unsigned(result)
        self.zero = result == 0
        self.sign = result >= (1 << 63)
        self.carry = False
        self.overflow = False

    def set_add(self, a: int, b: int, result: int) -> None:
        """Set flags after ``result = a + b``."""
        ua, ub = to_unsigned(a), to_unsigned(b)
        ur = to_unsigned(result)
        self.zero = ur == 0
        self.sign = ur >= (1 << 63)
        self.carry = ua + ub > MASK64
        sa, sb, sr = to_signed(ua), to_signed(ub), to_signed(ur)
        self.overflow = (sa < 0) == (sb < 0) and (sr < 0) != (sa < 0)

    def set_sub(self, a: int, b: int, result: int) -> None:
        """Set flags after ``result = a - b``."""
        self.set_compare(a, b)
        # set_compare computes exactly a - b; nothing further required.


class Memory:
    """Sparse, page-granular byte-addressable memory.

    Guest accesses must fall inside explicitly mapped regions; anything else
    raises :class:`MemoryFault` (the SIGSEGV stand-in).  Sanitizer shadow
    regions (ASan shadow, DIFT tag shadow) are accessed through the
    ``*_shadow`` helpers which bypass the mapping check and create pages on
    demand — shadow memory is a runtime implementation detail, not guest-
    visible address space.
    """

    def __init__(self, layout: Optional[MemoryLayout] = None) -> None:
        self.layout = layout or DEFAULT_LAYOUT
        self._pages: Dict[int, bytearray] = {}
        #: list of (start, end) half-open mapped ranges, kept sorted
        self._regions: List[Tuple[int, int]] = []
        #: lazily filled cache ``page id -> mapped (start, end) offsets
        #: within the page``, so single-page accesses skip the region walk.
        #: Invalidated wholesale whenever a region is mapped.
        self._spans: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        #: ``page id -> page`` for fully mapped pages touched so far; the
        #: compiled engines' in-page accesses go straight to these.  Never
        #: invalidated: mapping only makes pages *more* mapped, and pages
        #: are never replaced.
        self._fast_pages: Dict[int, bytearray] = {}
        #: ``(addr << 4) | size -> page`` for single-page ranges accessed
        #: so far, partially mapped pages included (the compiled engines'
        #: accesses to constant addresses); valid for the same reasons.
        self._fast_ranges: Dict[int, bytearray] = {}
        #: copy-on-write undo log; attached by the speculation controller
        #: while a simulation is active, ``None`` otherwise.
        self.journal: Optional[StateJournal] = None

    # -- region management ----------------------------------------------------
    def map_region(self, start: int, size: int) -> None:
        """Mark ``[start, start+size)`` as valid guest memory."""
        if size <= 0:
            return
        self._regions.append((start, start + size))
        self._regions.sort()
        self._spans.clear()

    def _page_spans(self, page_id: int) -> Tuple[Tuple[int, int], ...]:
        """Mapped ``(start, end)`` offsets within page ``page_id`` (cached)."""
        spans = self._spans.get(page_id)
        if spans is None:
            base = page_id << 12
            merged: List[List[int]] = []
            for start, stop in self._regions:
                lo = max(start, base) - base
                hi = min(stop, base + PAGE_SIZE) - base
                if lo >= hi:
                    continue
                if merged and lo <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], hi)
                else:
                    merged.append([lo, hi])
            spans = tuple((lo, hi) for lo, hi in merged)
            self._spans[page_id] = spans
        return spans

    def direct_page(self, addr: int, size: int) -> Optional[bytearray]:
        """The backing page of ``[addr, addr+size)`` when that range is
        mapped and lies in one page, else ``None`` (the checked accessors
        then raise or split the access).  Pages that are mapped whole are
        also published in ``_fast_pages``.
        """
        offset = addr & PAGE_MASK
        end = offset + size
        if end > PAGE_SIZE:
            return None
        page_id = addr >> 12
        for lo, hi in self._page_spans(page_id):
            if lo <= offset and end <= hi:
                page = self._page(addr)
                if lo == 0 and hi == PAGE_SIZE:
                    self._fast_pages[page_id] = page
                if size <= 8:
                    self._fast_ranges[(addr << 4) | size] = page
                return page
        return None

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        """Whether the whole range ``[addr, addr+size)`` is mapped."""
        if size > 0 and (addr + size - 1) >> 12 == addr >> 12:
            offset = addr & PAGE_MASK
            return any(lo <= offset and offset + size <= hi
                       for lo, hi in self._page_spans(addr >> 12))
        remaining_start = addr
        end = addr + size
        for start, stop in self._regions:
            if remaining_start < start:
                return False
            if remaining_start < stop:
                remaining_start = min(end, stop)
                if remaining_start >= end:
                    return True
        return remaining_start >= end

    # -- raw page access --------------------------------------------------------
    def _page(self, addr: int) -> bytearray:
        page_id = addr >> 12
        page = self._pages.get(page_id)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_id] = page
        return page

    def _read_raw(self, addr: int, size: int) -> bytes:
        out = bytearray()
        while size > 0:
            page = self._page(addr)
            offset = addr & PAGE_MASK
            chunk = min(size, PAGE_SIZE - offset)
            out += page[offset:offset + chunk]
            addr += chunk
            size -= chunk
        return bytes(out)

    def _write_raw(self, addr: int, data: bytes) -> None:
        offset_in_data = 0
        size = len(data)
        while size > 0:
            page = self._page(addr)
            offset = addr & PAGE_MASK
            chunk = min(size, PAGE_SIZE - offset)
            page[offset:offset + chunk] = data[offset_in_data:offset_in_data + chunk]
            addr += chunk
            offset_in_data += chunk
            size -= chunk

    # -- guest accesses (checked) ----------------------------------------------------
    def read_bytes(self, addr: int, size: int) -> bytes:
        """Guest read of ``size`` bytes at ``addr``.

        Raises:
            MemoryFault: if the range is not mapped.
        """
        if not self.is_mapped(addr, size):
            raise MemoryFault(addr, size, write=False)
        return self._read_raw(addr, size)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Guest write of ``data`` at ``addr``.

        While a :class:`StateJournal` is attached the previous contents of
        the range are logged first, so a speculation rollback can undo the
        write.

        Raises:
            MemoryFault: if the range is not mapped.
        """
        if not self.is_mapped(addr, len(data)):
            raise MemoryFault(addr, len(data), write=True)
        journal = self.journal
        if journal is not None:
            journal.entries.append((addr, self._read_raw(addr, len(data))))
        self._write_raw(addr, data)

    def read_int(self, addr: int, size: int) -> int:
        """Guest read of a little-endian unsigned integer."""
        page = self.direct_page(addr, size)
        if page is not None:
            offset = addr & PAGE_MASK
            return int.from_bytes(page[offset:offset + size], "little")
        return int.from_bytes(self.read_bytes(addr, size), "little")

    def write_int(self, addr: int, value: int, size: int) -> None:
        """Guest write of a little-endian integer (wrapped to ``size`` bytes)."""
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        page = self.direct_page(addr, size)
        if page is not None:
            offset = addr & PAGE_MASK
            journal = self.journal
            if journal is not None:
                journal.entries.append((addr, bytes(page[offset:offset + size])))
            page[offset:offset + size] = data
            return
        self.write_bytes(addr, data)

    def read_cstring(self, addr: int, max_len: int = 4096) -> bytes:
        """Read a NUL-terminated byte string (without the terminator)."""
        out = bytearray()
        for i in range(max_len):
            byte = self.read_bytes(addr + i, 1)
            if byte == b"\x00":
                break
            out += byte
        return bytes(out)

    # -- shadow accesses (unchecked; runtime internal) ----------------------------------
    def read_shadow(self, addr: int, size: int) -> bytes:
        """Read shadow memory (no mapping check)."""
        return self._read_raw(addr, size)

    def write_shadow(self, addr: int, data: bytes) -> None:
        """Write shadow memory (no mapping check)."""
        self._write_raw(addr, data)

    def read_shadow_byte(self, addr: int) -> int:
        """Read one shadow byte (creates its page, like :meth:`read_shadow`)."""
        return self._page(addr)[addr & PAGE_MASK]

    def write_shadow_byte(self, addr: int, value: int) -> None:
        """Write one shadow byte."""
        self._page(addr)[addr & PAGE_MASK] = value & 0xFF


@dataclass
class MachineState:
    """Registers, flags, program counter and memory of a TVM core."""

    layout: MemoryLayout = field(default_factory=lambda: DEFAULT_LAYOUT)
    registers: List[int] = field(default_factory=lambda: [0] * 16)
    flags: Flags = field(default_factory=Flags)
    pc: int = 0
    memory: Memory = field(init=False)
    #: copy-on-write memory undo log; attached while a speculation
    #: simulation is active (shared with ``memory.journal``), ``None``
    #: otherwise.
    journal: Optional[StateJournal] = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.memory = Memory(self.layout)

    # -- journaling ----------------------------------------------------------------
    def attach_journal(self, journal: Optional[StateJournal]) -> None:
        """Attach (or detach, with ``None``) an undo log to guest memory."""
        self.journal = journal
        self.memory.journal = journal

    # -- register access ----------------------------------------------------------
    def get_reg(self, reg: Register) -> int:
        """Read a register (unsigned 64-bit)."""
        return self.registers[int(reg)]

    def set_reg(self, reg: Register, value: int) -> None:
        """Write a register (value wrapped to 64 bits)."""
        self.registers[int(reg)] = to_unsigned(value)

    def snapshot_registers(self) -> Tuple[int, ...]:
        """Capture all registers (used by checkpoints)."""
        return tuple(self.registers)

    def restore_registers(self, snapshot: Iterable[int]) -> None:
        """Restore all registers from a snapshot."""
        self.registers = list(snapshot)

    # -- operand evaluation -----------------------------------------------------------
    def effective_address(self, mem: Mem) -> int:
        """Evaluate a memory operand's effective address."""
        addr = 0
        if mem.base is not None:
            addr += self.get_reg(mem.base)
        if mem.index is not None:
            addr += self.get_reg(mem.index) * mem.scale
        disp = mem.disp
        if not isinstance(disp, int):
            raise ValueError(f"unresolved symbolic displacement {disp!r}")
        addr += disp
        return to_unsigned(addr)

    def read_operand(self, operand) -> int:
        """Evaluate a register or immediate operand to a value."""
        if isinstance(operand, Reg):
            return self.get_reg(operand.reg)
        if isinstance(operand, Imm):
            return to_unsigned(operand.value)
        raise ValueError(f"cannot read operand {operand!r} as a value")

    # -- stack helpers -----------------------------------------------------------------
    @property
    def sp(self) -> int:
        """Current stack pointer."""
        return self.get_reg(Register.SP)

    @sp.setter
    def sp(self, value: int) -> None:
        self.set_reg(Register.SP, value)

    def push(self, value: int) -> None:
        """Push a 64-bit value onto the stack."""
        self.sp = self.sp - 8
        self.memory.write_int(self.sp, value, 8)

    def pop(self) -> int:
        """Pop a 64-bit value from the stack."""
        value = self.memory.read_int(self.sp, 8)
        self.sp = self.sp + 8
        return value
