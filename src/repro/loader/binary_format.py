"""In-memory model of a TELF binary (the x86-64 ELF stand-in).

A :class:`TelfBinary` is what the assembler produces, what gets written to
disk, and what the disassembler takes apart.  It deliberately stores *only*
what a stripped-of-source COTS artefact would carry: raw section bytes,
function/object symbols, imports and relocations — no basic blocks, no CFG,
no types.  Everything else must be recovered by :mod:`repro.disasm`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.loader.layout import DEFAULT_LAYOUT, MemoryLayout


class SymbolKind(enum.Enum):
    """Kind of a symbol-table entry."""

    FUNCTION = "function"
    OBJECT = "object"


class RelocationKind(enum.Enum):
    """Kind of a relocation entry.

    ``ABS64_DATA``
        an 8-byte absolute pointer stored in a data section (function
        pointers in globals, jump-table entries).
    ``ABS64_CODE``
        an 8-byte absolute address materialised as an instruction immediate
        (``mov rX, <symbol>`` / ``lea``-like address formation).
    """

    ABS64_DATA = "abs64_data"
    ABS64_CODE = "abs64_code"


@dataclass
class Symbol:
    """A symbol-table entry."""

    name: str
    address: int
    size: int
    kind: SymbolKind
    section: str

    def contains(self, addr: int) -> bool:
        """Whether ``addr`` falls inside this symbol's extent."""
        return self.address <= addr < self.address + max(self.size, 1)


@dataclass
class Relocation:
    """A relocation entry: the pointer stored at ``address`` refers to ``symbol + addend``."""

    address: int
    symbol: str
    addend: int
    kind: RelocationKind


@dataclass
class Section:
    """A loadable section: raw bytes at a fixed virtual address."""

    name: str
    address: int
    data: bytes

    @property
    def size(self) -> int:
        """Section size in bytes."""
        return len(self.data)

    @property
    def end(self) -> int:
        """One past the last valid address of the section."""
        return self.address + len(self.data)

    def contains(self, addr: int) -> bool:
        """Whether ``addr`` falls inside the section."""
        return self.address <= addr < self.end


@dataclass
class DataObject:
    """A global data object at the assembly level (pre-layout).

    Used by the assembler and the mini-C code generator; once laid out it
    becomes bytes in ``.data``/``.rodata`` plus a :class:`Symbol` and
    possibly :class:`Relocation` entries for embedded pointers.
    """

    name: str
    data: bytes
    section: str = ".data"
    align: int = 8
    #: (offset, symbol, addend) triples for 8-byte pointer slots inside ``data``.
    pointer_slots: List[tuple] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Object size in bytes."""
        return len(self.data)


@dataclass
class TelfBinary:
    """A complete TVM binary image."""

    sections: Dict[str, Section]
    symbols: List[Symbol]
    imports: List[str]
    relocations: List[Relocation]
    entry: str = "main"
    layout: MemoryLayout = field(default_factory=lambda: DEFAULT_LAYOUT)
    metadata: Dict[str, str] = field(default_factory=dict)

    # -- section helpers -----------------------------------------------------
    @property
    def text(self) -> Section:
        """The executable ``.text`` section."""
        return self.sections[".text"]

    def section_at(self, addr: int) -> Optional[Section]:
        """The section containing ``addr``, or ``None``."""
        for section in self.sections.values():
            if section.contains(addr):
                return section
        return None

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes of initialised section data at ``addr``.

        Raises:
            KeyError: if the range is not covered by a single section.
        """
        section = self.section_at(addr)
        if section is None or addr + size > section.end:
            raise KeyError(f"address range {addr:#x}+{size} not in any section")
        start = addr - section.address
        return section.data[start:start + size]

    # -- symbol helpers --------------------------------------------------------
    def symbol(self, name: str) -> Symbol:
        """Look up a symbol by name.

        Raises:
            KeyError: if no symbol has that name.
        """
        for sym in self.symbols:
            if sym.name == name:
                return sym
        raise KeyError(f"no symbol named {name!r}")

    def has_symbol(self, name: str) -> bool:
        """Whether a symbol with ``name`` exists."""
        return any(sym.name == name for sym in self.symbols)

    def function_symbols(self) -> List[Symbol]:
        """All function symbols, sorted by address."""
        funcs = [s for s in self.symbols if s.kind is SymbolKind.FUNCTION]
        return sorted(funcs, key=lambda s: s.address)

    def object_symbols(self) -> List[Symbol]:
        """All data-object symbols, sorted by address."""
        objs = [s for s in self.symbols if s.kind is SymbolKind.OBJECT]
        return sorted(objs, key=lambda s: s.address)

    def symbol_at(self, addr: int) -> Optional[Symbol]:
        """The symbol whose extent contains ``addr``, or ``None``."""
        for sym in self.symbols:
            if sym.contains(addr):
                return sym
        return None

    def function_at(self, addr: int) -> Optional[Symbol]:
        """The function symbol whose extent contains ``addr``, or ``None``."""
        for sym in self.function_symbols():
            if sym.contains(addr):
                return sym
        return None

    def entry_address(self) -> int:
        """Virtual address of the entry function."""
        return self.symbol(self.entry).address

    # -- import helpers --------------------------------------------------------
    def import_index(self, name: str) -> int:
        """Index of an imported external function.

        Raises:
            KeyError: if the function is not imported.
        """
        try:
            return self.imports.index(name)
        except ValueError as exc:
            raise KeyError(f"{name!r} is not imported") from exc

    def import_name(self, index: int) -> str:
        """Name of the imported function with the given index."""
        return self.imports[index]

    def summary(self) -> str:
        """A short human-readable description of the binary."""
        lines = [f"TELF binary (entry={self.entry})"]
        for name, sec in sorted(self.sections.items()):
            lines.append(f"  {name:8s} {sec.address:#10x}  {sec.size} bytes")
        lines.append(f"  symbols: {len(self.symbols)}  imports: {len(self.imports)}"
                     f"  relocations: {len(self.relocations)}")
        return "\n".join(lines)
