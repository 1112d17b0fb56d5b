"""Two-pass assembler: assembly-level programs to TELF binaries.

The assembler consumes an :class:`AsmProgram` — an ordered list of
:class:`AsmFunction` (each a list of local labels and instructions) plus
global data objects — lays everything out in the virtual address space,
resolves symbolic labels to absolute addresses, records relocations for
materialised code/data pointers, encodes instructions to bytes and emits a
:class:`~repro.loader.binary_format.TelfBinary`.

This is the "compile side" of the reassembleable-disassembly loop: the
rewriter produces a new ``AsmProgram`` (with different layout after
instrumentation is inserted) and runs it back through the same assembler.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.isa.encoding import encode_instruction, encoded_length
from repro.isa.instructions import Instruction, Opcode
from repro.isa.operands import Imm, Label, Mem
from repro.loader.binary_format import (
    DataObject,
    Relocation,
    RelocationKind,
    Section,
    Symbol,
    SymbolKind,
    TelfBinary,
)
from repro.loader.layout import DEFAULT_LAYOUT, MemoryLayout


class AssemblerError(ValueError):
    """Raised when a program cannot be assembled (e.g. undefined label)."""


#: Items inside a function body: a local label (string) or an instruction.
AsmItem = Union[str, Instruction]


@dataclass
class AsmFunction:
    """An assembly-level function: a name and a list of labels/instructions."""

    name: str
    items: List[AsmItem] = field(default_factory=list)

    def instructions(self) -> List[Instruction]:
        """Only the instructions, in order."""
        return [item for item in self.items if isinstance(item, Instruction)]

    def labels(self) -> List[str]:
        """Only the local label names, in order of appearance."""
        return [item for item in self.items if isinstance(item, str)]

    def append(self, item: AsmItem) -> None:
        """Append a label or an instruction to the body."""
        self.items.append(item)


@dataclass
class AsmProgram:
    """A complete assembly-level program."""

    functions: List[AsmFunction] = field(default_factory=list)
    data_objects: List[DataObject] = field(default_factory=list)
    entry: str = "main"
    extra_imports: List[str] = field(default_factory=list)
    metadata: Dict[str, str] = field(default_factory=dict)

    def function(self, name: str) -> AsmFunction:
        """Look up a function by name.

        Raises:
            KeyError: if the function does not exist.
        """
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(f"no function named {name!r}")

    def has_function(self, name: str) -> bool:
        """Whether a function with ``name`` exists."""
        return any(f.name == name for f in self.functions)

    def add_function(self, func: AsmFunction) -> None:
        """Add a function, rejecting duplicate names."""
        if self.has_function(func.name):
            raise AssemblerError(f"duplicate function {func.name!r}")
        self.functions.append(func)

    def add_data(self, obj: DataObject) -> None:
        """Add a global data object, rejecting duplicate names."""
        if any(d.name == obj.name for d in self.data_objects):
            raise AssemblerError(f"duplicate data object {obj.name!r}")
        self.data_objects.append(obj)


def _align(value: int, alignment: int) -> int:
    if alignment <= 1:
        return value
    return (value + alignment - 1) // alignment * alignment


#: Opcodes whose label operand is a code target (not a materialised pointer).
_BRANCH_TARGET_OPCODES = frozenset(
    {
        Opcode.JMP,
        Opcode.JCC,
        Opcode.CALL,
        Opcode.TRAMP_JCC,
        Opcode.SPEC_REDIRECT,
        Opcode.CHECKPOINT,
    }
)


class Assembler:
    """Turns :class:`AsmProgram` instances into :class:`TelfBinary` images."""

    def __init__(self, layout: Optional[MemoryLayout] = None) -> None:
        self.layout = layout or DEFAULT_LAYOUT

    # -- public API ---------------------------------------------------------
    def assemble(self, program: AsmProgram) -> TelfBinary:
        """Assemble a program into a binary image.

        Raises:
            AssemblerError: on undefined labels, duplicate definitions or
                layout overflow.
        """
        imports = self._collect_imports(program)
        data_addresses, rodata_bytes, data_bytes, data_symbols, data_relocs = (
            self._layout_data(program)
        )
        func_addresses, label_addresses, func_sizes = self._layout_text(program)

        symbol_addresses: Dict[str, int] = {}
        symbol_addresses.update(data_addresses)
        symbol_addresses.update(func_addresses)

        text_bytes, code_relocs = self._resolve_and_encode(
            program, imports, symbol_addresses, label_addresses
        )

        sections = {
            ".text": Section(".text", self.layout.text_base, bytes(text_bytes)),
            ".rodata": Section(".rodata", self.layout.rodata_base, bytes(rodata_bytes)),
            ".data": Section(".data", self.layout.data_base, bytes(data_bytes)),
        }

        symbols: List[Symbol] = []
        for func in program.functions:
            symbols.append(
                Symbol(
                    name=func.name,
                    address=func_addresses[func.name],
                    size=func_sizes[func.name],
                    kind=SymbolKind.FUNCTION,
                    section=".text",
                )
            )
        symbols.extend(data_symbols)

        if not any(s.name == program.entry for s in symbols):
            raise AssemblerError(f"entry function {program.entry!r} is not defined")

        relocations = data_relocs + code_relocs
        binary = TelfBinary(
            sections=sections,
            symbols=symbols,
            imports=imports,
            relocations=relocations,
            entry=program.entry,
            layout=self.layout,
            metadata=dict(program.metadata),
        )
        return binary

    # -- pass 0: imports -------------------------------------------------------
    def _collect_imports(self, program: AsmProgram) -> List[str]:
        names: List[str] = list(program.extra_imports)
        defined = {f.name for f in program.functions}
        for func in program.functions:
            for instr in func.instructions():
                if instr.opcode is Opcode.ECALL and instr.operands:
                    target = instr.operands[0]
                    if isinstance(target, Label):
                        if target.name in defined:
                            raise AssemblerError(
                                f"ecall target {target.name!r} is a defined function; "
                                "use call instead"
                            )
                        if target.name not in names:
                            names.append(target.name)
        return names

    # -- pass 1: data layout ------------------------------------------------------
    def _layout_data(self, program: AsmProgram):
        rodata = bytearray()
        data = bytearray()
        addresses: Dict[str, int] = {}
        symbols: List[Symbol] = []
        relocations: List[Relocation] = []

        for obj in program.data_objects:
            if obj.section == ".rodata":
                buf, base = rodata, self.layout.rodata_base
            elif obj.section == ".data":
                buf, base = data, self.layout.data_base
            else:
                raise AssemblerError(f"unknown data section {obj.section!r}")
            offset = _align(len(buf), obj.align)
            buf.extend(b"\x00" * (offset - len(buf)))
            address = base + offset
            if obj.name in addresses:
                raise AssemblerError(f"duplicate data object {obj.name!r}")
            addresses[obj.name] = address
            buf.extend(obj.data)
            symbols.append(
                Symbol(obj.name, address, obj.size, SymbolKind.OBJECT, obj.section)
            )

        if self.layout.rodata_base + len(rodata) > self.layout.data_base:
            raise AssemblerError(".rodata overflows into .data")
        if self.layout.data_base + len(data) > self.layout.heap_base:
            raise AssemblerError(".data overflows into the heap region")

        # Pointer slots can refer to functions as well, whose addresses are
        # not known yet; record them and patch in _resolve_and_encode via a
        # second visit.  To keep it simple we return the raw objects and do
        # the patching here with a deferred list handled by the caller —
        # function addresses are computed before encoding, so we patch lazily
        # in assemble() by re-running this step.  Instead, we store the slot
        # info on the relocation list with addend and patch once addresses
        # are known (see _patch_data_pointers).
        self._pending_pointer_slots = []
        for obj in program.data_objects:
            for (slot_offset, symbol_name, addend) in obj.pointer_slots:
                slot_addr = addresses[obj.name] + slot_offset
                self._pending_pointer_slots.append(
                    (obj.section, slot_addr, symbol_name, addend)
                )
                relocations.append(
                    Relocation(slot_addr, symbol_name, addend, RelocationKind.ABS64_DATA)
                )
        self._rodata_buf = rodata
        self._data_buf = data
        return addresses, rodata, data, symbols, relocations

    # -- pass 2: text layout ------------------------------------------------------
    def _layout_text(self, program: AsmProgram):
        func_addresses: Dict[str, int] = {}
        label_addresses: Dict[str, Dict[str, int]] = {}
        func_sizes: Dict[str, int] = {}
        cursor = self.layout.text_base
        seen_local: Dict[str, int]

        for func in program.functions:
            if func.name in func_addresses:
                raise AssemblerError(f"duplicate function {func.name!r}")
            func_addresses[func.name] = cursor
            seen_local = {}
            start = cursor
            for item in func.items:
                if isinstance(item, str):
                    if item in seen_local:
                        raise AssemblerError(
                            f"duplicate label {item!r} in function {func.name!r}"
                        )
                    seen_local[item] = cursor
                else:
                    cursor += encoded_length(item)
            label_addresses[func.name] = seen_local
            func_sizes[func.name] = cursor - start

        if cursor > self.layout.rodata_base:
            raise AssemblerError(".text overflows into .rodata")
        return func_addresses, label_addresses, func_sizes

    # -- pass 3: resolve labels and encode -----------------------------------------
    def _resolve_and_encode(
        self,
        program: AsmProgram,
        imports: List[str],
        symbol_addresses: Dict[str, int],
        label_addresses: Dict[str, Dict[str, int]],
    ):
        # Patch data pointer slots now that function addresses are known.
        self._patch_data_pointers(symbol_addresses, label_addresses)

        text = bytearray()
        relocations: List[Relocation] = []
        cursor = self.layout.text_base

        for func in program.functions:
            local = label_addresses[func.name]
            for item in func.items:
                if isinstance(item, str):
                    continue
                instr = item
                resolved = self._resolve_instruction(
                    instr, func.name, imports, symbol_addresses, local, cursor,
                    relocations, label_addresses,
                )
                encoded = encode_instruction(resolved)
                expected = encoded_length(instr)
                if len(encoded) != expected:
                    raise AssemblerError(
                        f"layout mismatch for {instr}: planned {expected} bytes, "
                        f"encoded {len(encoded)}"
                    )
                instr.address = cursor
                instr.length = len(encoded)
                text.extend(encoded)
                cursor += len(encoded)
        return text, relocations

    def _patch_data_pointers(
        self,
        symbol_addresses: Dict[str, int],
        label_addresses: Dict[str, Dict[str, int]],
    ) -> None:
        for section, slot_addr, symbol_name, addend in self._pending_pointer_slots:
            base_addr = self._lookup_qualified(
                symbol_name, symbol_addresses, label_addresses
            )
            if base_addr is None:
                raise AssemblerError(
                    f"data pointer slot refers to undefined symbol {symbol_name!r}"
                )
            value = base_addr + addend
            if section == ".rodata":
                buf, base = self._rodata_buf, self.layout.rodata_base
            else:
                buf, base = self._data_buf, self.layout.data_base
            offset = slot_addr - base
            buf[offset:offset + 8] = struct.pack("<Q", value & ((1 << 64) - 1))

    @staticmethod
    def _lookup_qualified(
        name: str,
        symbol_addresses: Dict[str, int],
        label_addresses: Dict[str, Dict[str, int]],
    ) -> Optional[int]:
        """Resolve a global symbol or a ``function::local_label`` reference."""
        if "::" in name:
            func_name, _, local_label = name.partition("::")
            locals_map = label_addresses.get(func_name)
            if locals_map is not None and local_label in locals_map:
                return locals_map[local_label]
            return None
        return symbol_addresses.get(name)

    def _resolve_label(
        self,
        label: Label,
        func_name: str,
        symbol_addresses: Dict[str, int],
        local: Dict[str, int],
        label_addresses: Optional[Dict[str, Dict[str, int]]] = None,
    ) -> int:
        if "::" in label.name and label_addresses is not None:
            resolved = self._lookup_qualified(
                label.name, symbol_addresses, label_addresses
            )
            if resolved is not None:
                return resolved + label.addend
        if label.name in local:
            return local[label.name] + label.addend
        if label.name in symbol_addresses:
            return symbol_addresses[label.name] + label.addend
        raise AssemblerError(
            f"undefined label {label.name!r} referenced in function {func_name!r}"
        )

    def _resolve_instruction(
        self,
        instr: Instruction,
        func_name: str,
        imports: List[str],
        symbol_addresses: Dict[str, int],
        local: Dict[str, int],
        address: int,
        relocations: List[Relocation],
        label_addresses: Optional[Dict[str, Dict[str, int]]] = None,
    ) -> Instruction:
        new_operands = []
        for op in instr.operands:
            if isinstance(op, Label):
                if instr.opcode is Opcode.ECALL:
                    new_operands.append(Imm(imports.index(op.name)))
                    continue
                value = self._resolve_label(
                    op, func_name, symbol_addresses, local, label_addresses
                )
                new_operands.append(Imm(value))
                if instr.opcode not in _BRANCH_TARGET_OPCODES:
                    # A materialised code/data pointer: record a relocation so
                    # symbolization can recover the symbolic reference.
                    relocations.append(
                        Relocation(address, op.name, op.addend,
                                   RelocationKind.ABS64_CODE)
                    )
            elif isinstance(op, Mem) and isinstance(op.disp, Label):
                value = self._resolve_label(
                    op.disp, func_name, symbol_addresses, local, label_addresses
                )
                new_operands.append(op.with_disp(value))
                relocations.append(
                    Relocation(address, op.disp.name, op.disp.addend,
                               RelocationKind.ABS64_CODE)
                )
            else:
                new_operands.append(op)
        return instr.copy(operands=new_operands)
