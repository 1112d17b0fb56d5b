"""The TELF disassembler: byte blobs back to a symbolized IR.

Mirrors the role of Datalog Disassembly in the paper: decode the text
section, find basic-block leaders, rebuild the CFG, and *symbolize* every
code and data reference so the module can be re-laid-out after rewriting.

Like the paper's platform, the disassembler relies on the binary's symbol
table for function extents (Teapot targets unstripped COTS binaries) and on
relocation information plus heuristics for pointer recovery; section 8 of
the paper discusses why incorrect symbolization is a fundamental limitation
of static rewriting.  The heuristic path (pointer-looking values inside data
objects with no relocation) is exercised by tests to document this failure
mode.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Set, Tuple

from repro.disasm.ir import BasicBlock, IRFunction, Module
from repro.isa.encoding import EncodingError, decode_instruction
from repro.isa.instructions import (
    Instruction,
    Opcode,
)
from repro.isa.operands import Imm, Label, Mem
from repro.loader.binary_format import (
    DataObject,
    RelocationKind,
    Symbol,
    SymbolKind,
    TelfBinary,
)


class DisassemblyError(ValueError):
    """Raised when a binary cannot be disassembled into a well-formed module."""


def disassemble(binary: TelfBinary) -> Module:
    """Disassemble and symbolize ``binary`` into a :class:`Module`."""
    return Disassembler(binary).run()


class Disassembler:
    """Stateful disassembler for a single binary."""

    def __init__(self, binary: TelfBinary) -> None:
        self.binary = binary
        self.layout = binary.layout
        self._functions = binary.function_symbols()
        self._func_by_name = {s.name: s for s in self._functions}
        #: decoded instructions per function, keyed by address
        self._decoded: Dict[str, List[Instruction]] = {}
        #: block leader addresses per function
        self._leaders: Dict[str, Set[int]] = {}
        #: addresses referenced by data/code pointers (address-taken)
        self._taken_addresses: Set[int] = set()
        #: return-site addresses (instruction following a call)
        self._return_sites: Set[int] = set()
        #: address -> (function name, block label) once blocks are formed
        self._block_labels: Dict[int, Tuple[str, str]] = {}

    # -- driver ---------------------------------------------------------------
    def run(self) -> Module:
        """Execute the full disassembly pipeline."""
        if not self._functions:
            raise DisassemblyError("binary has no function symbols")
        self._decode_functions()
        self._collect_pointer_targets()
        self._find_leaders()
        functions = self._build_functions()
        self._symbolize(functions)
        data_objects = self._recover_data_objects()
        return Module(
            functions=functions,
            data_objects=data_objects,
            imports=list(self.binary.imports),
            entry=self.binary.entry,
            layout=self.layout,
            metadata=dict(self.binary.metadata),
        )

    # -- stage 1: linear decode within each function ----------------------------
    def _decode_functions(self) -> None:
        text = self.binary.text
        for sym in self._functions:
            if sym.size == 0:
                raise DisassemblyError(f"function symbol {sym.name!r} has zero size")
            start = sym.address - text.address
            end = start + sym.size
            if start < 0 or end > len(text.data):
                raise DisassemblyError(
                    f"function {sym.name!r} extent escapes the text section"
                )
            instrs: List[Instruction] = []
            offset = start
            while offset < end:
                try:
                    instr, length = decode_instruction(text.data, offset)
                except EncodingError as exc:
                    raise DisassemblyError(
                        f"failed to decode instruction at {text.address + offset:#x} "
                        f"in {sym.name!r}: {exc}"
                    ) from exc
                instr.address = text.address + offset
                instrs.append(instr)
                offset += length
            if offset != end:
                raise DisassemblyError(
                    f"function {sym.name!r} does not end on an instruction boundary"
                )
            self._decoded[sym.name] = instrs

    # -- stage 2: pointer targets (address-taken code) -----------------------------
    def _collect_pointer_targets(self) -> None:
        text = self.binary.text
        for reloc in self.binary.relocations:
            if reloc.kind is RelocationKind.ABS64_DATA:
                section = self.binary.section_at(reloc.address)
                if section is None or section.name == ".text":
                    continue
                raw = section.data[reloc.address - section.address:
                                   reloc.address - section.address + 8]
                if len(raw) == 8:
                    value = struct.unpack("<Q", raw)[0]
                    if text.contains(value):
                        self._taken_addresses.add(value)
            elif reloc.kind is RelocationKind.ABS64_CODE:
                target = self._reloc_target_address(reloc)
                if target is not None and text.contains(target):
                    self._taken_addresses.add(target)
        # Heuristic sweep: when the binary carries no relocation information
        # at all (a fully stripped COTS artefact), fall back to treating
        # 8-byte-aligned pointer-looking values in data sections as
        # address-taken code.  This is the best a static rewriter can do and
        # is where mis-symbolization can creep in (paper §8).
        if not self.binary.relocations:
            for name in (".data", ".rodata"):
                section = self.binary.sections.get(name)
                if section is None:
                    continue
                for off in range(0, len(section.data) - 7, 8):
                    value = struct.unpack_from("<Q", section.data, off)[0]
                    if text.contains(value):
                        self._taken_addresses.add(value)

    def _reloc_target_address(self, reloc) -> Optional[int]:
        if "::" in reloc.symbol:
            func_name, _, _ = reloc.symbol.partition("::")
            sym = self._func_by_name.get(func_name)
            if sym is None:
                return None
            # The addend in qualified relocations is relative to the local
            # label, whose address we do not know here; the heuristic sweep
            # over data bytes covers these, so skip.
            return None
        if self.binary.has_symbol(reloc.symbol):
            return self.binary.symbol(reloc.symbol).address + reloc.addend
        return None

    # -- stage 3: leaders ------------------------------------------------------------
    def _find_leaders(self) -> None:
        for sym in self._functions:
            instrs = self._decoded[sym.name]
            leaders: Set[int] = {sym.address}
            for idx, instr in enumerate(instrs):
                next_addr = (
                    instrs[idx + 1].address if idx + 1 < len(instrs) else None
                )
                if instr.opcode in (Opcode.JMP, Opcode.JCC):
                    target = instr.operands[0]
                    if isinstance(target, Imm) and sym.contains(target.value):
                        leaders.add(target.value)
                    if next_addr is not None:
                        leaders.add(next_addr)
                elif instr.opcode in (Opcode.IJMP, Opcode.RET, Opcode.HALT):
                    if next_addr is not None:
                        leaders.add(next_addr)
                elif instr.opcode in (Opcode.CALL, Opcode.ICALL):
                    # The instruction after a call is a return site: it is
                    # reached by an indirect transfer (ret), which Teapot's
                    # escape-marker pass must protect.
                    if next_addr is not None:
                        leaders.add(next_addr)
                        self._return_sites.add(next_addr)
            for addr in self._taken_addresses:
                if sym.contains(addr):
                    leaders.add(addr)
            self._leaders[sym.name] = leaders

    # -- stage 4: block formation -------------------------------------------------------
    def _build_functions(self) -> List[IRFunction]:
        functions: List[IRFunction] = []
        for sym in self._functions:
            instrs = self._decoded[sym.name]
            leaders = self._leaders[sym.name]
            valid_addresses = {i.address for i in instrs}
            for leader in leaders:
                if leader not in valid_addresses:
                    raise DisassemblyError(
                        f"block leader {leader:#x} in {sym.name!r} is not on an "
                        "instruction boundary"
                    )
            blocks: List[BasicBlock] = []
            current: Optional[BasicBlock] = None
            for instr in instrs:
                if instr.address in leaders:
                    label = self._label_for(sym.name, instr.address)
                    current = BasicBlock(
                        label=label,
                        address=instr.address,
                        address_taken=instr.address in self._taken_addresses,
                        is_return_site=instr.address in self._return_sites,
                    )
                    blocks.append(current)
                    self._block_labels[instr.address] = (sym.name, label)
                assert current is not None
                current.instructions.append(instr)
            functions.append(
                IRFunction(name=sym.name, blocks=blocks, address=sym.address)
            )
        return functions

    @staticmethod
    def _label_for(func_name: str, address: int) -> str:
        return f".L_{func_name}_{address:x}"

    # -- stage 5: symbolization -------------------------------------------------------------
    def _symbolize(self, functions: List[IRFunction]) -> None:
        reloc_index: Dict[int, List] = {}
        for reloc in self.binary.relocations:
            if reloc.kind is RelocationKind.ABS64_CODE:
                reloc_index.setdefault(reloc.address, []).append(reloc)

        for func in functions:
            func_sym = self._func_by_name[func.name]
            for blk in func.blocks:
                for instr in blk.instructions:
                    self._symbolize_instruction(
                        instr, func, func_sym, reloc_index.get(instr.address, [])
                    )
                self._compute_successors(func, blk)

    def _symbolize_instruction(
        self,
        instr: Instruction,
        func: IRFunction,
        func_sym: Symbol,
        relocs: List,
    ) -> None:
        if instr.opcode in (Opcode.JMP, Opcode.JCC):
            target = instr.operands[0]
            if isinstance(target, Imm):
                instr.operands[0] = self._code_label(target.value, func)
        elif instr.opcode is Opcode.CALL:
            target = instr.operands[0]
            if isinstance(target, Imm):
                callee = self.binary.function_at(target.value)
                if callee is None or callee.address != target.value:
                    raise DisassemblyError(
                        f"call at {instr.address:#x} targets {target.value:#x}, "
                        "which is not a function entry"
                    )
                instr.operands[0] = Label(callee.name)
        elif instr.opcode is Opcode.ECALL:
            target = instr.operands[0]
            if isinstance(target, Imm):
                instr.operands[0] = Label(self.binary.import_name(target.value))

        # Re-symbolize materialised pointers using relocations.
        for reloc in relocs:
            expected = self._symbol_address(reloc.symbol)
            if expected is None:
                continue
            expected += reloc.addend
            for pos, op in enumerate(instr.operands):
                if isinstance(op, Imm) and op.value == expected:
                    instr.operands[pos] = self._pointer_label(
                        reloc.symbol, reloc.addend, expected, func
                    )
                    break
                if isinstance(op, Mem) and isinstance(op.disp, int) and op.disp == expected:
                    new_disp = self._pointer_label(
                        reloc.symbol, reloc.addend, expected, func
                    )
                    instr.operands[pos] = op.with_disp(new_disp)
                    break

    def _symbol_address(self, name: str) -> Optional[int]:
        if "::" in name:
            # Qualified (function-local) symbols cannot be looked up from the
            # symbol table; the heuristic value-based path handles them.
            return None
        if self.binary.has_symbol(name):
            return self.binary.symbol(name).address
        return None

    def _pointer_label(
        self, symbol: str, addend: int, address: int, func: IRFunction
    ) -> Label:
        # Prefer a block label when the pointer targets code inside a known
        # function (jump tables, address-taken blocks).
        if address in self._block_labels:
            owner, label = self._block_labels[address]
            if owner == func.name:
                return Label(label)
            return Label(f"{owner}::{label}")
        return Label(symbol, addend)

    def _code_label(self, address: int, func: IRFunction) -> Label:
        if address in self._block_labels:
            owner, label = self._block_labels[address]
            if owner == func.name:
                return Label(label)
            # Cross-function direct jump (tail call): reference the function.
            target_func = self.binary.function_at(address)
            if target_func is not None and target_func.address == address:
                return Label(target_func.name)
            return Label(f"{owner}::{label}")
        raise DisassemblyError(
            f"branch in {func.name!r} targets {address:#x}, which is not a "
            "recovered block leader"
        )

    def _compute_successors(self, func: IRFunction, blk: BasicBlock) -> None:
        term = blk.terminator
        successors: List[str] = []
        if term is not None:
            if term.opcode in (Opcode.JMP, Opcode.JCC):
                target = term.operands[0]
                if isinstance(target, Label) and func.has_block(target.name):
                    successors.append(target.name)
            elif term.opcode is Opcode.IJMP:
                successors.extend(self._jump_table_successors(func, term))
        if blk.falls_through():
            idx = func.blocks.index(blk)
            if idx + 1 < len(func.blocks):
                successors.append(func.blocks[idx + 1].label)
        blk.successors = successors

    def _jump_table_successors(self, func: IRFunction, term: Instruction) -> List[str]:
        """Recover jump-table targets for a memory-indirect ``ijmp``.

        Jump tables are rodata objects full of code pointers; the paper's
        platform recovers them through Datalog Disassembly's table analysis.
        Here the memory operand's displacement (symbolized to the table
        object) identifies the table, and its pointer values give the
        targets.
        """
        mem = term.memory_operand()
        if mem is None:
            return []
        table_addr: Optional[int] = None
        if isinstance(mem.disp, Label):
            if self.binary.has_symbol(mem.disp.name):
                table_addr = self.binary.symbol(mem.disp.name).address + mem.disp.addend
        elif isinstance(mem.disp, int) and mem.disp:
            table_addr = mem.disp
        if table_addr is None:
            return []
        obj_sym = self.binary.symbol_at(table_addr)
        if obj_sym is None or obj_sym.kind is not SymbolKind.OBJECT:
            return []
        section = self.binary.section_at(obj_sym.address)
        if section is None:
            return []
        start = obj_sym.address - section.address
        data = section.data[start:start + obj_sym.size]
        targets: List[str] = []
        for off in range(0, len(data) - 7, 8):
            value = struct.unpack_from("<Q", data, off)[0]
            if value in self._block_labels:
                owner, label = self._block_labels[value]
                if owner == func.name and label not in targets:
                    targets.append(label)
        return targets

    # -- stage 6: data object recovery ------------------------------------------------------
    def _recover_data_objects(self) -> List[DataObject]:
        reloc_slots = {
            reloc.address
            for reloc in self.binary.relocations
            if reloc.kind is RelocationKind.ABS64_DATA
        }
        use_heuristic = not self.binary.relocations
        objects: List[DataObject] = []
        for sym in self.binary.object_symbols():
            section = self.binary.section_at(sym.address)
            if section is None:
                raise DisassemblyError(
                    f"data symbol {sym.name!r} does not fall in any section"
                )
            start = sym.address - section.address
            data = bytes(section.data[start:start + sym.size])
            pointer_slots: List[tuple] = []
            for off in range(0, max(len(data) - 7, 0), 8):
                is_reloc_slot = (sym.address + off) in reloc_slots
                if not is_reloc_slot and not use_heuristic:
                    continue
                value = struct.unpack_from("<Q", data, off)[0]
                slot = self._classify_pointer(value)
                if slot is not None:
                    pointer_slots.append((off, slot[0], slot[1]))
            objects.append(
                DataObject(
                    name=sym.name,
                    data=data,
                    section=section.name,
                    align=8,
                    pointer_slots=pointer_slots,
                )
            )
        return objects

    def _classify_pointer(self, value: int) -> Optional[Tuple[str, int]]:
        """Classify an 8-byte data value as a symbolic pointer, if it is one."""
        if value in self._block_labels:
            owner, label = self._block_labels[value]
            func_sym = self._func_by_name[owner]
            if value == func_sym.address:
                return owner, 0
            return f"{owner}::{label}", 0
        text = self.binary.text
        if text.contains(value):
            func_sym = self.binary.function_at(value)
            if func_sym is not None:
                return func_sym.name, value - func_sym.address
        for name in (".data", ".rodata"):
            section = self.binary.sections.get(name)
            if section is not None and section.contains(value):
                owner = self.binary.symbol_at(value)
                if owner is not None and owner.kind is SymbolKind.OBJECT:
                    return owner.name, value - owner.address
        return None
