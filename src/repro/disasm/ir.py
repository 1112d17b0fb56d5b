"""GTIRB-like intermediate representation of a disassembled binary.

The IR mirrors the structure the paper's tooling gets from GTIRB: a module
containing functions, each a list of basic blocks with explicit CFG edges,
plus the recovered data objects, imports and symbol information.  All code
references inside the IR are *symbolic* (labels), so passes may insert,
remove or duplicate code without worrying about addresses; the reassembler
(:mod:`repro.rewriting.reassemble`) re-lays everything out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.isa.instructions import (
    Instruction,
    falls_through,
    is_conditional_branch,
)
from repro.loader.binary_format import DataObject
from repro.loader.layout import DEFAULT_LAYOUT, MemoryLayout


@dataclass
class BasicBlock:
    """A maximal straight-line sequence of instructions.

    Attributes:
        label: the block's symbolic name (unique within its function).
        instructions: the block body, in program order.
        address: the block's original address in the input binary
            (``None`` for blocks synthesised by rewriting passes).
        successors: labels of CFG successor blocks *within the same
            function* (call targets are not successors; returns have none).
        address_taken: whether the block's address is materialised somewhere
            (jump-table entry, function-pointer table, computed goto) and it
            may therefore be reached by an indirect control transfer.
        is_return_site: whether the block starts immediately after a call
            and is therefore reached by a ``ret`` (an indirect transfer).
    """

    label: str
    instructions: List[Instruction] = field(default_factory=list)
    address: Optional[int] = None
    successors: List[str] = field(default_factory=list)
    address_taken: bool = False
    is_return_site: bool = False

    @property
    def terminator(self) -> Optional[Instruction]:
        """The block's final instruction, if the block is non-empty."""
        return self.instructions[-1] if self.instructions else None

    def falls_through(self) -> bool:
        """Whether control can flow past the end of this block."""
        term = self.terminator
        if term is None:
            return True
        return falls_through(term)

    def conditional_branches(self) -> List[Instruction]:
        """All conditional branches in the block (usually just the terminator)."""
        return [i for i in self.instructions if is_conditional_branch(i)]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class IRFunction:
    """A recovered function: an ordered list of basic blocks.

    The first block is the function entry.  Block order is layout order —
    reassembly emits blocks in this order, so fall-through relationships are
    preserved by construction.
    """

    name: str
    blocks: List[BasicBlock] = field(default_factory=list)
    address: Optional[int] = None

    def block(self, label: str) -> BasicBlock:
        """Look up a block by label.

        Raises:
            KeyError: if no block has that label.
        """
        for blk in self.blocks:
            if blk.label == label:
                return blk
        raise KeyError(f"no block labelled {label!r} in function {self.name!r}")

    def has_block(self, label: str) -> bool:
        """Whether a block with ``label`` exists."""
        return any(b.label == label for b in self.blocks)

    def instructions(self) -> Iterator[Instruction]:
        """Iterate over every instruction of the function in layout order."""
        for blk in self.blocks:
            yield from blk.instructions

    def instruction_count(self) -> int:
        """Total number of instructions in the function."""
        return sum(len(b) for b in self.blocks)

    def conditional_branch_count(self) -> int:
        """Number of conditional branches (speculation entry points)."""
        return sum(len(b.conditional_branches()) for b in self.blocks)

    def predecessors(self) -> Dict[str, Set[str]]:
        """Map from block label to the labels of its CFG predecessors."""
        preds: Dict[str, Set[str]] = {b.label: set() for b in self.blocks}
        for i, blk in enumerate(self.blocks):
            for succ in blk.successors:
                if succ in preds:
                    preds[succ].add(blk.label)
            if blk.falls_through() and i + 1 < len(self.blocks):
                preds[self.blocks[i + 1].label].add(blk.label)
        return preds

    def copy_renamed(self, new_name: str, label_map: Dict[str, str]) -> "IRFunction":
        """Deep-copy the function under a new name, renaming block labels.

        ``label_map`` must map every existing block label to its new label;
        intra-function label references inside instruction operands are *not*
        rewritten here (passes handle operand rewriting so they can also
        retarget cross-function references).
        """
        new_blocks = []
        for blk in self.blocks:
            new_blocks.append(
                BasicBlock(
                    label=label_map[blk.label],
                    instructions=[i.copy() for i in blk.instructions],
                    address=blk.address,
                    successors=[label_map.get(s, s) for s in blk.successors],
                    address_taken=blk.address_taken,
                    is_return_site=blk.is_return_site,
                )
            )
        return IRFunction(name=new_name, blocks=new_blocks, address=None)


@dataclass
class Module:
    """A fully disassembled and symbolized binary."""

    functions: List[IRFunction] = field(default_factory=list)
    data_objects: List[DataObject] = field(default_factory=list)
    imports: List[str] = field(default_factory=list)
    entry: str = "main"
    layout: MemoryLayout = field(default_factory=lambda: DEFAULT_LAYOUT)
    metadata: Dict[str, str] = field(default_factory=dict)

    def function(self, name: str) -> IRFunction:
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

    def data_object(self, name: str) -> DataObject:
        """Look up a data object by name.

        Raises:
            KeyError: if the object does not exist.
        """
        for obj in self.data_objects:
            if obj.name == name:
                return obj
        raise KeyError(f"no data object named {name!r}")

    def instruction_count(self) -> int:
        """Total number of instructions across all functions."""
        return sum(f.instruction_count() for f in self.functions)

    def function_names(self) -> List[str]:
        """Names of all functions, in layout order."""
        return [f.name for f in self.functions]
