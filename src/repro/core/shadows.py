"""Speculation Shadows: Real Copy / Shadow Copy duplication (paper §5.2).

For every function ``f`` the pass creates ``f$spec`` — a byte-for-byte copy
whose block labels are suffixed with ``$spec`` — and retargets all
*statically known* control flow inside the copy:

* intra-function branches go to the corresponding shadow blocks,
* direct calls go to the callee's shadow copy,
* external calls (``ecall``) are left alone (they terminate the simulation
  through an unconditional restore point inserted later).

Indirect control flow (returns, indirect calls/jumps) cannot be retargeted
statically; those are handled at run time by the escape checks and the
marker blocks of :mod:`repro.core.markers`.
"""

from __future__ import annotations

from typing import Dict

from repro.disasm.ir import IRFunction, Module
from repro.isa.instructions import Instruction, Opcode
from repro.isa.operands import Label
from repro.rewriting.passes import RewriteError, RewritePass

#: Suffix appended to Shadow-Copy function names and block labels.
SHADOW_SUFFIX = "$spec"


def shadow_name(name: str) -> str:
    """Shadow-copy name of a function or block label."""
    return name + SHADOW_SUFFIX


def is_shadow_function(name: str) -> bool:
    """Whether a function name denotes a Shadow Copy."""
    return name.endswith(SHADOW_SUFFIX)


class ShadowCopyPass(RewritePass):
    """Duplicate every function into its Shadow Copy."""

    name = "shadow-copy"

    def run(self, module: Module) -> None:
        original_functions = [
            f for f in module.functions if not is_shadow_function(f.name)
        ]
        defined_names = {f.name for f in original_functions}
        shadow_functions = []
        for func in original_functions:
            if module.has_function(shadow_name(func.name)):
                raise RewriteError(
                    f"module already contains a shadow copy of {func.name!r}"
                )
            shadow_functions.append(self._make_shadow(func, defined_names))
            self.bump("functions_copied")
        module.functions.extend(shadow_functions)
        module.metadata["speculation_shadows"] = "1"

    def _make_shadow(self, func: IRFunction, defined_names) -> IRFunction:
        label_map: Dict[str, str] = {blk.label: shadow_name(blk.label) for blk in func.blocks}
        shadow = func.copy_renamed(shadow_name(func.name), label_map)
        for blk in shadow.blocks:
            for instr in blk.instructions:
                self._retarget(instr, label_map, defined_names)
                self.bump("instructions_copied")
        return shadow

    def _retarget(self, instr: Instruction, label_map: Dict[str, str], defined_names) -> None:
        opcode = instr.opcode
        if opcode in (Opcode.JMP, Opcode.JCC):
            target = instr.operands[0]
            if isinstance(target, Label):
                if target.name in label_map:
                    instr.operands[0] = Label(label_map[target.name], target.addend)
                elif target.name in defined_names:
                    # Direct tail jump to another function: go to its shadow.
                    instr.operands[0] = Label(shadow_name(target.name), target.addend)
        elif opcode is Opcode.CALL:
            target = instr.operands[0]
            if isinstance(target, Label) and target.name in defined_names:
                instr.operands[0] = Label(shadow_name(target.name), target.addend)
                self.bump("calls_retargeted")
        # Materialised code pointers (mov of a function address, jump tables)
        # are intentionally NOT retargeted: they keep referring to Real-Copy
        # code, exactly like the paper's Figure 5(b) scenario, and are
        # handled by the run-time escape checks.
