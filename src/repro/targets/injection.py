"""Artificial gadget injection (the Table 3 methodology, paper §7.2).

Takes a :class:`~repro.targets.base.TargetProgram`, replaces each of its
``/*@ATTACK_POINT:<id>@*/`` markers with a Kocher-style gadget snippet from
:mod:`repro.targets.gadget_samples`, appends the snippet's globals, and
compiles the result.  The injected binary plus the recorded ground truth
(which functions contain which gadget instance, and whether the driver can
reach them) is what the Table 3 benchmark fuzzes and scores.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.loader.binary_format import TelfBinary
from repro.minic.codegen import CompilerOptions
from repro.minic.compiler import compile_source
from repro.targets.base import TargetProgram
from repro.targets.gadget_samples import gadget_globals, gadget_snippet

_MARKER_RE = re.compile(r"/\*@ATTACK_POINT:(\d+)@\*/")


@dataclass
class InjectedGadget:
    """Ground-truth record for one injected gadget."""

    marker_id: int
    function: str
    variant: int
    reachable: bool


@dataclass
class InjectedTarget:
    """An injection result: modified source, compiled binary, ground truth."""

    target_name: str
    source: str
    binary: TelfBinary
    gadgets: List[InjectedGadget] = field(default_factory=list)

    @property
    def ground_truth_count(self) -> int:
        """Total number of injected gadgets (the GT column of Table 3)."""
        return len(self.gadgets)

    @property
    def reachable_count(self) -> int:
        """Number of injected gadgets reachable from the fuzzing driver."""
        return sum(1 for g in self.gadgets if g.reachable)

    def functions_with_gadgets(self) -> Dict[str, List[InjectedGadget]]:
        """Map of function name to the gadgets injected into it."""
        result: Dict[str, List[InjectedGadget]] = {}
        for gadget in self.gadgets:
            result.setdefault(gadget.function, []).append(gadget)
        return result


def strip_markers(source: str) -> str:
    """Remove all attack-point markers (used to build the vanilla binaries)."""
    return _MARKER_RE.sub("", source)


def inject_gadgets(
    target: TargetProgram,
    options: Optional[CompilerOptions] = None,
    variant_offset: int = 0,
) -> InjectedTarget:
    """Inject one gadget at every attack point of ``target`` and compile.

    Gadget variants are assigned round-robin so each program receives a mix
    of the Kocher examples, as in SpecTaint's original setup.
    """
    point_by_id = {point.marker_id: point for point in target.attack_points}
    gadgets: List[InjectedGadget] = []
    globals_text: List[str] = []

    def _replace(match: re.Match) -> str:
        marker_id = int(match.group(1))
        point = point_by_id.get(marker_id)
        if point is None:
            raise ValueError(
                f"marker {marker_id} in {target.name!r} has no registered attack point"
            )
        variant = (marker_id + variant_offset) % 4
        gadgets.append(
            InjectedGadget(marker_id=marker_id, function=point.function,
                           variant=variant, reachable=point.reachable)
        )
        globals_text.append(gadget_globals(marker_id))
        return gadget_snippet(marker_id, variant)

    injected_source = _MARKER_RE.sub(_replace, target.source)
    injected_source = "\n".join(globals_text) + "\n" + injected_source

    missing = [p.marker_id for p in target.attack_points
               if p.marker_id not in {g.marker_id for g in gadgets}]
    if missing:
        raise ValueError(
            f"attack points {missing} of {target.name!r} have no marker in the source"
        )

    binary = compile_source(injected_source, options or CompilerOptions())
    return InjectedTarget(
        target_name=target.name,
        source=injected_source,
        binary=binary,
        gadgets=gadgets,
    )


def compile_vanilla(target: TargetProgram,
                    options: Optional[CompilerOptions] = None) -> TelfBinary:
    """Compile the unmodified (marker-stripped) target."""
    return compile_source(strip_markers(target.source), options or CompilerOptions())
