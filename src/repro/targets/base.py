"""Target-program infrastructure: definitions, registry, perf inputs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.loader.binary_format import TelfBinary
from repro.minic.codegen import CompilerOptions
from repro.minic.compiler import compile_source
from repro.plugins import PluginRegistry


@dataclass
class AttackPoint:
    """A location where an artificial Spectre gadget can be injected.

    ``marker`` is the textual marker embedded in the mini-C source
    (``/*@ATTACK_POINT:<id>@*/``); ``function`` is the function containing
    it (used to map gadget reports back to ground truth); ``reachable``
    records whether the fuzzing driver can reach the function at all — the
    paper's libyaml experiment has two injected gadgets in modules the
    driver never exercises, which become the two "expected" false negatives.
    """

    marker_id: int
    function: str
    reachable: bool = True


@dataclass
class TargetProgram:
    """A workload program of the evaluation (paper §7, "experimental setup")."""

    name: str
    source: str
    seeds: List[bytes]
    attack_points: List[AttackPoint] = field(default_factory=list)
    perf_input_builder: Optional[Callable[[int], bytes]] = None
    description: str = ""
    #: speculation variants with known (planted or paper-documented)
    #: gadgets in this program — the capability list ``repro targets
    #: --json`` publishes so campaigns and tests need no ad-hoc knowledge.
    variants: List[str] = field(default_factory=lambda: ["pht"])

    def compile(self, options: Optional[CompilerOptions] = None) -> TelfBinary:
        """Compile the target's mini-C source to a COTS binary."""
        return compile_source(self.source, options or CompilerOptions())

    def perf_input(self, size: int = 256) -> bytes:
        """A large crafted input for the run-time performance experiments."""
        if self.perf_input_builder is not None:
            return self.perf_input_builder(size)
        # Fall back to repeating the largest seed up to the requested size.
        seed = max(self.seeds, key=len) if self.seeds else b"A"
        repeated = (seed * (size // max(len(seed), 1) + 1))[:size]
        return repeated

    def marker_text(self, marker_id: int) -> str:
        """The literal marker string for an attack point."""
        return f"/*@ATTACK_POINT:{marker_id}@*/"


class TargetRegistry(PluginRegistry):
    """Registry of the evaluation's workload programs.

    A :class:`~repro.plugins.PluginRegistry` keyed by ``target.name`` —
    duplicate registrations raise, unknown lookups raise an error listing
    every registered target, and third-party workloads plug in through
    :func:`repro.plugins.register_target` (re-exported by ``repro.api``).
    """

    def __init__(self) -> None:
        super().__init__("target")

    def register(self, target: TargetProgram,
                 replace: bool = False) -> TargetProgram:
        """Register a target (used by the per-target modules at import time)."""
        return super().register(target.name, target, replace=replace)


#: The global registry populated by importing :mod:`repro.targets`.
REGISTRY = TargetRegistry()
