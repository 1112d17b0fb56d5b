"""The :class:`SpeculationModel` abstraction: pluggable Spectre variants.

The original reproduction simulated exactly one speculation primitive —
conditional-branch misprediction (Spectre-PHT), entered through the
``checkpoint`` pseudo-ops the rewriter plants before conditional branches.
A :class:`SpeculationModel` generalises the *entry* side of the simulation
while reusing everything downstream unchanged: the speculation controller's
checkpoints and rollback, the copy-on-write journal, the detection
policies, the coverage maps and the cost accounting all stay shared.

A model answers four questions:

* ``speculation_sources(instr)`` — is this instruction an entry (or
  observation) site of the model?  The compiled engines consult this when
  they classify an instruction: model sites fall back to the generic
  legacy handlers (where the model hooks live), so every engine executes
  model semantics through the *same* code and cannot diverge.
* ``mispredicted_targets(...)`` — given the architectural outcome of a
  site, which wrong program counters could the hardware speculate to?
* per-model cycle cost — ``entry_cost`` cycles are charged when the model
  starts a simulation (the PHT entry cost is carried by the ``checkpoint``
  pseudo-op itself, so :class:`~repro.specmodels.pht.PhtModel` charges 0).
* nesting interaction — ``nests`` says whether the model may start a
  *nested* simulation while another one is active; models that do still go
  through the controller's nesting policy, so the per-branch heuristics of
  Teapot/SpecFuzz/SpecTaint bound every model's entries uniformly.

Models are **stateful** (branch-target history, return-stack buffer, store
windows) and therefore instantiated per runtime via
:func:`repro.specmodels.build_models`; registration happens through
``@repro.plugins.register_model`` so third-party variants plug in exactly
like targets, engines, passes and schedulers do.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, List, TYPE_CHECKING

from repro.isa.instructions import Instruction, Opcode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.emulator import Emulator


class SpeculationModel(abc.ABC):
    """One speculation primitive the runtime can simulate."""

    #: registry name ("pht", "btb", "rsb", "stl", ...).
    name: str = "base"
    #: whether the model enters simulations dynamically at architectural
    #: instructions (every model except the checkpoint-driven ``pht``).
    dynamic: bool = True
    #: whether the model may start a nested simulation while another
    #: simulation (of any model) is already active.
    nests: bool = True
    #: cycles charged when this model starts a simulation.
    entry_cost: int = 0
    #: opcodes of the instructions the model must observe or enter at.
    source_opcodes: FrozenSet[Opcode] = frozenset()
    #: capability flags the emulator uses to route its hooks.
    predicts_indirect: bool = False   # icall/ijmp misprediction (BTB)
    predicts_return: bool = False     # ret misprediction (RSB)
    predicts_stale_load: bool = False  # store-to-load bypass (STL)
    observes_calls: bool = False      # wants on_call() for call/icall
    observes_stores: bool = False     # wants on_store() for stores

    def speculation_sources(self, instr: Instruction) -> bool:
        """Whether ``instr`` is an entry/observation site of this model.

        The compiled engines run source instructions through
        legacy-handler fallbacks, so the shared legacy handlers (which
        carry the model hooks) run them.
        """
        return instr.opcode in self.source_opcodes

    # -- lifecycle ----------------------------------------------------------
    def begin_run(self) -> None:
        """Reset per-execution state before a fresh program run.

        Cross-run state (e.g. the BTB's target history, which persists
        across processes on real hardware) deliberately survives; override
        and clear only what a fresh process would not inherit.
        """

    def reset(self) -> None:
        """Forget all state (between campaigns)."""
        self.begin_run()

    # -- dynamic hooks (invoked by the emulator's model-aware handlers) ------
    def on_call(self, emulator: "Emulator", instr: Instruction,
                return_address: int) -> None:
        """Observe an executed call pushing ``return_address``."""

    def on_store(self, emulator: "Emulator", instr: Instruction,
                 addr: int, size: int) -> None:
        """Observe an architectural store about to overwrite ``addr``."""

    def on_indirect(self, emulator: "Emulator", instr: Instruction,
                    target: int) -> None:
        """Observe an architecturally resolved indirect-branch target."""

    def mispredicted_targets(self, emulator: "Emulator", instr: Instruction,
                             actual: int) -> List[int]:
        """Wrong program counters the hardware could speculate to.

        ``actual`` is the architecturally correct outcome of the site
        (indirect-branch target, return target, ...).  An empty list means
        the site retires correctly this time.
        """
        return []

    def choose_target(self, site: int, candidates: List[int]) -> int:
        """Pick the misprediction target among non-empty ``candidates``."""
        return candidates[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"
