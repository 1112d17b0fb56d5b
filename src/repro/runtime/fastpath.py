"""Engine resolution and the ``fast`` engine.

:class:`FastEmulator` is the compiled engine of :mod:`repro.runtime.jit`
at a block cap of one instruction: it builds no block module and
dispatches only single-instruction functions, compiled from the same
emitters as the jit engine's blocks on first dispatch.  It pairs with
:class:`~repro.runtime.speculation.JournalingSpeculationController`:
entering speculation records a journal mark and a copy of the registers,
every guest-memory write while a checkpoint is live appends an undo entry
to the machine's :class:`~repro.runtime.machine.StateJournal`, and
rollback replays the journal segment in reverse instead of restoring a
full memory snapshot.  Both
compiled engines reproduce the legacy
:class:`~repro.runtime.emulator.Emulator` bit for bit (enforced by
``tests/runtime/test_differential.py``).
"""

from __future__ import annotations

from repro.plugins import ENGINE_REGISTRY, register_engine
from repro.runtime.emulator import Emulator
from repro.runtime.jit import JitEmulator


def engine_names():
    """Every name accepted by ``resolve_engine`` and the ``engine=`` knobs.

    Engines live in the :data:`repro.plugins.ENGINE_REGISTRY` plugin
    registry; this module registers ``fast`` and ``legacy`` at the
    bottom (and imports :mod:`repro.runtime.jit`, which registers
    ``jit``); third-party engines join via ``@repro.api.register_engine``.
    """
    return tuple(ENGINE_REGISTRY.names())


def resolve_engine(name: str):
    """Map an engine name to its ``(emulator class, controller class)`` pair.

    ``"jit"`` pairs the block-compiled
    :class:`~repro.runtime.jit.JitEmulator` and ``"fast"`` its
    single-instruction form :class:`FastEmulator` with the copy-on-write
    :class:`~repro.runtime.speculation.JournalingSpeculationController`;
    ``"legacy"`` pairs the reference :class:`~repro.runtime.emulator.Emulator`
    with the snapshot :class:`~repro.runtime.speculation.SpeculationController`.
    Additional engines come from the plugin registry
    (``@register_engine``).
    """
    return ENGINE_REGISTRY.get(name)()


class FastEmulator(JitEmulator):
    """The compiled engine dispatching single-instruction functions only."""

    engine_name = "fast"
    max_block = 1


# ---------------------------------------------------------------------------
# Engine registrations (the built-in plugins behind ``engine="..."`` knobs)
# ---------------------------------------------------------------------------

@register_engine("fast")
def _fast_engine_plugin():
    """Single-instruction dispatch paired with copy-on-write journal rollback."""
    from repro.runtime.speculation import JournalingSpeculationController

    return FastEmulator, JournalingSpeculationController


@register_engine("legacy")
def _legacy_engine_plugin():
    """The generic reference interpreter with full-snapshot checkpoints."""
    from repro.runtime.speculation import SpeculationController

    return Emulator, SpeculationController
