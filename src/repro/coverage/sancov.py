"""Normal and speculative coverage maps (paper §6.3).

Teapot tracks two kinds of coverage separately:

* **normal-execution coverage** — traced at every conditional branch before
  entering speculation simulation (``cov.trace`` pseudo-ops),
* **speculation-simulation coverage** — traced for the basic blocks visited
  inside the Shadow Copy.  Calling the (expensive, register-clobbering)
  coverage function for every simulated block would dominate the cost of
  the short 250-instruction windows, so Teapot only *notes* each visited
  guard ID in a small buffer (``cov.spec``) and flushes the notes into the
  coverage map lazily when the rollback begins — this is the optimisation
  the benchmark ``test_ablation_coverage`` quantifies.

The fuzzer treats the pair of maps as its feedback signal, mirroring the
SanitizerCoverage trace-pc-guard interface honggfuzz consumes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple


class CoverageMap:
    """A set of covered guard IDs with new-coverage accounting.

    ``_covered`` is only ever updated in place: the compiled engines'
    rollback function binds it at install.
    """

    def __init__(self) -> None:
        self._covered: Set[int] = set()

    def add(self, guard_id: int) -> bool:
        """Record a guard hit; returns ``True`` if it was new."""
        if guard_id in self._covered:
            return False
        self._covered.add(guard_id)
        return True

    def add_many(self, guard_ids: Iterable[int]) -> int:
        """Record many guard hits; returns how many were new."""
        covered = self._covered
        before = len(covered)
        covered.update(guard_ids)
        return len(covered) - before

    def __len__(self) -> int:
        return len(self._covered)

    def __contains__(self, guard_id: int) -> bool:
        return guard_id in self._covered

    def covered(self) -> Set[int]:
        """A copy of the covered guard-ID set."""
        return set(self._covered)


class CoverageRuntime:
    """Per-execution coverage collector fed by ``cov.*`` pseudo-ops."""

    def __init__(self) -> None:
        self.normal = CoverageMap()
        self.speculative = CoverageMap()
        #: guard IDs noted during the current speculation episode, flushed
        #: lazily at rollback (paper §6.3 optimisation).
        self._spec_buffer: list = []
        #: counters for the ablation benchmark
        self.lazy_flushes = 0
        self.spec_notes = 0

    # -- normal execution ---------------------------------------------------
    def trace_normal(self, guard_id: int) -> bool:
        """Record normal-execution coverage at a conditional branch."""
        return self.normal.add(guard_id)

    # -- speculation simulation ------------------------------------------------
    def note_speculative(self, guard_id: int) -> None:
        """Note a Shadow-Copy block visit (cheap; no map update yet)."""
        self._spec_buffer.append(guard_id)
        self.spec_notes += 1

    def flush_speculative(self) -> int:
        """Flush noted guard IDs into the speculative map (at rollback).

        The compiled engines do the same inside their bound rollback
        (``JournalingSpeculationController.rollback_function``): it holds
        ``_spec_buffer`` and the speculative map's set, so both are
        cleared and updated in place, never reassigned.
        """
        if not self._spec_buffer:
            return 0
        new = self.speculative.add_many(self._spec_buffer)
        self._spec_buffer.clear()
        self.lazy_flushes += 1
        return new

    # -- fuzzer interface ----------------------------------------------------------
    def new_coverage_signature(self) -> Tuple[int, int]:
        """The (normal, speculative) coverage sizes used as fuzzer feedback."""
        return (len(self.normal), len(self.speculative))

    def reset_execution_state(self) -> None:
        """Drop per-execution buffers (maps persist across the campaign)."""
        self._spec_buffer.clear()
