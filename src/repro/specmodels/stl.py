"""Spectre-STL: store-to-load-bypass (speculative store bypass, variant 4).

A load that is younger than an in-flight store to the same address can be
issued before the store's address is known, speculatively reading the
**stale** pre-store memory.  The model keeps a bounded window of recent
architectural stores — each record holds the overwritten bytes (and their
DIFT tags) exactly the way a :class:`~repro.runtime.machine.StateJournal`
undo entry does, and indeed the records are kept as journal-style
``(addr, old_bytes)`` tuples in a :class:`StateJournal` instance.

When a load matches a window entry the emulator enters a simulation,
**rewinds the stored range to its stale contents** (through the normal
journaled guest-write path, so rollback restores the truth) and re-issues
the load inside the simulation: every downstream dataflow — tag
propagation, policy checks, dependent accesses — then operates on the
stale value with no special-casing.

A record forwards at most once and is evicted after ``window`` newer
stores, so the bypass window is short-lived, like the real store queue.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa.instructions import Instruction, Opcode
from repro.plugins import register_model
from repro.runtime.machine import StateJournal
from repro.specmodels.base import SpeculationModel

#: Bounded number of in-flight (bypassable) stores.
DEFAULT_WINDOW = 8


@register_model("stl")
class StlModel(SpeculationModel):
    """Loads speculatively bypassing older same-address stores."""

    name = "stl"
    #: store-to-load forwarding windows are too short to nest a second
    #: simulation inside an existing one.
    nests = False
    entry_cost = 1
    source_opcodes = frozenset({Opcode.STORE, Opcode.LOAD})
    predicts_stale_load = True
    observes_stores = True

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self.window = window
        #: journal-style undo records of recent architectural stores;
        #: entries are ``(addr, old_bytes)`` like any memory undo.
        self.journal = StateJournal()
        #: per-record DIFT tags of the *stored value* (the emulator's tag
        #: propagation runs before the store handler, so the tags read at
        #: observation time describe the value this store just wrote).
        #: A later record's stale bytes were written by the next-older
        #: record at the same address, so *its* value tags are the stale
        #: tags — exactly how a store queue forwards (value, taint) pairs.
        self._value_tags: List[Optional[bytes]] = []

    # -- lifecycle ----------------------------------------------------------
    def begin_run(self) -> None:
        """Store queues do not survive a fresh process."""
        self.journal.clear()
        self._value_tags.clear()

    # -- store window --------------------------------------------------------
    def on_store(self, emulator, instr: Instruction, addr: int,
                 size: int) -> None:
        """Record the pre-store contents of an architectural store."""
        memory = emulator.machine.memory
        if not memory.is_mapped(addr, size):
            return
        old = memory.read_bytes(addr, size)
        dift = emulator.dift
        tags: Optional[bytes] = None
        if dift is not None:
            tags = bytes(
                dift.get_mem_tag(addr + i, 1) for i in range(size)
            )
        self.journal.entries.append((addr, old))
        self._value_tags.append(tags)
        if len(self.journal.entries) > self.window:
            del self.journal.entries[0]
            del self._value_tags[0]

    def find(self, addr: int, size: int) -> Optional[int]:
        """Index of the youngest window record for exactly ``[addr, size)``.

        The store queue only forwards same-address, same-width pairs;
        partial overlaps do not bypass.  Returns ``None`` when no in-window
        store covers the load.
        """
        entries = self.journal.entries
        for index in range(len(entries) - 1, -1, -1):
            rec_addr, old = entries[index]
            if rec_addr == addr and len(old) == size:
                return index
        return None

    def take(self, index: int) -> Tuple[bytes, Optional[bytes]]:
        """Consume one record: each store bypasses at most one load, after
        which the store counts as committed.  Returns the stale bytes and
        (when DIFT was attached) their stale tag bytes — the value tags of
        the next-older in-window store to the same address, which is the
        store that wrote those stale bytes.  With no older record the
        provenance is unknown and the stale bytes count as untainted."""
        addr, old = self.journal.entries[index]
        tags: Optional[bytes] = None
        for older in range(index - 1, -1, -1):
            older_addr, older_old = self.journal.entries[older]
            if older_addr == addr and len(older_old) == len(old):
                tags = self._value_tags[older]
                break
        if tags is None and self._value_tags[index] is not None:
            tags = bytes(len(old))
        del self.journal.entries[index]
        del self._value_tags[index]
        return old, tags
