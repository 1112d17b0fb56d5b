"""Property-based tests for the copy-on-write rollback journal.

Random interleavings of register writes, guest-memory writes, checkpoints
and rollbacks must restore byte-identical machine state — and the
journaling controller must agree with the legacy snapshot controller on
every observable (restored state, rollback ``undone`` counts, statistics).
The journal holds memory only; registers are restored from the
controller's checkpoints.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.runtime.machine import MachineState, StateJournal
from repro.runtime.speculation import (
    JournalingSpeculationController,
    NestedSpeculationPolicy,
    SpecFuzzNestingPolicy,
    SpeculationController,
)

REGION_START = 0x1000
REGION_SIZE = 0x2000


class AlwaysNest(NestedSpeculationPolicy):
    """Unconditionally enter speculation (up to a depth cap)."""

    name = "always"

    def __init__(self, max_depth: int = 8) -> None:
        self.max_depth = max_depth

    def should_enter(self, branch_address: int, depth: int) -> bool:
        return depth < self.max_depth


def _machine() -> MachineState:
    machine = MachineState()
    machine.memory.map_region(REGION_START, REGION_SIZE)
    return machine


def _state(machine: MachineState):
    """Full observable machine state (registers, flags, mapped memory)."""
    return (
        list(machine.registers),
        machine.flags.snapshot(),
        machine.memory.read_bytes(REGION_START, REGION_SIZE),
    )


def _guest_write(machine, controller, addr: int, data: bytes) -> None:
    """Write guest memory the way the emulator does for each controller.

    Legacy controllers need the explicit memory log; journaling controllers
    record the undo entry inside ``Memory.write_bytes`` itself.
    """
    if (
        not controller.uses_machine_journal
        and controller.in_simulation
        and machine.memory.is_mapped(addr, len(data))
    ):
        controller.log_memory_write(addr, machine.memory.read_bytes(addr, len(data)))
    machine.memory.write_bytes(addr, data)


#: One operation: (kind, a, b) with kind in reg/mem/flags/checkpoint/rollback.
_OPS = st.one_of(
    st.tuples(st.just("reg"), st.integers(0, 15), st.integers(0, 2**64 - 1)),
    st.tuples(st.just("mem"), st.integers(0, REGION_SIZE - 16),
              st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("flags"), st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    st.tuples(st.just("checkpoint"), st.just(0), st.just(0)),
    st.tuples(st.just("rollback"), st.just(0), st.just(0)),
)


def _apply_ops(machine, controller, ops):
    """Drive one controller through an op sequence.

    Maintains the stack of full-state snapshots alongside the controller's
    checkpoints; every rollback pops the innermost snapshot and pairs it
    with the state actually restored.  Returns (pending snapshots,
    (restored, expected) pairs, ``undone`` counts) for cross-checking.
    """
    snapshots = []
    restored = []
    undone_counts = []
    for kind, a, b in ops:
        if kind == "reg":
            machine.set_reg(a, b)
        elif kind == "mem":
            _guest_write(machine, controller, REGION_START + a, b)
        elif kind == "flags":
            machine.flags.set_compare(a, b)
        elif kind == "checkpoint":
            if controller.maybe_enter(machine, branch_address=0x40,
                                      resume_pc=0x44 + len(snapshots)):
                snapshots.append(_state(machine))
        elif kind == "rollback":
            if controller.in_simulation:
                undone_counts.append(controller.rollback(machine))
                restored.append((_state(machine), snapshots.pop()))
    return snapshots, restored, undone_counts


@settings(max_examples=120, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=60))
def test_journal_rollback_restores_byte_identical_state(ops):
    """Rolling back always restores the exact state of the checkpoint."""
    machine = _machine()
    controller = JournalingSpeculationController(AlwaysNest())
    snapshots, restored, _ = _apply_ops(machine, controller, ops)
    # Every rollback must have restored the innermost snapshot.
    for state, expected in restored:
        assert state == expected
    # Unwinding whatever simulation is still active restores the rest,
    # innermost first.
    while controller.in_simulation:
        controller.rollback(machine)
        assert _state(machine) == snapshots.pop()
    assert not snapshots
    assert machine.journal is None
    assert machine.memory.journal is None
    assert len(controller.journal) == 0


@settings(max_examples=120, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=60))
def test_journaling_controller_matches_legacy_snapshots(ops):
    """Both controllers observe identical states and rollback costs."""
    legacy_machine, fast_machine = _machine(), _machine()
    legacy = SpeculationController(AlwaysNest())
    fast = JournalingSpeculationController(AlwaysNest())
    legacy_out = _apply_ops(legacy_machine, legacy, ops)
    fast_out = _apply_ops(fast_machine, fast, ops)
    assert fast_out == legacy_out
    assert _state(fast_machine) == _state(legacy_machine)
    assert legacy_machine.pc == fast_machine.pc
    assert fast.stats.as_dict() == legacy.stats.as_dict()
    assert fast.depth == legacy.depth


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 2**64 - 1)),
             min_size=0, max_size=20),
    st.lists(st.tuples(st.integers(0, REGION_SIZE - 8),
                       st.binary(min_size=1, max_size=8)),
             min_size=0, max_size=20),
)
def test_state_journal_nested_marks(reg_writes, mem_writes):
    """Popping journal segments restores memory exactly to each nested
    mark; the controller's checkpoints restore the registers with it."""
    machine = _machine()
    journal = StateJournal()
    machine.attach_journal(journal)

    before_outer = _state(machine)
    outer_mark = journal.mark()
    for offset, data in mem_writes:
        machine.memory.write_bytes(REGION_START + offset, data)

    before_inner = _state(machine)
    inner_mark = journal.mark()
    for offset, data in mem_writes:
        machine.memory.write_bytes(REGION_START + offset, bytes(len(data)))

    inner_undone = journal.rollback_to(inner_mark, machine)
    assert _state(machine) == before_inner
    assert inner_undone == len(mem_writes)

    outer_undone = journal.rollback_to(outer_mark, machine)
    assert _state(machine) == before_outer
    assert outer_undone == len(mem_writes)
    assert len(journal) == 0
    machine.attach_journal(None)

    # Registers and memory together, through nested controller checkpoints.
    controller = JournalingSpeculationController(AlwaysNest())
    before_outer = _state(machine)
    assert controller.maybe_enter(machine, branch_address=1, resume_pc=10)
    for index, value in reg_writes:
        machine.set_reg(index, value)
    for offset, data in mem_writes:
        machine.memory.write_bytes(REGION_START + offset, data)

    before_inner = _state(machine)
    assert controller.maybe_enter(machine, branch_address=2, resume_pc=20)
    for index, value in reg_writes:
        machine.set_reg(index, value ^ 0xDEAD)
    for offset, data in mem_writes:
        machine.memory.write_bytes(REGION_START + offset, bytes(len(data)))

    assert controller.rollback(machine) == len(mem_writes)
    assert _state(machine) == before_inner
    assert controller.rollback(machine) == len(mem_writes)
    assert _state(machine) == before_outer
    assert len(controller.journal) == 0
    assert machine.journal is None


def test_nested_speculation_pops_journal_segments():
    """Nested enter/rollback peels exactly one journal segment at a time."""
    machine = _machine()
    controller = JournalingSpeculationController(AlwaysNest())
    machine.set_reg(3, 100)
    machine.memory.write_int(REGION_START, 0xAAAA, 8)

    assert controller.maybe_enter(machine, branch_address=1, resume_pc=10)
    machine.set_reg(3, 200)
    machine.memory.write_int(REGION_START, 0xBBBB, 8)

    assert controller.maybe_enter(machine, branch_address=2, resume_pc=20)
    machine.set_reg(3, 300)
    machine.memory.write_int(REGION_START, 0xCCCC, 8)

    undone = controller.rollback(machine)
    assert undone == 1
    assert controller.depth == 1
    assert machine.pc == 20
    assert machine.get_reg(3) == 200
    assert machine.memory.read_int(REGION_START, 8) == 0xBBBB
    assert machine.journal is not None  # outer simulation still active

    undone = controller.rollback(machine)
    assert undone == 1
    assert controller.depth == 0
    assert machine.pc == 10
    assert machine.get_reg(3) == 100
    assert machine.memory.read_int(REGION_START, 8) == 0xAAAA
    assert machine.journal is None  # journal detached after the last pop


# ---------------------------------------------------------------------------
# Speculation-model interaction: mixed-model nesting over the journal
# ---------------------------------------------------------------------------

#: One op in a mixed-model run: register/memory writes, model-tagged
#: checkpoint entries (pht is checkpoint-driven, btb/stl dynamic), an STL
#: stale-window rewind (a journaled guest write of pre-store bytes), and
#: rollbacks.  Models the exact write pattern the emulator's model hooks
#: produce.
_MODEL_OPS = st.one_of(
    st.tuples(st.just("reg"), st.integers(0, 15), st.integers(0, 2**64 - 1)),
    st.tuples(st.just("mem"), st.integers(0, REGION_SIZE - 16),
              st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("checkpoint"),
              st.sampled_from(["pht", "btb", "rsb", "stl"]), st.just(0)),
    st.tuples(st.just("stale"), st.integers(0, REGION_SIZE - 8),
              st.binary(min_size=8, max_size=8)),
    st.tuples(st.just("rollback"), st.just(0), st.just(0)),
)


def _apply_model_ops(machine, controller, ops):
    """Drive one controller through a mixed-model op sequence.

    ``stale`` ops emulate the STL hook: inside a simulation they rewrite
    guest memory to (pretend) pre-store bytes through the journaled write
    path.  Returns (pending snapshots, (restored, expected, model) rows,
    ``undone`` counts).
    """
    snapshots = []
    restored = []
    undone_counts = []
    site = 0x40
    for kind, a, b in ops:
        if kind == "reg":
            machine.set_reg(a, b)
        elif kind == "mem":
            _guest_write(machine, controller, REGION_START + a, b)
        elif kind == "stale":
            if controller.in_simulation:
                _guest_write(machine, controller, REGION_START + a, b)
        elif kind == "checkpoint":
            site += 4
            if controller.maybe_enter(machine, branch_address=site,
                                      resume_pc=site, model=a):
                snapshots.append((_state(machine), a, site))
        elif kind == "rollback":
            if controller.in_simulation:
                model = controller.checkpoints[-1].model
                undone_counts.append(controller.rollback(machine))
                state, expected_model, entry_site = snapshots.pop()
                assert expected_model == model
                restored.append((_state(machine), state, model))
                # Dynamic models arm the skip for their entry site; the
                # checkpoint-driven pht must not.
                if model == "pht":
                    assert controller.skip_site is None
                else:
                    assert controller.skip_site == entry_site
                    assert machine.pc == entry_site
    return snapshots, restored, undone_counts


@settings(max_examples=120, deadline=None)
@given(st.lists(_MODEL_OPS, min_size=1, max_size=60))
def test_mixed_model_nesting_pops_journal_marks_cleanly(ops):
    """BTB/RSB/STL/PHT checkpoints interleave; every rollback restores the
    exact entry state of *its* nesting level (journal marks pop cleanly)."""
    machine = _machine()
    controller = JournalingSpeculationController(AlwaysNest())
    snapshots, restored, _ = _apply_model_ops(machine, controller, ops)
    for state, expected, _model in restored:
        assert state == expected
    while controller.in_simulation:
        controller.rollback(machine)
        assert _state(machine) == snapshots.pop()[0]
    assert not snapshots
    assert machine.journal is None
    assert len(controller.journal) == 0


@settings(max_examples=120, deadline=None)
@given(st.lists(_MODEL_OPS, min_size=1, max_size=60))
def test_mixed_model_controllers_agree(ops):
    """Snapshot and journaling controllers agree under mixed-model runs."""
    legacy_machine, fast_machine = _machine(), _machine()
    legacy = SpeculationController(AlwaysNest())
    fast = JournalingSpeculationController(AlwaysNest())
    legacy_out = _apply_model_ops(legacy_machine, legacy, ops)
    fast_out = _apply_model_ops(fast_machine, fast, ops)
    assert fast_out == legacy_out
    assert _state(fast_machine) == _state(legacy_machine)
    assert fast.stats.as_dict() == legacy.stats.as_dict()
    assert fast.skip_site == legacy.skip_site


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, REGION_SIZE - 8),
    st.binary(min_size=8, max_size=8),
    st.binary(min_size=8, max_size=8),
)
def test_stl_stale_window_rewind_rolls_back(offset, committed, stale):
    """An STL entry's stale-memory rewind is undone by its own rollback,
    and the model's store window itself is architectural state that the
    rollback must NOT touch."""
    from repro.specmodels import StlModel

    machine = _machine()
    controller = JournalingSpeculationController(AlwaysNest())
    addr = REGION_START + offset

    class _Em:
        pass

    em = _Em()
    em.machine = machine
    em.dift = None

    stl = StlModel()
    machine.memory.write_bytes(addr, stale)
    stl.on_store(em, None, addr, 8)           # records old = `stale`
    machine.memory.write_bytes(addr, committed)

    index = stl.find(addr, 8)
    assert index is not None
    assert controller.maybe_enter(machine, branch_address=0x40,
                                  resume_pc=0x40, model="stl")
    old, _tags = stl.take(index)
    machine.memory.write_bytes(addr, old)     # journaled stale rewind
    assert machine.memory.read_bytes(addr, 8) == stale
    window_after_entry = list(stl.journal.entries)

    controller.rollback(machine)
    assert machine.memory.read_bytes(addr, 8) == committed
    assert stl.journal.entries == window_after_entry  # window untouched
    assert stl.find(addr, 8) is None           # each store forwards once


def test_btb_history_untouched_by_rollback():
    """Indirect-branch target state is architectural: entering and rolling
    back a BTB simulation leaves the (deliberately unjournaled) target
    history exactly as trained."""
    from repro.specmodels import BtbModel

    machine = _machine()
    controller = JournalingSpeculationController(AlwaysNest())
    btb = BtbModel()
    btb.observe_target(0x100)
    btb.observe_target(0x108)

    # A function-pointer slot in guest memory *is* rolled back...
    machine.memory.write_int(REGION_START, 0x100, 8)
    assert controller.maybe_enter(machine, branch_address=0x48,
                                  resume_pc=0x48, model="btb")
    machine.memory.write_int(REGION_START, 0x108, 8)
    btb_trained = list(btb.history)
    controller.rollback(machine)
    assert machine.memory.read_int(REGION_START, 8) == 0x100
    # ...while the BTB itself survives, like a real predictor.
    assert btb.history == btb_trained
    assert controller.skip_site == 0x48


def test_begin_run_clears_stale_journal():
    """A run that dies mid-simulation must not leak journal state."""
    machine = _machine()
    controller = JournalingSpeculationController(SpecFuzzNestingPolicy())
    assert controller.maybe_enter(machine, branch_address=1, resume_pc=10)
    assert controller.checkpoints[-1].registers == [0] * 16
    machine.set_reg(0, 42)
    machine.memory.write_int(REGION_START, 42, 8)
    assert len(controller.journal) == 1

    controller.begin_run()
    assert not controller.in_simulation
    assert len(controller.journal) == 0
    assert machine.journal is None
    # A fresh simulation starts from a clean journal and checkpoints the
    # registers as they are now.
    assert controller.maybe_enter(machine, branch_address=1, resume_pc=10)
    assert controller.checkpoints[-1].journal_mark == 0
    assert controller.checkpoints[-1].registers == [42] + [0] * 15


def test_rollback_to_restores_page_crossing_and_page_end_entries():
    """In-page entries are restored in place; a page-crossing one is split
    across both pages, and one ending exactly at offset 4096 stays in-page."""
    machine = _machine()
    memory = machine.memory
    page_end = REGION_START + 0x1000  # first byte of the next page
    memory.write_bytes(page_end - 16, bytes(range(1, 33)))
    before = _state(machine)

    journal = StateJournal()
    machine.attach_journal(journal)
    mark = journal.mark()
    memory.write_bytes(page_end - 8, b"\xaa" * 8)    # ends at offset 4096
    memory.write_bytes(page_end - 4, b"\xbb" * 8)    # crosses the page
    memory.write_int(page_end - 12, 0xCCCC, 4)       # in-page, mid-page
    assert journal.rollback_to(mark, machine) == 3
    machine.attach_journal(None)
    assert _state(machine) == before
    assert memory.read_bytes(page_end - 16, 32) == bytes(range(1, 33))

    # The same writes plus a register write, undone by a controller rollback.
    controller = JournalingSpeculationController(AlwaysNest())
    assert controller.maybe_enter(machine, branch_address=1, resume_pc=10)
    memory.write_bytes(page_end - 8, b"\xaa" * 8)
    memory.write_bytes(page_end - 4, b"\xbb" * 8)
    memory.write_int(page_end - 12, 0xCCCC, 4)
    machine.set_reg(5, 7)
    assert controller.rollback(machine) == 3
    assert _state(machine) == before
    assert memory.read_bytes(page_end - 16, 32) == bytes(range(1, 33))


def test_nested_taint_log_unwinds_shadow_bytes_per_mark():
    """Taint-log entries recorded under two checkpoint marks restore the
    shadow bytes of each level, innermost first, on both controllers."""
    shadow = 0x5000_0000_0ffe  # two bytes each side of a page boundary
    results = []
    for controller in (SpeculationController(AlwaysNest()),
                       JournalingSpeculationController(AlwaysNest())):
        machine = _machine()
        memory = machine.memory

        def tag(offset, value):
            address = shadow + offset
            controller.log_taint_write(address, memory.read_shadow_byte(address))
            memory.write_shadow_byte(address, value)

        for offset in range(4):
            memory.write_shadow_byte(shadow + offset, 0x10 + offset)
        assert controller.maybe_enter(machine, branch_address=1, resume_pc=10)
        tag(0, 0x21)
        tag(2, 0x22)
        outer = memory.read_shadow(shadow, 4)
        assert controller.maybe_enter(machine, branch_address=2, resume_pc=20)
        tag(1, 0x31)
        tag(2, 0x32)
        tag(3, 0x33)
        controller.rollback(machine)
        assert memory.read_shadow(shadow, 4) == outer == b"\x21\x11\x22\x13"
        assert len(controller.taint_log) == 2
        controller.rollback(machine)
        assert memory.read_shadow(shadow, 4) == b"\x10\x11\x12\x13"
        assert not controller.taint_log
        results.append((controller.stats.as_dict(), machine.pc))
    assert results[0] == results[1]


def test_shadow_byte_access_on_untouched_page():
    """Single shadow-byte reads and writes create their page on demand,
    exactly like the ranged shadow accessors."""
    machine = _machine()
    memory = machine.memory
    address = 0x6000_0000_0123
    assert address >> 12 not in memory._pages
    assert memory.read_shadow_byte(address) == 0
    assert address >> 12 in memory._pages
    other = 0x6000_0001_0fff
    memory.write_shadow_byte(other, 0x1AB)
    assert memory.read_shadow(other, 1) == b"\xab"
    assert memory.read_shadow_byte(other) == 0xAB
    assert memory.read_shadow(other - 1, 2) == b"\x00\xab"
