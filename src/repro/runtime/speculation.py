"""Speculation simulation: checkpoints, memory log, rollback and nesting.

This is the runtime half of Speculation Shadows (paper §5, §6.1).  The
rewriter inserts ``checkpoint`` pseudo-ops before conditional branches and
restore points throughout the Shadow Copy; at run time the
:class:`SpeculationController` decides when to enter a simulation, takes and
restores program-state checkpoints, maintains the memory log, enforces the
reorder-buffer instruction budget and implements the nested-speculation
heuristics of Teapot, SpecFuzz and SpecTaint.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.runtime.machine import PAGE_MASK, StateJournal

#: The reorder-buffer stand-in: maximum instructions simulated per
#: speculation episode (paper uses 250, following prior studies).
DEFAULT_ROB_BUDGET = 250

#: Maximum nesting depth (number of simultaneously mispredicted branches);
#: gadgets guarded by more than six branches are considered unexploitable
#: (paper §2.3).
DEFAULT_MAX_DEPTH = 6


@dataclass
class Checkpoint:
    """A saved program state to which a rollback can return."""

    branch_address: int
    resume_pc: int
    registers: Tuple[int, ...]
    flags: Tuple[bool, bool, bool, bool]
    memlog_index: int
    taint_log_index: int
    register_tags: Optional[Tuple[int, ...]]
    flags_tag: int
    instruction_count_at_entry: int
    #: speculation model that opened this simulation ("pht", "btb", ...).
    model: str = "pht"


class JournalCheckpoint(tuple):
    """A lightweight checkpoint: a mark into the copy-on-write journal.

    Unlike :class:`Checkpoint` it stores no memory log index — memory is
    reconstructed at rollback by replaying the machine's
    :class:`~repro.runtime.machine.StateJournal` in reverse from
    ``journal_mark``.  Registers, the flags word and the DIFT register
    tags are copied: a 16-entry list copy per entry is cheaper than an
    undo entry per register write.

    A tuple of the fields in :attr:`FIELDS` order, built as
    ``JournalCheckpoint((branch_address, ...))``: checkpoints are
    allocated on every speculation entry, and a tuple is built without a
    Python-level ``__init__``.  The fields read by name as well.
    """

    __slots__ = ()

    FIELDS = ("branch_address", "resume_pc", "journal_mark", "registers",
              "flags", "taint_log_index", "register_tags", "flags_tag",
              "model")

    branch_address = property(itemgetter(0))
    resume_pc = property(itemgetter(1))
    journal_mark = property(itemgetter(2))
    registers = property(itemgetter(3))
    flags = property(itemgetter(4))
    taint_log_index = property(itemgetter(5))
    register_tags = property(itemgetter(6))
    flags_tag = property(itemgetter(7))
    #: speculation model that opened this simulation ("pht", "btb", ...).
    model = property(itemgetter(8))


class NestedSpeculationPolicy(abc.ABC):
    """Decides whether to enter a (possibly nested) speculation simulation."""

    name: str = "base"

    @abc.abstractmethod
    def should_enter(self, branch_address: int, depth: int) -> bool:
        """Whether to start simulating a misprediction of this branch now.

        Args:
            branch_address: static address of the conditional branch.
            depth: current nesting depth (0 = normal execution).
        """

    def reset(self) -> None:
        """Forget per-campaign state (called between fuzzing campaigns)."""


class DisabledNestingPolicy(NestedSpeculationPolicy):
    """Only top-level speculation, never nested.

    Used for the run-time performance comparison (paper §7.1 disables nested
    speculation and heuristics in all tools for fairness).
    """

    name = "disabled"

    def should_enter(self, branch_address: int, depth: int) -> bool:
        return depth == 0


class SpecFuzzNestingPolicy(NestedSpeculationPolicy):
    """SpecFuzz's heuristic: depth grows with per-branch encounter count.

    SpecFuzz "keeps track of the number of encounters per branch and
    gradually increases the depth of simulation as its encounter (count
    grows), up to the sixth order" (paper §6.1).  The growth schedule is a
    calibration parameter (``ramp``): permitted depth is
    ``1 + encounters // ramp``, capped at ``max_depth``.
    """

    name = "specfuzz"

    def __init__(self, max_depth: int = DEFAULT_MAX_DEPTH, ramp: int = 16) -> None:
        self.max_depth = max_depth
        self.ramp = ramp
        self._encounters: Dict[int, int] = {}

    def should_enter(self, branch_address: int, depth: int) -> bool:
        count = self._encounters.get(branch_address, 0)
        self._encounters[branch_address] = count + 1
        allowed_depth = min(self.max_depth, 1 + count // self.ramp)
        return depth < allowed_depth

    def reset(self) -> None:
        self._encounters.clear()


class SpecTaintNestingPolicy(NestedSpeculationPolicy):
    """SpecTaint's heuristic: depth-first, at most five entries per branch.

    SpecTaint "performs depth-first speculation for nested branches, however,
    enters speculation simulation for each branch only up to five times"
    (paper §6.1).  The five-entry cap is the source of the false negatives
    discussed in §7.3.
    """

    name = "spectaint"

    def __init__(self, max_visits: int = 5, max_depth: int = DEFAULT_MAX_DEPTH) -> None:
        self.max_visits = max_visits
        self.max_depth = max_depth
        self._entries: Dict[int, int] = {}

    def should_enter(self, branch_address: int, depth: int) -> bool:
        if depth >= self.max_depth:
            return False
        entries = self._entries.get(branch_address, 0)
        if entries >= self.max_visits:
            return False
        self._entries[branch_address] = entries + 1
        return True

    def reset(self) -> None:
        self._entries.clear()


class TeapotNestingPolicy(NestedSpeculationPolicy):
    """Teapot's mixed heuristic (paper §6.1).

    For the first ``eager_runs`` entries of a branch, nesting is always
    allowed up to depth ``max_depth`` (the comprehensive-but-heavy phase
    that SpecTaint cannot afford); afterwards the SpecFuzz encounter-based
    ramp takes over.
    """

    name = "teapot"

    def __init__(
        self,
        max_depth: int = DEFAULT_MAX_DEPTH,
        eager_runs: int = 5,
        ramp: int = 16,
    ) -> None:
        self.max_depth = max_depth
        self.eager_runs = eager_runs
        self.ramp = ramp
        self._encounters: Dict[int, int] = {}

    def should_enter(self, branch_address: int, depth: int) -> bool:
        if depth >= self.max_depth:
            return False
        count = self._encounters.get(branch_address, 0)
        self._encounters[branch_address] = count + 1
        if count < self.eager_runs:
            return True
        allowed_depth = min(self.max_depth, 1 + count // self.ramp)
        return depth < allowed_depth

    def reset(self) -> None:
        self._encounters.clear()


@dataclass
class SpeculationStats:
    """Counters describing a run's speculation activity."""

    simulations_started: int = 0
    nested_simulations: int = 0
    rollbacks: int = 0
    forced_rollbacks: int = 0
    exception_rollbacks: int = 0
    budget_rollbacks: int = 0
    max_depth_reached: int = 0
    simulated_instructions: int = 0
    #: entries per *non-default* speculation model ("btb", "rsb", "stl",
    #: third-party).  Kept separate so PHT-only runs serialize exactly as
    #: they always did (the golden tables pin those dictionaries).
    model_entries: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dictionary."""
        record = {
            "simulations_started": self.simulations_started,
            "nested_simulations": self.nested_simulations,
            "rollbacks": self.rollbacks,
            "forced_rollbacks": self.forced_rollbacks,
            "exception_rollbacks": self.exception_rollbacks,
            "budget_rollbacks": self.budget_rollbacks,
            "max_depth_reached": self.max_depth_reached,
            "simulated_instructions": self.simulated_instructions,
        }
        for model, count in sorted(self.model_entries.items()):
            record[f"entered_{model}"] = count
        return record

    def reset(self) -> None:
        """Zero every counter in place: the compiled engines and the bound
        rollback functions hold this object, not the controller."""
        self.__init__()


class SpeculationController:
    """Runtime state machine for speculation simulation."""

    #: Whether guest stores are undo-logged by the machine's own journal
    #: (:class:`JournalingSpeculationController`) rather than by the
    #: emulator calling :meth:`log_memory_write` per store.
    uses_machine_journal = False

    def __init__(
        self,
        policy: Optional[NestedSpeculationPolicy] = None,
        rob_budget: int = DEFAULT_ROB_BUDGET,
    ) -> None:
        self.policy = policy or TeapotNestingPolicy()
        self.rob_budget = rob_budget
        self.checkpoints: List[Checkpoint] = []
        #: memory log: (address, old bytes) in write order.
        self.memlog: List[Tuple[int, bytes]] = []
        #: DIFT tag log: (shadow address, old tag byte) in write order.
        self.taint_log: List[Tuple[int, int]] = []
        self.spec_instruction_count = 0
        self.stats = SpeculationStats()
        #: deepest single rollback observed (undo-log entries replayed);
        #: telemetry-only — never serialized into ``spec_stats``, whose
        #: key set the golden tables pin.
        self.undo_depth_max = 0
        #: site a dynamic speculation model must not immediately re-enter
        #: at: set on every rollback of a dynamic-model checkpoint (whose
        #: ``resume_pc`` is the entry instruction itself) and consumed by
        #: the emulator's model hooks via :meth:`consume_skip`.
        self.skip_site: Optional[int] = None

    # -- state queries ---------------------------------------------------------
    @property
    def in_simulation(self) -> bool:
        """Whether any speculation simulation is active."""
        return bool(self.checkpoints)

    @property
    def depth(self) -> int:
        """Current nesting depth."""
        return len(self.checkpoints)

    @property
    def branch_addresses(self) -> Tuple[int, ...]:
        """Addresses of the mispredicted branches currently being simulated
        (outermost first)."""
        return tuple(cp.branch_address for cp in self.checkpoints)

    @property
    def current_model(self) -> str:
        """Speculation model of the innermost active simulation.

        ``"pht"`` outside simulation, so report attribution always has a
        value (the classic single-variant behaviour).
        """
        return self.checkpoints[-1].model if self.checkpoints else "pht"

    def consume_skip(self, site: int) -> bool:
        """Whether ``site`` is the just-rolled-back dynamic entry site.

        A dynamic model's rollback resumes *at* the entry instruction, so
        its hook would fire again and re-enter forever; the first
        architectural re-execution consumes the skip instead.
        """
        if self.skip_site == site:
            self.skip_site = None
            return True
        return False

    def budget_exceeded(self) -> bool:
        """Whether the ROB instruction budget has been exhausted."""
        return self.spec_instruction_count >= self.rob_budget

    # -- per-run lifecycle -------------------------------------------------------
    def begin_run(self) -> None:
        """Clear per-execution state before a fresh program run.

        Called by the emulator's process setup.  Stats and policy state
        deliberately survive — they accumulate across a fuzzing campaign.
        ``checkpoints`` is cleared in place, never reassigned: the
        compiled engines' dispatch loop and fallbacks close over the list
        object to test ``in_simulation`` without an attribute lookup.
        """
        self.checkpoints.clear()
        self.memlog.clear()
        self.taint_log.clear()
        self.spec_instruction_count = 0
        self.skip_site = None

    # -- entry -------------------------------------------------------------------
    def maybe_enter(self, machine, branch_address: int, resume_pc: int,
                    dift=None, model: str = "pht") -> bool:
        """Decide whether to enter simulation for a speculation source.

        If the nesting policy approves, a checkpoint of the current program
        state is pushed and ``True`` is returned — the caller (the emulator's
        ``checkpoint`` handler, or a dynamic model hook) then redirects
        control to the mispredicted path.  ``model`` tags the checkpoint
        with the originating speculation variant.
        """
        if not self.policy.should_enter(branch_address, self.depth):
            return False
        if self.depth == 0:
            self.spec_instruction_count = 0
            self.stats.simulations_started += 1
        else:
            self.stats.nested_simulations += 1
        if model != "pht":
            entries = self.stats.model_entries
            entries[model] = entries.get(model, 0) + 1
        register_tags = None
        flags_tag = 0
        if dift is not None:
            register_tags = dift.snapshot_register_tags()
            flags_tag = dift.flags_tag
        self.checkpoints.append(
            Checkpoint(
                branch_address=branch_address,
                resume_pc=resume_pc,
                registers=machine.snapshot_registers(),
                flags=machine.flags.snapshot(),
                memlog_index=len(self.memlog),
                taint_log_index=len(self.taint_log),
                register_tags=register_tags,
                flags_tag=flags_tag,
                instruction_count_at_entry=self.spec_instruction_count,
                model=model,
            )
        )
        self.stats.max_depth_reached = max(self.stats.max_depth_reached, self.depth)
        return True

    # -- logging -----------------------------------------------------------------
    def log_memory_write(self, address: int, old_bytes: bytes) -> None:
        """Record the previous contents of a store executed in simulation."""
        self.memlog.append((address, old_bytes))

    def log_taint_write(self, shadow_address: int, old_tag: int) -> None:
        """Record the previous value of a tag-shadow byte written in simulation."""
        self.taint_log.append((shadow_address, old_tag))

    def count_instruction(self) -> None:
        """Account one architectural instruction executed in simulation."""
        self.spec_instruction_count += 1
        self.stats.simulated_instructions += 1

    # -- rollback ---------------------------------------------------------------------
    def rollback(self, machine, dift=None, reason: str = "restore") -> int:
        """Roll back to the innermost checkpoint.

        Undoes logged memory and taint writes performed since that
        checkpoint, restores registers/flags (and register tags), rewinds
        the program counter to the instruction after the ``checkpoint``
        pseudo-op (the original conditional branch) and returns the number
        of memory-log entries undone (for cost accounting).

        Raises:
            RuntimeError: if no simulation is active.
        """
        if not self.checkpoints:
            raise RuntimeError("rollback requested outside speculation simulation")
        checkpoint = self.checkpoints.pop()

        undone = 0
        while len(self.memlog) > checkpoint.memlog_index:
            address, old = self.memlog.pop()
            machine.memory.write_bytes(address, old)
            undone += 1
        machine.restore_registers(checkpoint.registers)
        if undone > self.undo_depth_max:
            self.undo_depth_max = undone
        self._finish_rollback(checkpoint, machine, dift, reason)
        return undone

    def _finish_rollback(self, checkpoint, machine, dift, reason: str) -> None:
        """Rollback tail: taint-log unwind, flags/pc/DIFT restoration and
        statistics.  :meth:`JournalingSpeculationController.rollback_function`
        runs the same sequence over the journal."""
        while len(self.taint_log) > checkpoint.taint_log_index:
            shadow_address, old_tag = self.taint_log.pop()
            machine.memory.write_shadow_byte(shadow_address, old_tag)

        machine.flags.restore(checkpoint.flags)
        machine.pc = checkpoint.resume_pc
        # Dynamic models resume *at* their entry instruction; arm the skip
        # so its hook lets the architectural re-execution retire.
        self.skip_site = (
            checkpoint.resume_pc if checkpoint.model != "pht" else None
        )
        if dift is not None and checkpoint.register_tags is not None:
            dift.restore_register_tags(checkpoint.register_tags)
            dift.flags_tag = checkpoint.flags_tag

        self.stats.rollbacks += 1
        if reason == "budget":
            self.stats.budget_rollbacks += 1
        elif reason == "forced":
            self.stats.forced_rollbacks += 1
        elif reason == "exception":
            self.stats.exception_rollbacks += 1
        if not self.checkpoints:
            self.spec_instruction_count = 0

    def rollback_function(self, reason: str, coverage=None, cycles=None,
                          cost_model=None) -> Callable:
        """A rollback as a function ``(machine, dift) -> undone``.

        The whole sequence that ends a simulation, whatever ended it:
        :meth:`rollback` with ``reason``, then with ``coverage`` (a
        ``CoverageRuntime``) the flush of the speculative coverage noted
        on the wrong path, and with ``cycles`` (a one-element counter
        cell) the charge of ``cost_model.rollback_cost(undone)``.  Every
        engine binds one per site kind and calls nothing else to roll
        back.
        """
        rollback = self.rollback

        def bound(machine, dift):
            undone = rollback(machine, dift, reason)
            if coverage is not None:
                coverage.flush_speculative()
            if cycles is not None:
                cycles[0] += cost_model.rollback_cost(undone)
            return undone

        return bound

    def reset(self) -> None:
        """Clear all run state (checkpoints, logs, counters) and policy state."""
        self.checkpoints.clear()
        self.memlog.clear()
        self.taint_log.clear()
        self.spec_instruction_count = 0
        self.skip_site = None
        self.stats.reset()
        self.undo_depth_max = 0
        self.policy.reset()


class JournalingSpeculationController(SpeculationController):
    """Speculation controller backed by copy-on-write journaling.

    Instead of keeping a controller-side memory log, this controller
    attaches a :class:`StateJournal` to the machine while ≥ 1 checkpoint
    is live.  Every guest-memory write is then recorded as an ``(address,
    old bytes)`` undo entry by the machine itself, and rollback replays the
    journal segment since the innermost checkpoint's mark.  Nested
    speculation simply pops journal segments.  Registers are copied into
    each checkpoint and restored in place (slice assignment), so the
    compiled engines' hoisted register list stays valid.

    Behaviour (rollback results, statistics and the ``undone`` memory-entry
    count the cost model charges for) is bit-identical to the legacy
    snapshot controller; the differential test harness asserts this for
    every nesting policy.
    """

    uses_machine_journal = True

    def __init__(
        self,
        policy: Optional[NestedSpeculationPolicy] = None,
        rob_budget: int = DEFAULT_ROB_BUDGET,
    ) -> None:
        super().__init__(policy, rob_budget=rob_budget)
        self.journal = StateJournal()
        self._machine = None
        #: reason -> this controller's plain rollback function.
        self._rollbacks: Dict[str, Callable] = {}

    # -- per-run lifecycle -------------------------------------------------------
    def begin_run(self) -> None:
        """Clear per-execution state, including a journal left over by a run
        that ended (crash/fuel) while a simulation was still active."""
        super().begin_run()
        if self._machine is not None:
            self._machine.attach_journal(None)
            self._machine = None
        self.journal.clear()

    # -- entry -------------------------------------------------------------------
    # ``enter`` and the rollback run once per speculation episode (tens of
    # times per execution), so unlike the snapshot controller they work on
    # locals in one pass: no ``depth``/``in_simulation`` properties and no
    # snapshot/restore helper calls.  The results are identical.  The
    # compiled engines' gates push checkpoints of the same shape inline
    # (``jit._BlockCompiler._emit_checkpoint``) and call the rollback function
    # bound at install.
    def maybe_enter(self, machine, branch_address: int, resume_pc: int,
                    dift=None, model: str = "pht") -> bool:
        """Decide whether to enter simulation; push a checkpoint on accept."""
        if not self.policy.should_enter(branch_address,
                                        len(self.checkpoints)):
            return False
        self.enter(machine, branch_address, resume_pc, dift, model)
        return True

    def enter(self, machine, branch_address: int, resume_pc: int,
              dift=None, model: str = "pht") -> None:
        """Push a checkpoint for an entry the nesting policy accepted.

        :meth:`maybe_enter` without the policy call: the compiled engines
        evaluate the built-in nesting gates inline and call this on accept.
        """
        checkpoints = self.checkpoints
        depth = len(checkpoints)
        stats = self.stats
        journal = self.journal
        if depth:
            stats.nested_simulations += 1
        else:
            self.spec_instruction_count = 0
            stats.simulations_started += 1
            journal.clear()
            self._machine = machine
            machine.attach_journal(journal)
        if model != "pht":
            entries = stats.model_entries
            entries[model] = entries.get(model, 0) + 1
        if dift is None:
            register_tags = None
            flags_tag = 0
        else:
            register_tags = dift.register_tags[:]
            flags_tag = dift.flags_tag
        flags = machine.flags
        checkpoints.append(JournalCheckpoint((
            branch_address,
            resume_pc,
            len(journal.entries),
            machine.registers[:],
            (flags.zero, flags.sign, flags.carry, flags.overflow),
            len(self.taint_log),
            register_tags,
            flags_tag,
            model,
        )))
        if depth >= stats.max_depth_reached:
            stats.max_depth_reached = depth + 1

    # -- logging -----------------------------------------------------------------
    def log_memory_write(self, address: int, old_bytes: bytes) -> None:
        """No-op: the attached journal records guest stores automatically."""

    # -- rollback ---------------------------------------------------------------------
    def rollback(self, machine, dift=None, reason: str = "restore") -> int:
        """Roll back to the innermost checkpoint by replaying the journal."""
        rollback = self._rollbacks.get(reason)
        if rollback is None:
            rollback = self._rollbacks[reason] = self.rollback_function(reason)
        return rollback(machine, dift)

    def rollback_function(self, reason: str, coverage=None, cycles=None,
                          cost_model=None) -> Callable:
        """The one rollback implementation, in one pass over locals.

        Same contract as :meth:`SpeculationController.rollback_function`:
        it pops the innermost checkpoint, replays the journal only when
        it holds entries past the checkpoint's mark, unwinds the taint
        log, restores registers, flags, pc and DIFT register tags, counts
        a ``reason`` rollback, detaches the journal once no checkpoint is
        left, flushes the noted coverage into ``coverage``'s speculative
        map and charges the cost into ``cycles``.  :meth:`rollback` calls
        it, and generated code calls the functions bound at install, so
        an episode's rollback makes no further call.

        Everything bound here is cleared in place, never reassigned:
        checkpoints, journal entries, taint log, statistics (see
        :meth:`SpeculationStats.reset`) and the coverage buffers.
        """
        checkpoints = self.checkpoints
        entries = self.journal.entries
        rollback_to = self.journal.rollback_to
        taint_log = self.taint_log
        stats = self.stats
        budget = reason == "budget"
        forced = reason == "forced"
        exception = reason == "exception"
        if coverage is not None:
            notes = coverage._spec_buffer
            speculative = coverage.speculative._covered
        if cycles is not None:
            base = cost_model.rollback_base
            per_entry = cost_model.rollback_per_entry

        def rollback(machine, dift):
            if not checkpoints:
                raise RuntimeError(
                    "rollback requested outside speculation simulation")
            if coverage is not None and notes:
                speculative.update(notes)
                notes.clear()
                coverage.lazy_flushes += 1
            (_, resume_pc, mark, registers, saved_flags, taint_mark,
             register_tags, flags_tag, model) = checkpoints.pop()
            if len(entries) > mark:
                undone = rollback_to(mark, machine)
                if undone > self.undo_depth_max:
                    self.undo_depth_max = undone
            else:
                undone = 0
            machine.registers[:] = registers
            if len(taint_log) > taint_mark:
                # every logged shadow byte's page exists: the logged
                # write created it, and pages are never dropped in a run
                pages = machine.memory._pages
                for index in range(len(taint_log) - 1, taint_mark - 1, -1):
                    shadow_address, old_tag = taint_log[index]
                    pages[shadow_address >> 12][shadow_address & PAGE_MASK] = (
                        old_tag & 0xFF)
                del taint_log[taint_mark:]
            flags = machine.flags
            flags.zero, flags.sign, flags.carry, flags.overflow = saved_flags
            machine.pc = resume_pc
            # Dynamic models resume *at* their entry instruction; arm the
            # skip so its hook lets the architectural re-execution retire.
            self.skip_site = resume_pc if model != "pht" else None
            if dift is not None and register_tags is not None:
                # the popped checkpoint's copy is no longer shared
                dift.register_tags = register_tags
                dift.flags_tag = flags_tag
            stats.rollbacks += 1
            if budget:
                stats.budget_rollbacks += 1
            elif forced:
                stats.forced_rollbacks += 1
            elif exception:
                stats.exception_rollbacks += 1
            if not checkpoints:
                # the depth-0 mark is 0, so the journal is empty again
                self.spec_instruction_count = 0
                machine.journal = machine.memory.journal = None
            if cycles is not None:
                cycles[0] += base + per_entry * undone
            return undone

        return rollback

    def reset(self) -> None:
        """Clear all run state including the journal attachment."""
        if self._machine is not None:
            self._machine.attach_journal(None)
            self._machine = None
        self.journal.clear()
        super().reset()
