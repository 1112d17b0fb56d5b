"""The TVM emulator: executes native and instrumented TELF binaries.

The emulator is both the "CPU" and the runtime support library of the
paper's system:

* it executes architectural TVM instructions with a deterministic cycle
  cost model (:mod:`repro.runtime.costs`),
* it executes instrumentation pseudo-ops by calling into the speculation
  controller (:mod:`repro.runtime.speculation`), the sanitizers
  (:mod:`repro.sanitizers`), the coverage runtime
  (:mod:`repro.coverage`) and the active detection policy,
* it implements the control-flow-escape checks of paper §5.3 for binaries
  rewritten with Speculation Shadows (indirect transfers in the Shadow Copy
  may only target Shadow-Copy code or marked Real-Copy blocks; anything
  else forces a rollback),
* it converts exceptions raised during speculation simulation into
  rollbacks, the software equivalent of the paper's custom signal handler.

A single :class:`Emulator` instance decodes its binary once and can then be
run many times over different inputs — this is the persistent-mode fuzzing
loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.encoding import decode_instruction
from repro.isa.instructions import Instruction, Opcode
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import ARG_REGISTERS, RETURN_REGISTER, Register
from repro.loader.binary_format import SymbolKind, TelfBinary
from repro.runtime.costs import CostModel, DEFAULT_COSTS
from repro.runtime.errors import (
    ArithmeticFault,
    EmulationError,
    MemoryFault,
    ProgramCrash,
    ProgramExit,
)
from repro.runtime.externals import ExternalRegistry, default_externals
from repro.runtime.heap import Heap
from repro.runtime.machine import MASK64, MachineState, to_signed, to_unsigned
from repro.runtime.speculation import SpeculationController
from repro.telemetry.context import active as _active_telemetry
from repro.coverage.sancov import CoverageRuntime
from repro.sanitizers.asan import BinaryAsan
from repro.sanitizers.dift import BinaryDift
from repro.sanitizers.policy import DetectionPolicy
from repro.sanitizers.reports import GadgetReport

#: Sentinel return address marking "return from the entry function".
EXIT_SENTINEL = 0xDEAD_0000_0000

#: Metadata key set by rewriters that split the program into Real/Shadow copies.
SHADOW_METADATA_KEY = "speculation_shadows"

#: The (reason, charged) kinds of rollback site.  Budget restores,
#: ``restore.always`` and speculative faults pay ``rollback_cost`` (the
#: paper's recovery-stub cost); serializing instructions, external calls,
#: shadow escapes and exit-sentinel returns squash for free.
ROLLBACK_SITES = (("budget", True), ("forced", True), ("forced", False),
                  ("exception", True))


@dataclass
class ExecutionResult:
    """Outcome and accounting of one program execution."""

    status: str                      # "exit" | "crash" | "fuel"
    exit_status: int = 0
    crash_reason: str = ""
    steps: int = 0
    cycles: int = 0
    arch_instructions: int = 0
    spec_stats: Dict[str, int] = field(default_factory=dict)
    reports: List[GadgetReport] = field(default_factory=list)
    output: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the program terminated voluntarily."""
        return self.status == "exit"


class Emulator:
    """Executes a TELF binary over fuzz inputs."""

    #: engine name reported to telemetry; the compiled engines override it.
    engine_name = "legacy"

    def __init__(
        self,
        binary: TelfBinary,
        externals: Optional[ExternalRegistry] = None,
        cost_model: Optional[CostModel] = None,
        controller: Optional[SpeculationController] = None,
        policy: Optional[DetectionPolicy] = None,
        coverage: Optional[CoverageRuntime] = None,
        max_steps: int = 5_000_000,
        stack_protect: bool = True,
        taint_sources_enabled: bool = True,
        spec_models=None,
        telemetry=None,
    ) -> None:
        self.binary = binary
        self.layout = binary.layout
        self.externals = externals or default_externals()
        self.cost_model = cost_model or DEFAULT_COSTS
        self.controller = controller
        self.policy = policy
        self.coverage = coverage
        self.max_steps = max_steps
        self.stack_protect = stack_protect
        self.taint_sources_enabled = taint_sources_enabled
        #: explicit per-emulator telemetry override; when ``None`` (the
        #: default) the process-wide active bundle is consulted per run.
        #: Observation-only either way — results never depend on it.
        self.telemetry = telemetry
        self.has_shadows = binary.metadata.get(SHADOW_METADATA_KEY) == "1"
        #: active speculation models; ``None`` keeps the classic behaviour
        #: (conditional-branch misprediction only) without instantiating
        #: any model object — the hot paths stay untouched.
        self.spec_models = tuple(spec_models) if spec_models is not None else ()
        self._pht_enabled = (
            spec_models is None
            or any(model.name == "pht" for model in self.spec_models)
        )
        self._dynamic_models = tuple(
            model for model in self.spec_models if model.dynamic
        )

        # Per-run state (created in run()).
        self.machine: Optional[MachineState] = None
        self.heap: Optional[Heap] = None
        self.asan: Optional[BinaryAsan] = None
        self.dift: Optional[BinaryDift] = None
        self.input_data: bytes = b""
        self._input_pos = 0
        self.output: List[str] = []
        self.pending_return_tag = 0
        self._pending_promotion = 0
        self._extra_cycles = 0
        #: cycles charged outside the main loop's own count: every
        #: rollback's cost (the compiled engines count all cycles here).
        self._cycles_cell = [0]
        #: pristine (pages, regions) image of the freshly loaded process;
        #: built on the first run and cloned on every later run, replacing
        #: the per-run section mapping and copying.
        self._memory_template = None

        self._decode_text()
        self._index_shadow_functions()
        self._dispatch = self._build_dispatch()
        self._install_model_hooks()
        self._bind_rollbacks()

    def rebind_controller(self, controller) -> None:
        """Swap the speculation controller between runs.

        The legacy interpreter reads ``self.controller`` on every step, so
        an attribute assignment and new rollback bindings suffice;
        trace-building engines override this to rebuild their dispatch
        structures.
        """
        self.controller = controller
        self._bind_rollbacks()

    def _bind_rollbacks(self) -> None:
        """Bind the controller's rollback function once per site kind
        (:data:`ROLLBACK_SITES`) to this emulator's coverage and cycle
        cell; :meth:`_rollback` and the compiled engines call them."""
        controller = self.controller
        self._rollbacks = {} if controller is None else {
            (reason, charge): controller.rollback_function(
                reason, coverage=self.coverage,
                cycles=self._cycles_cell if charge else None,
                cost_model=self.cost_model)
            for reason, charge in ROLLBACK_SITES}

    # ------------------------------------------------------------------ setup
    def _decode_text(self) -> None:
        """Decode every instruction in the text section exactly once."""
        text = self.binary.text
        self.instructions: Dict[int, Instruction] = {}
        self.next_address: Dict[int, int] = {}
        for sym in self.binary.function_symbols():
            offset = sym.address - text.address
            end = offset + sym.size
            while offset < end:
                instr, length = decode_instruction(text.data, offset)
                addr = text.address + offset
                instr.address = addr
                self.instructions[addr] = instr
                self.next_address[addr] = addr + length
                offset += length

    def _index_shadow_functions(self) -> None:
        """Record the address ranges of Shadow-Copy functions (``*$spec``)."""
        self._shadow_ranges: List[Tuple[int, int]] = []
        for sym in self.binary.function_symbols():
            if sym.name.endswith("$spec"):
                self._shadow_ranges.append((sym.address, sym.address + sym.size))

    def _in_shadow_copy(self, addr: int) -> bool:
        for start, end in self._shadow_ranges:
            if start <= addr < end:
                return True
        return False

    # ------------------------------------------------------------ speculation models
    def _install_model_hooks(self) -> None:
        """Route dispatch entries through the model-aware handlers.

        Only installed when *dynamic* speculation models (BTB/RSB/STL, i.e.
        anything beyond the checkpoint-driven PHT default) are active, so
        the classic configuration pays nothing.  The compiled engines run
        these opcodes' source sites through legacy-handler fallbacks,
        which funnels every engine through the handlers below — one
        implementation, zero drift.
        """
        dyn = self._dynamic_models
        self._indirect_models = tuple(m for m in dyn if m.predicts_indirect)
        self._ret_models = tuple(m for m in dyn if m.predicts_return)
        self._load_models = tuple(m for m in dyn if m.predicts_stale_load)
        self._call_observers = tuple(m for m in dyn if m.observes_calls)
        self._store_observers = tuple(m for m in dyn if m.observes_stores)
        self._model_opcodes = frozenset().union(
            *(m.source_opcodes for m in dyn)) if dyn else frozenset()
        if not dyn:
            self._spec_alias_map: Dict[int, int] = {}
            return
        self._spec_alias_map = self._build_spec_alias()
        dispatch = self._dispatch
        if self._indirect_models or self._call_observers:
            dispatch[Opcode.ICALL] = self._op_icall_model
        if self._indirect_models:
            dispatch[Opcode.IJMP] = self._op_ijmp_model
        if self._ret_models:
            dispatch[Opcode.RET] = self._op_ret_model
        if self._call_observers:
            dispatch[Opcode.CALL] = self._op_call_model
        if self._store_observers:
            dispatch[Opcode.STORE] = self._op_store_model
        if self._load_models:
            dispatch[Opcode.LOAD] = self._op_load_model

    def _build_spec_alias(self) -> Dict[int, int]:
        """Map every Real-Copy address to its Shadow-Copy counterpart.

        Dynamic models mispredict to Real-Copy addresses (stale branch
        targets, stale return sites, the bypassing load itself); redirecting
        to the Shadow-Copy counterpart instead keeps the simulated wrong
        path inside instrumented code, exactly where a ``checkpoint``
        trampoline would have led.  The mapping uses the same invariant as
        :mod:`repro.hardening.sites`: rewriting passes only insert
        instructions, so the n-th *architectural* instruction of ``f`` is
        the n-th architectural instruction of ``f$spec`` (the shadow's
        appended trampoline blocks come after the common prefix).  Every
        address — pseudo-ops included — maps to the shadow address of the
        next architectural instruction at or after it.  Empty (identity)
        for single-copy binaries.
        """
        alias: Dict[int, int] = {}
        if not self.has_shadows:
            return alias
        symbols = {sym.name: sym for sym in self.binary.function_symbols()}
        for name, sym in symbols.items():
            if name.endswith("$spec"):
                continue
            spec = symbols.get(name + "$spec")
            if spec is None:
                continue
            spec_arch = [
                addr for addr in self._symbol_addresses(spec)
                if self.instructions[addr].opcode not in _PSEUDO_SET
            ]
            arch_index = 0
            pending = []
            for addr in self._symbol_addresses(sym):
                pending.append(addr)
                if self.instructions[addr].opcode in _PSEUDO_SET:
                    continue
                if arch_index < len(spec_arch):
                    target = spec_arch[arch_index]
                    for waiting in pending:
                        alias[waiting] = target
                pending = []
                arch_index += 1
        return alias

    def _symbol_addresses(self, sym) -> List[int]:
        """Decoded instruction addresses of one function, in layout order."""
        addresses = []
        addr = sym.address
        end = sym.address + sym.size
        while addr < end and addr in self.instructions:
            addresses.append(addr)
            addr = self.next_address[addr]
        return addresses

    def _spec_alias(self, addr: int) -> int:
        """Shadow-Copy counterpart of ``addr`` (identity if none exists)."""
        return self._spec_alias_map.get(addr, addr)

    def _model_mispredict(self, instr, models, actual: int) -> Optional[int]:
        """Ask the given models for a misprediction at this site.

        Returns the *Real-Copy* wrong target once a model predicted one and
        the nesting policy admitted the (possibly nested) simulation, or
        ``None`` when the site retires correctly.  Model state is only
        *read* here — architectural observation happens on the retire path,
        so squashed mispredictions never corrupt the histories.
        """
        controller = self.controller
        depth = controller.depth
        for model in models:
            if depth and not model.nests:
                continue
            candidates = model.mispredicted_targets(self, instr, actual)
            if not candidates:
                continue
            wrong = model.choose_target(instr.address, candidates)
            if not controller.maybe_enter(
                self.machine, branch_address=instr.address,
                resume_pc=instr.address, dift=self.dift, model=model.name,
            ):
                continue
            self._extra_cycles += model.entry_cost
            return wrong
        return None

    def _op_icall_model(self, instr):
        """Indirect call with BTB misprediction and RSB observation.

        The architectural retire delegates to :meth:`_op_icall` (like every
        other model hook), so escape checks and call mechanics cannot
        drift; the operand read in the prologue is side-effect-free and
        repeats inside the base handler.
        """
        controller = self.controller
        if controller is not None:
            target = to_unsigned(self.machine.read_operand(instr.operands[0]))
            if not controller.consume_skip(instr.address):
                wrong = self._model_mispredict(
                    instr, self._indirect_models, target)
                if wrong is not None:
                    # A mispredicted call still pushes its return address,
                    # then control follows the stale target (its shadow
                    # counterpart, so the wrong path stays instrumented).
                    return self._do_call(instr, self._spec_alias(wrong))
            if not controller.in_simulation:
                for model in self._indirect_models:
                    model.on_indirect(self, instr, target)
                for model in self._call_observers:
                    model.on_call(self, instr, self._next(instr))
        return self._op_icall(instr)

    def _op_ijmp_model(self, instr):
        """Indirect jump with BTB misprediction (retire via _op_ijmp)."""
        controller = self.controller
        if controller is not None:
            operand = instr.operands[0]
            if isinstance(operand, Mem):
                addr = self.machine.effective_address(operand)
                target = self.machine.memory.read_int(addr, 8)
            else:
                target = self.machine.read_operand(operand)
            target = to_unsigned(target)
            if not controller.consume_skip(instr.address):
                wrong = self._model_mispredict(
                    instr, self._indirect_models, target)
                if wrong is not None:
                    return self._spec_alias(wrong)
            if not controller.in_simulation:
                for model in self._indirect_models:
                    model.on_indirect(self, instr, target)
        return self._op_ijmp(instr)

    def _op_call_model(self, instr):
        """Direct call observed by return-stack models."""
        controller = self.controller
        if controller is None or not controller.in_simulation:
            for model in self._call_observers:
                model.on_call(self, instr, self._next(instr))
        return self._op_call(instr)

    def _op_ret_model(self, instr):
        """Return with RSB misprediction to stale return-stack entries."""
        controller = self.controller
        machine = self.machine
        if controller is not None and machine.memory.is_mapped(machine.sp, 8):
            actual = machine.memory.read_int(machine.sp, 8)
            if not controller.consume_skip(instr.address):
                wrong = self._model_mispredict(instr, self._ret_models, actual)
                if wrong is not None:
                    # The mispredicted return pops the stack architecturally
                    # (journaled) but follows the stale prediction.
                    sp = machine.sp
                    if self.asan is not None:
                        self.asan.unpoison_return_slot(sp)
                    machine.sp = sp + 8
                    return self._spec_alias(wrong)
            if not controller.in_simulation:
                for model in self._ret_models:
                    model.pop()
        return self._op_ret(instr)

    def _op_store_model(self, instr):
        """Store recorded into the STL models' bypass windows."""
        controller = self.controller
        if controller is None or not controller.in_simulation:
            mem = instr.operands[0]
            addr = self.machine.effective_address(mem)
            for model in self._store_observers:
                model.on_store(self, instr, addr, instr.size)
        return self._op_store(instr)

    def _op_load_model(self, instr):
        """Load with store-to-load bypass: speculatively read stale memory."""
        controller = self.controller
        if controller is not None and not controller.consume_skip(instr.address):
            addr = self.machine.effective_address(instr.operands[1])
            redirected = self._model_stale_load(instr, addr)
            if redirected is not None:
                return redirected
        return self._op_load(instr)

    def _model_stale_load(self, instr, addr: int) -> Optional[int]:
        """Enter an STL simulation: rewind the store, re-issue the load.

        The matched store's range is rewritten to its pre-store bytes (and
        stale DIFT tags) through the normal journaled/logged write paths,
        then control re-enters at the load's Shadow-Copy counterpart —
        which reads the stale memory with ordinary tag propagation and
        policy checks.  Rollback restores the committed store.
        """
        controller = self.controller
        depth = controller.depth
        size = instr.size
        memory = self.machine.memory
        for model in self._load_models:
            if depth and not model.nests:
                continue
            index = model.find(addr, size)
            if index is None:
                continue
            if not memory.is_mapped(addr, size):
                continue
            if not controller.maybe_enter(
                self.machine, branch_address=instr.address,
                resume_pc=instr.address, dift=self.dift, model=model.name,
            ):
                continue
            stale, stale_tags = model.take(index)
            self._extra_cycles += model.entry_cost
            self._guest_write(addr, stale)
            if self.dift is not None and stale_tags is not None:
                for offset, tag in enumerate(stale_tags):
                    self.dift.set_mem_tag(addr + offset, 1, tag)
            return self._spec_alias(instr.address)
        return None

    # ------------------------------------------------------------------ input
    def consume_input(self, max_len: int) -> bytes:
        """Consume up to ``max_len`` bytes of the current fuzz input."""
        if max_len <= 0:
            return b""
        data = self.input_data[self._input_pos:self._input_pos + max_len]
        self._input_pos += len(data)
        return data

    def consume_input_line(self, max_len: int) -> bytes:
        """Consume up to one line (including the newline) of the input."""
        if max_len <= 0:
            return b""
        remaining = self.input_data[self._input_pos:]
        if not remaining:
            return b""
        newline = remaining.find(b"\n", 0, max_len)
        length = max_len if newline < 0 else newline + 1
        return self.consume_input(length)

    # ------------------------------------------------------------------ run
    def run(self, input_data: bytes = b"", argv: Optional[List[bytes]] = None) -> ExecutionResult:
        """Execute the binary's entry function over ``input_data``."""
        telemetry = self.telemetry
        if telemetry is None:
            telemetry = _active_telemetry()
        if telemetry is not None and telemetry.profiler is not None:
            telemetry.profiler.attach(self)
        self._setup_process(input_data, argv or [])
        result = self._execute()
        if self.policy is not None:
            result.reports = self.policy.drain_reports()
        if self.controller is not None:
            result.spec_stats = self.controller.stats.as_dict()
        result.output = list(self.output)
        if telemetry is not None:
            telemetry.record_execution(self, result)
        return result

    def _setup_process(self, input_data: bytes, argv: List[bytes]) -> None:
        machine = MachineState(self.layout)
        memory = machine.memory
        if self._memory_template is None:
            for section in self.binary.sections.values():
                if section.size:
                    memory.map_region(section.address, section.size)
                    memory.write_bytes(section.address, section.data)
            stack_bottom = self.layout.stack_bottom()
            memory.map_region(stack_bottom, self.layout.stack_size + 256)
            self._memory_template = (
                {pid: bytes(page) for pid, page in memory._pages.items()},
                list(memory._regions),
            )
        else:
            pages, regions = self._memory_template
            memory._pages = {pid: bytearray(page) for pid, page in pages.items()}
            memory._regions = list(regions)
        machine.sp = self.layout.stack_top
        machine.set_reg(Register.FP, 0)

        self.machine = machine
        self.heap = Heap(memory, self.layout)
        self.input_data = input_data
        self._input_pos = 0
        self.output = []
        self.pending_return_tag = 0
        self._pending_promotion = 0
        self.attack_input_counter = 0

        needs_asan = self.policy is not None and self.policy.needs_asan
        needs_dift = self.policy is not None and self.policy.needs_dift
        self.asan = BinaryAsan(memory, self.layout, protect_stack=self.stack_protect) if needs_asan else None
        self.dift = BinaryDift(memory, self.layout) if needs_dift else None
        if self.asan is not None:
            self.heap.asan = self.asan
        if self.dift is not None:
            self.dift.controller = self.controller
            self.dift.sources_enabled = self.taint_sources_enabled
        if self.policy is not None:
            self.policy.attach(self.asan, self.dift)
        if self.controller is not None:
            self.controller.begin_run()
        for model in self.spec_models:
            model.begin_run()
        if self.coverage is not None:
            self.coverage.reset_execution_state()

        # argv: argc in r1, argv pointer in r2, both attacker controlled
        # (the paper tags argc and argv as User).
        argc = len(argv)
        machine.set_reg(Register.R1, argc)
        if argv:
            ptrs = []
            for arg in argv:
                addr = self.heap.malloc(len(arg) + 1)
                memory.write_bytes(addr, arg + b"\x00")
                if self.dift is not None:
                    self.dift.mark_user_input(addr, len(arg))
                ptrs.append(addr)
            table = self.heap.malloc(8 * argc)
            for i, ptr in enumerate(ptrs):
                memory.write_int(table + 8 * i, ptr, 8)
            machine.set_reg(Register.R2, table)
        else:
            machine.set_reg(Register.R2, 0)

        machine.push(EXIT_SENTINEL)
        machine.pc = self.binary.entry_address()

    # ------------------------------------------------------------------ main loop
    def _execute(self) -> ExecutionResult:
        machine = self.machine
        controller = self.controller
        dift = self.dift
        cost_model = self.cost_model
        dispatch = self._dispatch
        instructions = self.instructions
        next_address = self.next_address

        result = ExecutionResult(status="exit")
        steps = 0
        cycles = 0
        arch_instructions = 0
        charged = self._cycles_cell
        charged[0] = 0

        while True:
            if steps >= self.max_steps:
                result.status = "fuel"
                break
            pc = machine.pc
            if pc == EXIT_SENTINEL:
                result.exit_status = to_signed(machine.get_reg(RETURN_REGISTER))
                break
            instr = instructions.get(pc)
            if instr is None:
                if (
                    self._dynamic_models
                    and controller is not None
                    and controller.in_simulation
                ):
                    # A model-driven wrong path computed a non-code target;
                    # like any speculative fault this squashes the
                    # simulation instead of crashing the run.
                    self._rollback("exception")
                    continue
                result.status = "crash"
                result.crash_reason = f"jump to non-code address {pc:#x}"
                break
            steps += 1
            opcode = instr.opcode
            cycles += cost_model.instruction_cost(opcode)
            self._extra_cycles = 0

            in_sim = controller is not None and controller.checkpoints
            is_arch = opcode not in _PSEUDO_SET
            if is_arch:
                arch_instructions += 1
                if in_sim:
                    controller.count_instruction()
                if dift is not None:
                    try:
                        dift.propagate(instr, machine)
                    except MemoryFault:
                        # Tag shadow lookups never fault; a fault here means
                        # the effective address itself is wild — the access
                        # below will raise and be handled uniformly.
                        pass

            try:
                new_pc = dispatch[opcode](instr)
            except (MemoryFault, ArithmeticFault) as exc:
                if controller is not None and controller.in_simulation:
                    self._rollback("exception")
                    continue
                result.status = "crash"
                result.crash_reason = str(exc)
                break
            except ProgramExit as exc:
                result.exit_status = exc.status
                break
            except ProgramCrash as exc:
                # Only an external raises it, and every engine ends a
                # simulation before an external would run.
                result.status = "crash"
                result.crash_reason = str(exc)
                break

            if self._extra_cycles:
                cycles += self._extra_cycles
            if new_pc is None:
                # Handler already set machine.pc (branches, rollbacks, calls).
                continue
            machine.pc = new_pc

        result.steps = steps
        result.cycles = cycles + charged[0]
        result.arch_instructions = arch_instructions
        return result

    # ------------------------------------------------------------------ helpers
    def _guest_write(self, addr: int, data: bytes) -> None:
        """Guest memory write with speculative memory logging.

        With a journaling controller the machine's own
        :class:`~repro.runtime.machine.StateJournal` records the undo entry
        inside ``write_bytes``; only legacy snapshot controllers need the
        explicit memory log.
        """
        memory = self.machine.memory
        controller = self.controller
        if (
            controller is not None
            and not controller.uses_machine_journal
            and controller.in_simulation
        ):
            if memory.is_mapped(addr, len(data)):
                old = memory.read_bytes(addr, len(data))
                controller.log_memory_write(addr, old)
        memory.write_bytes(addr, data)

    def _write_int(self, addr: int, value: int, size: int) -> None:
        mask = (1 << (8 * size)) - 1
        self._guest_write(addr, (value & mask).to_bytes(size, "little"))

    def _next(self, instr: Instruction) -> int:
        return self.next_address[instr.address]

    def _rollback(self, reason: str, charge: bool = True) -> int:
        """End the innermost simulation through the bound rollback of
        its site kind (:meth:`_bind_rollbacks`); returns the resume pc.

        Every rollback outside generated code comes here: the legacy
        handlers and main loop, the compiled engines' dispatch loop and
        SpecTaint.
        """
        self._rollbacks[reason, charge](self.machine, self.dift)
        return self.machine.pc

    def _apply_promotion(self, dest_reg: Register) -> None:
        if self._pending_promotion and self.dift is not None:
            self.dift.or_register_tag(dest_reg, self._pending_promotion)
        self._pending_promotion = 0

    # ------------------------------------------------------------------ dispatch table
    def _build_dispatch(self):
        return {
            Opcode.MOV: self._op_mov,
            Opcode.LOAD: self._op_load,
            Opcode.STORE: self._op_store,
            Opcode.LEA: self._op_lea,
            Opcode.PUSH: self._op_push,
            Opcode.POP: self._op_pop,
            Opcode.ADD: self._op_alu,
            Opcode.SUB: self._op_alu,
            Opcode.MUL: self._op_alu,
            Opcode.DIV: self._op_alu,
            Opcode.MOD: self._op_alu,
            Opcode.AND: self._op_alu,
            Opcode.OR: self._op_alu,
            Opcode.XOR: self._op_alu,
            Opcode.SHL: self._op_alu,
            Opcode.SHR: self._op_alu,
            Opcode.SAR: self._op_alu,
            Opcode.NOT: self._op_unary,
            Opcode.NEG: self._op_unary,
            Opcode.CMP: self._op_cmp,
            Opcode.TEST: self._op_test,
            Opcode.JMP: self._op_jmp,
            Opcode.JCC: self._op_jcc,
            Opcode.CALL: self._op_call,
            Opcode.ICALL: self._op_icall,
            Opcode.IJMP: self._op_ijmp,
            Opcode.RET: self._op_ret,
            Opcode.NOP: self._op_nop,
            Opcode.LFENCE: self._op_serializing,
            Opcode.CPUID: self._op_serializing,
            Opcode.HALT: self._op_halt,
            Opcode.ECALL: self._op_ecall,
            Opcode.CHECKPOINT: self._op_checkpoint,
            Opcode.TRAMP_JCC: self._op_jcc,
            Opcode.ASAN_CHECK: self._op_access_check,
            Opcode.MEMLOG: self._op_nop,
            Opcode.DIFT_PROP: self._op_nop,
            Opcode.DIFT_BATCH: self._op_dift_batch,
            Opcode.POLICY_LOAD: self._op_access_check,
            Opcode.POLICY_STORE: self._op_access_check,
            Opcode.POLICY_BRANCH: self._op_policy_branch,
            Opcode.RESTORE_COND: self._op_restore_cond,
            Opcode.RESTORE_ALWAYS: self._op_restore_always,
            Opcode.SPEC_REDIRECT: self._op_spec_redirect,
            Opcode.MARKER_NOP: self._op_nop,
            Opcode.GUARD_CHECK: self._op_nop,
            Opcode.COV_TRACE: self._op_cov_trace,
            Opcode.COV_SPEC: self._op_cov_spec,
            Opcode.TAINT_SOURCE: self._op_taint_source,
        }

    # ------------------------------------------------------------------ architectural ops
    def _op_mov(self, instr):
        dst, src = instr.operands
        self.machine.set_reg(dst.reg, self.machine.read_operand(src))
        return self._next(instr)

    def _op_load(self, instr):
        dst, mem = instr.operands
        addr = self.machine.effective_address(mem)
        value = self.machine.memory.read_int(addr, instr.size)
        self.machine.set_reg(dst.reg, value)
        self._apply_promotion(dst.reg)
        return self._next(instr)

    def _op_store(self, instr):
        mem, src = instr.operands
        addr = self.machine.effective_address(mem)
        self._write_int(addr, self.machine.read_operand(src), instr.size)
        return self._next(instr)

    def _op_lea(self, instr):
        dst, mem = instr.operands
        self.machine.set_reg(dst.reg, self.machine.effective_address(mem))
        return self._next(instr)

    def _op_push(self, instr):
        (src,) = instr.operands
        value = self.machine.read_operand(src)
        new_sp = (self.machine.sp - 8) & MASK64
        self._write_int(new_sp, value, 8)
        self.machine.sp = new_sp
        return self._next(instr)

    def _op_pop(self, instr):
        (dst,) = instr.operands
        value = self.machine.memory.read_int(self.machine.sp, 8)
        self.machine.set_reg(dst.reg, value)
        self.machine.sp = self.machine.sp + 8
        self._apply_promotion(dst.reg)
        return self._next(instr)

    def _op_alu(self, instr):
        dst, src = instr.operands
        a = self.machine.get_reg(dst.reg)
        b = self.machine.read_operand(src)
        opcode = instr.opcode
        flags = self.machine.flags
        if opcode is Opcode.ADD:
            result = (a + b) & MASK64
            flags.set_add(a, b, result)
        elif opcode is Opcode.SUB:
            result = (a - b) & MASK64
            flags.set_sub(a, b, result)
        elif opcode is Opcode.MUL:
            result = (to_signed(a) * to_signed(b)) & MASK64
            flags.set_logic(result)
        elif opcode in (Opcode.DIV, Opcode.MOD):
            if b == 0:
                raise ArithmeticFault(instr.address or 0)
            sa, sb = to_signed(a), to_signed(b)
            quotient = int(sa / sb)  # C-style truncation toward zero
            remainder = sa - quotient * sb
            result = to_unsigned(quotient if opcode is Opcode.DIV else remainder)
            flags.set_logic(result)
        elif opcode is Opcode.AND:
            result = a & b
            flags.set_logic(result)
        elif opcode is Opcode.OR:
            result = a | b
            flags.set_logic(result)
        elif opcode is Opcode.XOR:
            result = a ^ b
            flags.set_logic(result)
        elif opcode is Opcode.SHL:
            result = (a << (b & 63)) & MASK64
            flags.set_logic(result)
        elif opcode is Opcode.SHR:
            result = (a & MASK64) >> (b & 63)
            flags.set_logic(result)
        elif opcode is Opcode.SAR:
            result = to_unsigned(to_signed(a) >> (b & 63))
            flags.set_logic(result)
        else:  # pragma: no cover - defensive
            raise EmulationError(f"unhandled ALU opcode {opcode}")
        self.machine.set_reg(dst.reg, result)
        return self._next(instr)

    def _op_unary(self, instr):
        (dst,) = instr.operands
        a = self.machine.get_reg(dst.reg)
        if instr.opcode is Opcode.NOT:
            result = (~a) & MASK64
        else:
            result = (-to_signed(a)) & MASK64
        self.machine.flags.set_logic(result)
        self.machine.set_reg(dst.reg, result)
        return self._next(instr)

    def _op_cmp(self, instr):
        a, b = instr.operands
        self.machine.flags.set_compare(
            self.machine.read_operand(a), self.machine.read_operand(b)
        )
        return self._next(instr)

    def _op_test(self, instr):
        a, b = instr.operands
        self.machine.flags.set_test(
            self.machine.read_operand(a), self.machine.read_operand(b)
        )
        return self._next(instr)

    def _op_jmp(self, instr):
        return self._branch_target(instr)

    def _op_jcc(self, instr):
        if self.machine.flags.evaluate(instr.cc):
            return self._branch_target(instr)
        return self._next(instr)

    def _branch_target(self, instr) -> int:
        target = instr.operands[0]
        if isinstance(target, Imm):
            return to_unsigned(target.value)
        raise EmulationError(f"unresolved branch target in {instr}")

    def _op_call(self, instr):
        target = self._branch_target(instr)
        return self._do_call(instr, target)

    def _do_call(self, instr, target: int):
        return_address = self._next(instr)
        new_sp = (self.machine.sp - 8) & MASK64
        self._write_int(new_sp, return_address, 8)
        self.machine.sp = new_sp
        if self.asan is not None:
            self.asan.poison_return_slot(new_sp)
        return target

    def _op_icall(self, instr):
        target = self.machine.read_operand(instr.operands[0])
        redirected = self._check_indirect_target(instr, target)
        if redirected is not None:
            return redirected
        return self._do_call(instr, target)

    def _op_ijmp(self, instr):
        operand = instr.operands[0]
        if isinstance(operand, Mem):
            addr = self.machine.effective_address(operand)
            target = self.machine.memory.read_int(addr, 8)
        else:
            target = self.machine.read_operand(operand)
        redirected = self._check_indirect_target(instr, target)
        if redirected is not None:
            return redirected
        return to_unsigned(target)

    def _op_ret(self, instr):
        sp = self.machine.sp
        target = self.machine.memory.read_int(sp, 8)
        if self.asan is not None:
            self.asan.unpoison_return_slot(sp)
        self.machine.sp = sp + 8
        redirected = self._check_indirect_target(instr, target)
        if redirected is not None:
            # The transfer escaped the Shadow Copy and was rolled back; the
            # restored state (including sp) comes from the checkpoint.
            return redirected
        if target == EXIT_SENTINEL:
            if self.controller is not None and self.controller.in_simulation:
                # Returning from the entry function cannot retire transiently
                # (applies to single-copy instrumentation too, where no
                # shadow-escape check intercepts the return).
                return self._rollback("forced", charge=False)
            return EXIT_SENTINEL
        return to_unsigned(target)

    def _check_indirect_target(self, instr, target: int) -> Optional[int]:
        """Control-flow escape handling for Speculation Shadows (paper §5.3).

        When executing in speculation simulation in a shadows-rewritten
        binary, an indirect transfer may only proceed if its target is in
        the Shadow Copy, or is a Real-Copy block carrying the special marker
        nop (whose following ``spec.redirect`` bounces control back into the
        Shadow Copy).  Otherwise a forced rollback terminates the simulation.

        Returns the new program counter when the transfer was intercepted
        (rollback), or ``None`` when the transfer may proceed normally.
        """
        if (
            self.controller is None
            or not self.controller.in_simulation
            or not self.has_shadows
        ):
            return None
        target = to_unsigned(target)
        if self._in_shadow_copy(target):
            return None
        target_instr = self.instructions.get(target)
        if target_instr is not None and target_instr.opcode is Opcode.MARKER_NOP:
            return None
        return self._rollback("forced", charge=False)

    def _op_nop(self, instr):
        return self._next(instr)

    def _op_serializing(self, instr):
        if self.controller is not None and self.controller.in_simulation:
            return self._rollback("forced", charge=False)
        return self._next(instr)

    def _op_halt(self, instr):
        if self.controller is not None and self.controller.in_simulation:
            # A transiently executed halt never retires; roll back instead.
            return self._rollback("forced", charge=False)
        raise ProgramExit(to_signed(self.machine.get_reg(RETURN_REGISTER)))

    def _op_ecall(self, instr):
        if self.controller is not None and self.controller.in_simulation:
            # External libraries are not instrumented; their side effects
            # cannot be rolled back, so the simulation must end here.
            return self._rollback("forced", charge=False)
        index = instr.operands[0]
        if isinstance(index, Imm):
            name = self.binary.import_name(index.value)
        else:
            raise EmulationError(f"unresolved ecall operand in {instr}")
        external = self.externals.get(name)
        args = [self.machine.get_reg(reg) for reg in ARG_REGISTERS]
        self.pending_return_tag = 0
        ret, moved = external.handler(self, args)
        self.machine.set_reg(RETURN_REGISTER, ret)
        if self.dift is not None:
            self.dift.set_register_tag(RETURN_REGISTER, self.pending_return_tag)
        self._extra_cycles = self.cost_model.external_cost(moved)
        return self._next(instr)

    # ------------------------------------------------------------------ instrumentation ops
    def _op_checkpoint(self, instr):
        resume_pc = self._next(instr)
        if self.controller is None or not self._pht_enabled:
            # The PHT variant is switched off: checkpoints are inert and
            # conditional branches always retire correctly.
            return resume_pc
        entered = self.controller.maybe_enter(
            self.machine, branch_address=resume_pc, resume_pc=resume_pc,
            dift=self.dift,
        )
        if not entered:
            return resume_pc
        return self._branch_target(instr)

    def _op_access_check(self, instr):
        if (
            self.controller is None
            or not self.controller.in_simulation
            or self.policy is None
        ):
            return self._next(instr)
        mem = instr.operands[0]
        is_write = instr.opcode is Opcode.POLICY_STORE
        if len(instr.operands) > 1 and isinstance(instr.operands[1], Imm):
            is_write = bool(instr.operands[1].value)
        addr = self.machine.effective_address(mem)
        promoted = self.policy.on_speculative_access(
            instr, mem, addr, instr.size, is_write, self.machine, self.controller
        )
        if promoted:
            self._pending_promotion |= promoted
        return self._next(instr)

    def _op_policy_branch(self, instr):
        if (
            self.controller is not None
            and self.controller.in_simulation
            and self.policy is not None
        ):
            self.policy.on_speculative_branch(instr, self.machine, self.controller)
        return self._next(instr)

    def _op_dift_batch(self, instr):
        # Tag propagation itself is performed inline for every architectural
        # instruction whenever DIFT is attached (keeping detection exact);
        # this pseudo-op accounts the cost of the optimised per-block snippet
        # the paper's rewriter emits for the Real Copy (§6.2.2).
        return self._next(instr)

    def _op_restore_cond(self, instr):
        controller = self.controller
        if controller is not None and controller.in_simulation and controller.budget_exceeded():
            return self._rollback("budget")
        return self._next(instr)

    def _op_restore_always(self, instr):
        controller = self.controller
        if controller is not None and controller.in_simulation:
            return self._rollback("forced")
        return self._next(instr)

    def _op_spec_redirect(self, instr):
        if self.controller is not None and self.controller.in_simulation:
            return self._branch_target(instr)
        return self._next(instr)

    def _op_cov_trace(self, instr):
        if self.coverage is not None:
            guard = instr.operands[0]
            self.coverage.trace_normal(guard.value if isinstance(guard, Imm) else 0)
        return self._next(instr)

    def _op_cov_spec(self, instr):
        if self.coverage is not None:
            guard = instr.operands[0]
            self.coverage.note_speculative(guard.value if isinstance(guard, Imm) else 0)
        return self._next(instr)

    def _op_taint_source(self, instr):
        if self.dift is not None:
            mem = instr.operands[0]
            size = instr.operands[1].value if len(instr.operands) > 1 else 8
            addr = self.machine.effective_address(mem)
            self.dift.mark_region(addr, size, BinaryDift.TAG_USER)
        return self._next(instr)


_PSEUDO_SET = frozenset(
    {
        Opcode.CHECKPOINT,
        Opcode.TRAMP_JCC,
        Opcode.ASAN_CHECK,
        Opcode.MEMLOG,
        Opcode.DIFT_PROP,
        Opcode.DIFT_BATCH,
        Opcode.POLICY_LOAD,
        Opcode.POLICY_STORE,
        Opcode.POLICY_BRANCH,
        Opcode.RESTORE_COND,
        Opcode.RESTORE_ALWAYS,
        Opcode.SPEC_REDIRECT,
        Opcode.MARKER_NOP,
        Opcode.GUARD_CHECK,
        Opcode.COV_TRACE,
        Opcode.COV_SPEC,
        Opcode.TAINT_SOURCE,
    }
)
