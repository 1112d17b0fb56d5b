"""Speculation episodes run as calls: fuel, crashes and depth across engines.

A compiled checkpoint gate runs its whole episode from the checkpoint:
it folds the trampoline, re-enters the dispatch loop until its
checkpoint is rolled back, and resumes the block in place.  These tests
drive the edges of that call on a small program with nested speculation
and require ``legacy``, ``fast`` and ``jit`` to agree on status, steps,
cycles, architectural instructions, speculation statistics and reports:

* fuel expiring at every step from the first checkpoint entry through
  three episodes (inside a folded trampoline, inside nested episodes,
  right after an in-place resume);
* a speculative jump to non-code at depth 2 in a SpecFuzz (single-copy)
  build, which ends the run from inside two episodes;
* nesting far deeper than the in-place depth, which must neither
  overflow Python's recursion limit nor change a result.

The episode bookkeeping itself runs in generated code: a compiled gate
pushes its checkpoint, one bound function rolls it back, and cycles and
the arch count stay pending across the episode.  The last tests pin
that no controller call is left on that path, that the statistics
object the generated code binds survives ``reset()``, and that counters
still pending when fuel ends the run inside an episode come out exact.
"""

from __future__ import annotations

import inspect

import pytest

from differential import result_record
from episode_work import BOOKKEEPING, campaign, count_calls
from repro.baselines.spectaint import SpecTaintAnalyzer
from repro.baselines.specfuzz import (SpecFuzzConfig, SpecFuzzRewriter,
                                      SpecFuzzRuntime)
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter
from repro.coverage.sancov import CoverageRuntime
from repro.isa.assembler import AsmProgram, Assembler
from repro.isa.builder import FunctionBuilder
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import Register
from repro.loader.binary_format import DataObject
from repro.minic.compiler import compile_source
from repro.runtime import jitcache
from repro.runtime.fastpath import resolve_engine
from repro.isa.instructions import Opcode
from repro.runtime.speculation import TeapotNestingPolicy
from repro.sanitizers.policy import KasperPolicy

ENGINES = ("legacy", "fast", "jit")

#: Two nested bounds checks per loop iteration: each wrong path meets the
#: next iteration's checkpoints, so episodes nest.
NESTED_SOURCE = r"""
int table[8];
int main() {
    byte buf[8];
    read_input(buf, 8);
    int acc = 0;
    for (int i = 0; i < 3; i++) {
        if (buf[i] < 100) {
            if (buf[i + 4] < 100) {
                acc += table[i];
            }
            acc += 1;
        }
    }
    return acc;
}
"""

#: One bounds check in a long loop: with eager nesting every wrong path
#: nests one level deeper per iteration.
DEEP_SOURCE = r"""
int main() {
    byte buf[8];
    read_input(buf, 8);
    int acc = 0;
    for (int i = 0; i < 1000; i++) {
        if (buf[i & 7] < 100) {
            acc += 1;
        }
    }
    return acc;
}
"""

NESTED_INPUT = bytes([200, 50, 200, 0, 50, 200, 0, 0])


@pytest.fixture(autouse=True)
def memo_only_cache(monkeypatch):
    """Keep the sweep's compiled modules off the disk."""
    monkeypatch.setenv("REPRO_JIT_CACHE", "0")
    monkeypatch.setattr(jitcache, "_shared", None)
    monkeypatch.setattr(jitcache, "_shared_dir", None)


def _teapot(source: str):
    return TeapotRewriter(TeapotConfig()).instrument(compile_source(source))


def _emulator(binary, engine: str, policy, rob_budget: int,
              max_steps: int = 5_000_000):
    emulator_cls, controller_cls = resolve_engine(engine)
    return emulator_cls(
        binary, controller=controller_cls(policy, rob_budget=rob_budget),
        policy=KasperPolicy(), coverage=CoverageRuntime(),
        max_steps=max_steps)


def _run(binary, engine: str, data: bytes, policy, rob_budget: int,
         max_steps: int = 5_000_000):
    emulator = _emulator(binary, engine, policy, rob_budget, max_steps)
    return result_record(emulator.run(data))


def _records(binary, data: bytes, policy_factory, rob_budget: int,
             max_steps: int = 5_000_000):
    records = {engine: _run(binary, engine, data, policy_factory(),
                            rob_budget, max_steps)
               for engine in ENGINES}
    for engine in ("fast", "jit"):
        assert records[engine] == records["legacy"], (
            f"{engine} diverged from legacy at max_steps={max_steps}")
    return records["legacy"]


def _first_limit(binary, rob_budget: int, started: int, steps: int) -> int:
    """The smallest fuel at which ``started`` episodes of the nested
    program have begun (legacy engine, at most ``steps`` fuel)."""
    lo, hi = 1, steps
    while lo < hi:
        mid = (lo + hi) // 2
        record = _run(binary, "legacy", NESTED_INPUT, TeapotNestingPolicy(),
                      rob_budget, mid)
        if record["spec_stats"]["simulations_started"] >= started:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_fuel_expiry_at_every_step_of_three_episodes():
    """``max_steps`` swept over every step from the first checkpoint
    entry to the entry of the fourth episode: fuel runs out inside
    folded trampolines, inside nested episodes and right after in-place
    resumes, and every engine stops on the same instruction."""
    binary = _teapot(NESTED_SOURCE)
    rob_budget = 16  # short episodes, ended by budget and forced rollbacks

    full = _run(binary, "legacy", NESTED_INPUT, TeapotNestingPolicy(),
                rob_budget)
    assert full["status"] == "exit"

    first, fourth = _first_limit(binary, rob_budget, 1, full["steps"]), \
        _first_limit(binary, rob_budget, 4, full["steps"])
    fuel_ends = 0
    for max_steps in range(first, fourth + 1):
        record = _records(binary, NESTED_INPUT, TeapotNestingPolicy,
                          rob_budget, max_steps)
        fuel_ends += record["status"] == "fuel"
    assert fuel_ends == fourth - first + 1
    stats = record["spec_stats"]
    assert stats["nested_simulations"] > 0
    assert stats["budget_rollbacks"] > 0 and stats["forced_rollbacks"] > 0


def _nested_jump_binary():
    """main(): two bounds checks; only the wrong path of the second,
    which exists only inside the first's wrong path, jumps to the
    address held in input bytes 8..15."""
    fn = FunctionBuilder("main")
    fn.prologue(16)
    fn.lea(Reg(Register.R1), Mem(disp=Label("inbuf")))
    fn.mov(Reg(Register.R2), Imm(16))
    fn.ecall("read_input")
    fn.lea(Reg(Register.R5), Mem(disp=Label("inbuf")))
    done = fn.fresh_label()
    fn.load(Reg(Register.R1), Mem(base=Register.R5, disp=0), size=1)
    fn.cmp(Reg(Register.R1), Imm(100))
    fn.jae(Label(done))
    inner = fn.fresh_label()
    fn.load(Reg(Register.R2), Mem(base=Register.R5, disp=1), size=1)
    fn.cmp(Reg(Register.R2), Imm(100))
    fn.jae(Label(inner))
    fn.load(Reg(Register.R3), Mem(base=Register.R5, disp=8), size=8)
    fn.ijmp(Reg(Register.R3))
    fn.label(inner)
    fn.nop()
    fn.label(done)
    fn.mov(Reg(Register.R0), Imm(0))
    fn.epilogue()
    program = AsmProgram(functions=[fn.build()],
                         data_objects=[DataObject("inbuf", bytes(16))])
    return Assembler().assemble(program)


def test_speculative_jump_to_non_code_at_depth_two_ends_the_run():
    """In a SpecFuzz build (no shadows, no escape check) a wrong path at
    depth 2 jumps to non-code: every engine ends that run as a crash
    with the same reason, from inside both episodes."""
    config = SpecFuzzConfig(ramp=1)
    binary = SpecFuzzRewriter(config).instrument(_nested_jump_binary())
    wild = 0x5A5A5A5A
    data = bytes([200, 200]) + bytes(6) + wild.to_bytes(8, "little")
    outcomes = {}
    for engine in ENGINES:
        runtime = SpecFuzzRuntime(binary, config=config.with_engine(engine))
        # The first run's inner checkpoint is rejected (one encounter at
        # depth 1); the second run nests and crashes.
        records = [result_record(runtime.run(data)) for _ in range(2)]
        outcomes[engine] = (records, len(runtime.controller.checkpoints))
    for engine in ("fast", "jit"):
        assert outcomes[engine] == outcomes["legacy"], engine
    (first, second), depth = outcomes["legacy"]
    assert first["status"] == "exit"
    assert second["status"] == "crash"
    assert second["crash_reason"] == f"jump to non-code address {wild:#x}"
    assert depth == 2


#: ``abort()`` behind a bounds check: the wrong path of every run that
#: passes the check calls the external.
ABORT_SOURCE = r"""
int main() {
    byte buf[4];
    read_input(buf, 4);
    if (buf[0] == 7) {
        abort();
    }
    return buf[1];
}
"""


def test_abort_on_a_wrong_path_never_runs():
    """An external ends the simulation before it runs, on every engine
    and in SpecTaint, so ``abort()`` on a mispredicted path never raises:
    the run exits, through forced rollbacks, not exception rollbacks.
    Only an architectural ``abort()`` crashes the run."""
    teapot = _teapot(ABORT_SOURCE)
    spectaint = SpecTaintAnalyzer(compile_source(ABORT_SOURCE))
    for data in (bytes([1, 5, 0, 0]), bytes([200, 9, 0, 0])):
        for record in (_records(teapot, data, TeapotNestingPolicy, 250),
                       result_record(spectaint.run(data))):
            assert (record["status"], record["exit_status"]) == (
                "exit", data[1])
            stats = record["spec_stats"]
            assert stats["exception_rollbacks"] == 0
            assert stats["forced_rollbacks"] >= 1
    # The crash, its reason's address included, is the same on every engine.
    record = _records(teapot, bytes([7, 0, 0, 0]), TeapotNestingPolicy, 250)
    assert record["status"] == "crash"
    assert record["crash_reason"].endswith("abort() called")


@pytest.mark.parametrize("max_depth", [200, 600])
def test_deep_nesting_needs_no_deep_recursion(max_depth):
    """Eager nesting to ``max_depth`` (far past the in-place depth, and
    at 600 past what Python's default recursion limit allows in place)
    matches legacy on every engine and raises no ``RecursionError``."""
    binary = _teapot(DEEP_SOURCE)
    record = _records(
        binary, bytes([200] * 8),
        lambda: TeapotNestingPolicy(max_depth=max_depth, eager_runs=10 ** 9),
        rob_budget=10 ** 6, max_steps=48_000)
    assert record["status"] == "fuel"
    assert record["spec_stats"]["max_depth_reached"] == max_depth


def test_generated_code_makes_no_bookkeeping_calls():
    """Over a 100-execution jit campaign on Teapot ``gadgets`` no
    generated frame calls ``enter``, ``CoverageMap.add_many``,
    ``log_taint_write``, ``attach_journal`` or ``StateJournal.clear``:
    gates push their checkpoints and the bound rollback flushes coverage
    and detaches the journal itself."""
    fuzzer = campaign()
    _, from_jit, bookkeeping = count_calls(fuzzer)
    assert from_jit > 0  # the spy does see generated frames' calls
    assert bookkeeping == dict.fromkeys(BOOKKEEPING, 0)
    stats = fuzzer.target.runtime.controller.stats
    assert stats.simulations_started > 0 and stats.nested_simulations > 0


def test_reset_keeps_the_stats_object():
    """The generated code binds the controller's statistics object at
    install; ``reset()`` zeroes it in place, so a jit runtime keeps
    counting into the object the controller reports, exactly like the
    legacy engine."""
    binary = _teapot(NESTED_SOURCE)
    records = {}
    for engine in ("legacy", "jit"):
        emulator = _emulator(binary, engine, TeapotNestingPolicy(), 16)
        controller = emulator.controller
        stats = controller.stats
        first = result_record(emulator.run(NESTED_INPUT))
        controller.reset()
        assert controller.stats is stats
        assert stats.simulations_started == 0
        second = result_record(emulator.run(NESTED_INPUT))
        assert second["spec_stats"]["simulations_started"] > 0
        records[engine] = (first, second)
    assert records["jit"] == records["legacy"]


def test_deferred_counters_survive_a_fuel_stop():
    """A checkpoint gate flushes only the steps and the ROB count, so the
    gate's block still holds cycles and arch instructions pending while
    its episode runs.  Fuel expiring inside the first episodes ends the
    run from there, and the block's fault table must flush them: every
    engine reports the same counters."""
    binary = _teapot(NESTED_SOURCE)
    rob_budget = 16
    emulator = _emulator(binary, "jit", TeapotNestingPolicy(), rob_budget)
    gates = [addr for addr, instr in emulator.instructions.items()
             if instr.opcode is Opcode.CHECKPOINT]
    deferred = set()
    for leader, (fn, _) in emulator._blocks_nosim.items():
        table = inspect.signature(fn).parameters.get("_P")
        span = emulator._block_spans_nosim[leader]
        if table is not None and any(
                steps == 0 and cycles and arch and rob == 0
                for steps, cycles, arch, rob in table.default):
            deferred.update(addr for addr in span if addr in gates)
    assert deferred  # a gate whose block defers cycles and arch

    full = _run(binary, "legacy", NESTED_INPUT, TeapotNestingPolicy(),
                rob_budget)
    first = _first_limit(binary, rob_budget, 1, full["steps"])
    inside = 0
    for max_steps in range(first, first + 12):
        record = _records(binary, NESTED_INPUT, TeapotNestingPolicy,
                          rob_budget, max_steps)
        assert record["status"] == "fuel"
        jit = _emulator(binary, "jit", TeapotNestingPolicy(), rob_budget,
                        max_steps)
        jit.run(NESTED_INPUT)
        checkpoints = jit.controller.checkpoints
        inside += bool(checkpoints) and checkpoints[0].branch_address in {
            emulator.next_address[addr] for addr in deferred}
    assert inside > 0
