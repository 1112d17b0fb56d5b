"""Property tests for jit block compilation.

Hypothesis generates random straight-line and branchy instruction
sequences through :mod:`repro.isa.builder`, assembles them, and runs
them through every engine: the compiled blocks' final register file,
flags, memory, DIFT tags and execution record must match the
single-stepping legacy and fast engines exactly.  A second property
drives *mid-block rollback*: a speculated (architecturally dead)
random sequence with a forced rollback placed at every instruction
boundary in turn, checking that the copy-on-write journal depth at
rollback and the restored state agree between the journaling engines.
A third property generates whole random *minic* programs (calls, loops,
arrays, both switch lowerings), compiles and Teapot-instruments them per
speculation variant, and requires every engine to produce the same
execution record.  The last tests pin copy-aware compilation (in a
binary with Speculation Shadows each block is compiled only in the mode
its copy runs in), the compile shape of episodes run as calls (no
block at a resume point or a folded trampoline, a bounded module, the
folded trampoline's bindings, no dispatch outside blocks while fuzzing)
and the reachability walk (a
block only where a dispatch can land, and no fuzz run ever needing a
dropped one).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from differential import result_record
from repro.baselines.specfuzz import (SpecFuzzConfig, SpecFuzzRewriter,
                                      SpecFuzzRuntime)
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter, TeapotRuntime
from repro.coverage.sancov import CoverageRuntime
from repro.fuzzing.fuzzer import Fuzzer, FuzzTarget
from repro.isa.assembler import AsmProgram, Assembler
from repro.isa.builder import FunctionBuilder
from repro.isa.instructions import Opcode
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import Register
from repro.loader.binary_format import DataObject
from repro.minic.codegen import CompilerOptions, SwitchLowering
from repro.minic.compiler import compile_source
from repro.runtime.emulator import Emulator
from repro.runtime.fastpath import resolve_engine
from repro.runtime.jit import _BRANCH_OPS, _BlockWriter, _imm_target
from repro.runtime.speculation import TeapotNestingPolicy
from repro.sanitizers.policy import KasperPolicy
from repro.targets import get_target, inject_gadgets
from repro.telemetry import Telemetry

ENGINES = ("legacy", "fast", "jit")

#: Scratch registers the generated sequences compute in.  R6 is reserved
#: as the data-buffer base, R7 stays zero, SP/FP belong to the frame.
WORK_REGS = (Register.R0, Register.R1, Register.R2,
             Register.R3, Register.R4, Register.R5)

BUF_SIZE = 256
IN_SIZE = 64

# -- instruction-sequence strategies ----------------------------------------

_reg = st.sampled_from(WORK_REGS)
_imm = st.integers(min_value=-128, max_value=1 << 40)
_size = st.sampled_from((1, 2, 4, 8))
_alu = st.sampled_from(("add", "sub", "mul", "and_", "or_", "xor",
                        "shl", "shr", "sar"))
_cc_jump = st.sampled_from(("je", "jne", "jl", "jle", "jg", "jge",
                            "jb", "jae", "ja", "jbe"))


def _disp(size: int):
    return st.integers(min_value=0, max_value=BUF_SIZE - size)


_op = st.one_of(
    st.tuples(st.just("mov_imm"), _reg, _imm),
    st.tuples(st.just("mov_reg"), _reg, _reg),
    st.tuples(st.just("alu_imm"), _alu, _reg, _imm),
    st.tuples(st.just("alu_reg"), _alu, _reg, _reg),
    st.tuples(st.just("neg"), _reg),
    st.tuples(st.just("not"), _reg),
    st.tuples(st.just("cmp"), _reg, _imm),
    st.tuples(st.just("test"), _reg, _reg),
    st.tuples(st.just("lea"), _reg, _disp(8)),
    _size.flatmap(lambda s: st.tuples(st.just("load"), _reg,
                                      _disp(s), st.just(s))),
    _size.flatmap(lambda s: st.tuples(st.just("store_reg"), _disp(s),
                                      _reg, st.just(s))),
    _size.flatmap(lambda s: st.tuples(st.just("store_imm"), _disp(s),
                                      _imm, st.just(s))),
    st.tuples(st.just("push"), _reg),
    st.tuples(st.just("pop"), _reg),
)

_ops = st.lists(_op, min_size=1, max_size=24)
_input = st.binary(min_size=IN_SIZE, max_size=IN_SIZE)


def _emit_ops(fn: FunctionBuilder, ops, balance_stack: bool = True) -> None:
    """Emit a drawn op sequence; POPs only run against prior PushES so the
    frame stays intact (unbalanced stacks are only allowed on speculated
    paths, where the rollback discards them)."""
    depth = 0
    for op in ops:
        kind = op[0]
        if kind == "mov_imm":
            fn.mov(Reg(op[1]), Imm(op[2]))
        elif kind == "mov_reg":
            fn.mov(Reg(op[1]), Reg(op[2]))
        elif kind == "alu_imm":
            getattr(fn, op[1])(Reg(op[2]), Imm(op[3]))
        elif kind == "alu_reg":
            getattr(fn, op[1])(Reg(op[2]), Reg(op[3]))
        elif kind == "neg":
            fn.neg(Reg(op[1]))
        elif kind == "not":
            fn.not_(Reg(op[1]))
        elif kind == "cmp":
            fn.cmp(Reg(op[1]), Imm(op[2]))
        elif kind == "test":
            fn.test(Reg(op[1]), Reg(op[2]))
        elif kind == "lea":
            fn.lea(Reg(op[1]), Mem(base=Register.R6, disp=op[2]))
        elif kind == "load":
            fn.load(Reg(op[1]), Mem(base=Register.R6, disp=op[2]),
                    size=op[3])
        elif kind == "store_reg":
            fn.store(Mem(base=Register.R6, disp=op[1]), Reg(op[2]),
                     size=op[3])
        elif kind == "store_imm":
            fn.store(Mem(base=Register.R6, disp=op[1]),
                     Imm(op[2] & 0xFF), size=op[3])
        elif kind == "push":
            fn.push(Reg(op[1]))
            depth += 1
        elif kind == "pop":
            if not balance_stack or depth > 0:
                fn.pop(Reg(op[1]))
                depth = max(0, depth - 1)
    if balance_stack:
        for _ in range(depth):
            fn.pop(Reg(Register.R7))


def _build_binary(body, functions=()) -> "TelfBinary":
    """Assemble main(): taint IN_SIZE input bytes, seed the work registers
    from them, run ``body(fn)``, return 0.  ``functions`` are further
    built functions to link in."""
    fn = FunctionBuilder("main")
    fn.prologue(16)
    fn.lea(Reg(Register.R6), Mem(disp=Label("scratch")))
    fn.lea(Reg(Register.R1), Mem(disp=Label("inbuf")))
    fn.mov(Reg(Register.R2), Imm(IN_SIZE))
    fn.ecall("read_input")
    fn.lea(Reg(Register.R5), Mem(disp=Label("inbuf")))
    for i, reg in enumerate(WORK_REGS[:4]):
        fn.load(Reg(reg), Mem(base=Register.R5, disp=8 * i), size=8)
    fn.lea(Reg(Register.R6), Mem(disp=Label("scratch")))
    body(fn)
    fn.mov(Reg(Register.R0), Imm(0))
    fn.epilogue()
    program = AsmProgram(
        functions=[fn.build(), *functions],
        data_objects=[DataObject("scratch", bytes(BUF_SIZE)),
                      DataObject("inbuf", bytes(IN_SIZE))],
    )
    return Assembler().assemble(program)


def _build_emulator(binary, engine: str):
    emulator_cls, controller_cls = resolve_engine(engine)
    controller = controller_cls(TeapotNestingPolicy())
    return emulator_cls(binary, controller=controller, policy=KasperPolicy(),
                        coverage=CoverageRuntime())


def _final_state(emulator, binary):
    """Everything a block computes: registers, flags, memory, DIFT tags."""
    machine = emulator.machine
    scratch = binary.symbol("scratch").address
    dift = emulator.dift
    return {
        "registers": machine.snapshot_registers(),
        "flags": machine.flags.snapshot(),
        "memory": bytes(machine.memory.read_int(scratch + i, 1)
                        for i in range(BUF_SIZE)),
        "register_tags": tuple(dift.register_tags),
        "flags_tag": dift.flags_tag,
        "memory_tags": tuple(dift.get_mem_tag(scratch + i, 1)
                             for i in range(BUF_SIZE)),
        "coverage": (emulator.coverage.normal.covered(),
                     emulator.coverage.speculative.covered()),
    }


def _assert_engines_agree(binary, data: bytes, spy_rollbacks: bool = False):
    outcomes = {}
    for engine in ENGINES:
        emulator = _build_emulator(binary, engine)
        depths = []
        if spy_rollbacks and engine != "legacy":
            controller = emulator.controller
            inner = controller.rollback

            def spying(machine, dift, reason, _c=controller, _i=inner,
                       _d=depths):
                _d.append((reason, len(_c.journal.entries)))
                return _i(machine, dift, reason)

            controller.rollback = spying
        record = result_record(emulator.run(data))
        outcomes[engine] = (record, _final_state(emulator, binary), depths)
    for engine in ("fast", "jit"):
        assert outcomes[engine][0] == outcomes["legacy"][0], (
            f"{engine} record diverged from legacy on input {data[:16].hex()}"
        )
        assert outcomes[engine][1] == outcomes["legacy"][1], (
            f"{engine} final state diverged from legacy "
            f"on input {data[:16].hex()}"
        )
    # Journal depth at every rollback: jit must mirror the fast engine.
    assert outcomes["jit"][2] == outcomes["fast"][2], (
        "jit journal depths at rollback diverged from fast"
    )
    return outcomes


# -- properties -------------------------------------------------------------

@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_ops, data=_input)
def test_straight_line_blocks_match_single_step(ops, data):
    """Random straight-line sequences: identical state on all engines."""
    binary = _build_binary(lambda fn: _emit_ops(fn, ops))
    _assert_engines_agree(binary, data)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks=st.lists(st.tuples(_ops, _cc_jump, _imm),
                       min_size=1, max_size=3),
       tail=_ops, data=_input)
def test_branchy_blocks_match_single_step(chunks, tail, data):
    """Random forward-branching sequences: every fall-through/taken split
    compiles into conditional block exits that must behave identically."""
    def body(fn):
        for ops, jump, threshold in chunks:
            _emit_ops(fn, ops)
            fn.cmp(Reg(Register.R0), Imm(threshold))
            label = fn.fresh_label()
            getattr(fn, jump)(Label(label))
            fn.add(Reg(Register.R1), Imm(1))
            fn.label(label)
        _emit_ops(fn, tail)

    binary = _build_binary(body)
    _assert_engines_agree(binary, data)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_op, min_size=1, max_size=12),
       boundary=st.integers(min_value=0, max_value=12), data=_input)
def test_mid_block_rollback_at_every_boundary(ops, boundary, data):
    """A speculated random sequence with a forced rollback at a drawn
    instruction boundary: the journaling engines must undo exactly the
    same journal depth and restore the same state the legacy snapshot
    restores."""
    boundary = min(boundary, len(ops))

    def body(fn):
        # The guard reads tainted input; the crafted high byte makes the
        # architectural path always jump over the speculated sequence.
        fn.load(Reg(Register.R1), Mem(base=Register.R5, disp=0), size=8)
        fn.cmp(Reg(Register.R1), Imm(1000))
        label = fn.fresh_label()
        fn.jae(Label(label))
        # Architecturally dead: runs only inside speculation simulation,
        # ends in a serializing fence that forces a mid-block rollback.
        _emit_ops(fn, ops[:boundary], balance_stack=False)
        fn.lfence()
        _emit_ops(fn, ops[boundary:], balance_stack=False)
        fn.label(label)

    data = bytes([data[0]]) + b"\xff" + data[2:]  # force inbuf[0:8] >= 1000
    binary = TeapotRewriter(TeapotConfig()).instrument(_build_binary(body))
    outcomes = _assert_engines_agree(binary, data, spy_rollbacks=True)
    record = outcomes["legacy"][0]
    assert record["spec_stats"]["simulations_started"] >= 1, (
        "the guarded branch never speculated — the property is vacuous"
    )


# -- random minic programs ---------------------------------------------------

#: Speculation variants every generated program is instrumented for.
VARIANTS = ("pht", "btb", "rsb", "stl")

MINIC_IN_SIZE = 16

_BINOPS = ("+", "-", "*", "&", "|", "^", "<", ">=", "==", "!=")


def _minic_expr(names, depth: int):
    """Expressions over ``names``: arithmetic, comparisons, in-bounds
    array reads (masked indices) and remainders (the div/mod path)."""
    leaf = st.one_of(
        st.sampled_from(names),
        st.integers(min_value=0, max_value=300).map(str),
        st.sampled_from(names).map(lambda v: f"lut[{v} & 7]"),
        st.sampled_from(names).map(lambda v: f"g[{v} & 7]"),
    )
    if depth == 0:
        return leaf
    sub = _minic_expr(names, depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from(_BINOPS), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, st.integers(min_value=0, max_value=5)).map(
            lambda t: f"({t[0]} << {t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]} % (({t[1]} & 7) + 1))"),
    )


def _minic_stmt(names, calls: bool):
    """Statements updating the first name: plain updates, global array
    stores, bounds-checked loads (the Spectre-V1 shape) and, when
    ``calls`` is set, direct, indirect (function-pointer) and recursive
    calls."""
    expr = _minic_expr(names, 2)
    acc, key = names[0], names[1]
    shapes = [
        expr.map(lambda e: f"{acc} = {acc} + {e};"),
        st.tuples(expr, expr).map(lambda t: f"g[({t[0]}) & 7] = {t[1]};"),
        st.tuples(expr, st.integers(min_value=0, max_value=16)).map(
            lambda t: f"if ({key} < {t[1]}) {{ {acc} += lut[{key}]; }} "
                      f"else {{ {acc} ^= {t[0]}; }}"),
    ]
    if calls:
        shapes += [
            st.tuples(expr, expr).map(
                lambda t: f"{acc} += helper({t[0]}, {t[1]});"),
            st.tuples(expr, expr, expr).map(
                lambda t: f"fp = helper; if ({t[0]} < 64) {{ fp = helper2; }} "
                          f"{acc} += fp({t[1]}, {t[2]});"),
            expr.map(lambda e: f"{acc} += deep(({e}) & 7);"),
        ]
    return st.one_of(shapes)


def _minic_switch(names):
    """A dense switch over four to eight cases (a jump table when lowered
    Clang-style, a compare chain otherwise)."""
    body = st.lists(_minic_stmt(names, True), min_size=1, max_size=2).map(
        " ".join)
    return st.tuples(_minic_expr(names, 1),
                     st.lists(body, min_size=4, max_size=8), body).map(
        lambda t: f"switch (({t[0]}) & 7) {{ "
                  + " ".join(f"case {n}: {{ {b} }}" for n, b in enumerate(t[1]))
                  + f" default: {{ {t[2]} }} }}")


@st.composite
def _minic_programs(draw):
    helpers = [" ".join(draw(st.lists(_minic_stmt(("r", "a", "b"), False),
                                      min_size=1, max_size=3)))
               for _ in range(2)]
    main_names = ("acc", "c", "i")
    before = draw(st.lists(_minic_stmt(main_names, True), max_size=3))
    after = draw(st.lists(_minic_stmt(main_names, True), max_size=3))
    switch = draw(_minic_switch(main_names))
    loops = draw(st.integers(min_value=1, max_value=6))
    return f"""
    int g[8];
    byte lut[16] = {{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}};
    int helper(int a, int b) {{
        int r = a ^ b;
        {helpers[0]}
        return r;
    }}
    int helper2(int a, int b) {{
        int r = a - b;
        {helpers[1]}
        return r;
    }}
    int deep(int d) {{
        if (d > 0) {{
            return deep(d - 1) + lut[d];
        }}
        return 0;
    }}
    int main() {{
        byte buf[{MINIC_IN_SIZE}];
        read_input(buf, {MINIC_IN_SIZE});
        int acc = 0;
        int c = 0;
        int fp = helper;
        for (int i = 0; i < {loops}; i++) {{
            c = buf[i & {MINIC_IN_SIZE - 1}];
            {" ".join(before)}
            {switch}
            {" ".join(after)}
            fp = helper;
            if (c < 128) {{ fp = helper2; }}
            acc += fp(acc, c) + deep(c & 7);
        }}
        return acc & 255;
    }}
    """


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(source=_minic_programs(),
       lowering=st.sampled_from((SwitchLowering.JUMP_TABLE,
                                 SwitchLowering.BRANCH_CHAIN)),
       data=st.binary(min_size=MINIC_IN_SIZE, max_size=MINIC_IN_SIZE))
def test_random_minic_programs_match_across_engines_and_variants(
        source, lowering, data):
    """Random minic programs, compiled and instrumented for each
    speculation variant, yield identical execution records on every
    engine."""
    vanilla = compile_source(source, CompilerOptions(switch_lowering=lowering))
    for variant in VARIANTS:
        config = TeapotConfig().with_variants(variant)
        binary = TeapotRewriter(config).instrument(vanilla)
        records = {
            engine: result_record(
                TeapotRuntime(binary, config=config.with_engine(engine))
                .run(data))
            for engine in ENGINES
        }
        for engine in ("fast", "jit"):
            assert records[engine] == records["legacy"], (
                f"{engine} diverged from legacy under {variant}:\n{source}"
            )


# -- shadow-escape check on speculative returns -------------------------------

def _speculative_ret_binary():
    """main() calls a leaf (so its return site is a marked Real-Copy
    block), then, on an architecturally dead path that only runs in
    speculation, returns to the address held in input bytes 8..15."""
    leaf = FunctionBuilder("leaf")
    leaf.mov(Reg(Register.R0), Imm(1))
    leaf.ret()

    def body(fn):
        fn.call(Label("leaf"))
        fn.load(Reg(Register.R1), Mem(base=Register.R5, disp=0), size=8)
        fn.cmp(Reg(Register.R1), Imm(1000))
        label = fn.fresh_label()
        fn.jae(Label(label))
        fn.load(Reg(Register.R2), Mem(base=Register.R5, disp=8), size=8)
        fn.push(Reg(Register.R2))
        fn.ret()
        fn.label(label)

    vanilla = _build_binary(body, functions=[leaf.build()])
    return TeapotRewriter(TeapotConfig()).instrument(vanilla)


def test_speculative_ret_escape_targets_match_across_engines():
    """A sim-variant ``ret`` to each kind of target behaves identically on
    every engine: a Shadow-Copy instruction and a Real-Copy marker nop
    (both pass the compiled fast check), a non-instruction address inside
    a Shadow-Copy function and a plain Real-Copy instruction (both take
    the exact check, which lets the first through and rolls back the
    second)."""
    binary = _speculative_ret_binary()
    reference = Emulator(binary)
    instructions = reference.instructions
    in_shadow = reference._in_shadow_copy
    shadow = [addr for addr in instructions if in_shadow(addr)]
    real = [addr for addr in instructions if not in_shadow(addr)]
    markers = [addr for addr in real
               if instructions[addr].opcode is Opcode.MARKER_NOP]
    inside = [addr + 1 for addr in shadow
              if addr + 1 not in instructions and in_shadow(addr + 1)]
    plain = [addr for addr in real
             if instructions[addr].opcode is not Opcode.MARKER_NOP]
    assert markers and inside, "the binary lacks a marker or a gap target"
    targets = {"shadow": shadow[0], "marker": markers[0],
               "inside": inside[0], "real": plain[0]}
    records = {}
    for kind, target in targets.items():
        data = (b"\x00\xff" + bytes(6) + target.to_bytes(8, "little")
                + bytes(IN_SIZE - 16))
        outcomes = _assert_engines_agree(binary, data)
        record = outcomes["legacy"][0]
        assert record["spec_stats"]["simulations_started"] >= 1, kind
        records[kind] = record
    # Passing targets keep simulating past the return; the escape does not.
    simulated = {kind: record["spec_stats"]["simulated_instructions"]
                 for kind, record in records.items()}
    assert min(simulated["shadow"], simulated["marker"]) > simulated["real"]
    assert records["real"]["spec_stats"]["forced_rollbacks"] == 1
    assert records["inside"]["status"] == "crash"


# -- copy-aware block compilation ---------------------------------------------

def _shadow_partition(emulator):
    """(in_shadow, is_marker) predicates over the emulator's addresses."""
    instructions = emulator.instructions

    def is_marker(addr):
        return instructions[addr].opcode is Opcode.MARKER_NOP

    return emulator._in_shadow_copy, is_marker


def _assert_copy_partition(emulator):
    in_shadow, is_marker = _shadow_partition(emulator)
    assert emulator._blocks_nosim and emulator._blocks_sim
    assert not any(in_shadow(addr) for addr in emulator._blocks_nosim)
    assert all(in_shadow(addr) or is_marker(addr)
               for addr in emulator._blocks_sim)


def test_blocks_compile_only_in_their_copys_mode():
    """With Speculation Shadows, Real-Copy blocks exist only in the
    no-sim table and Shadow-Copy blocks only in the sim table; marker
    nops (where a speculative ``ret`` lands in the Real Copy) keep both.
    A SpecFuzz binary has no shadows and keeps both tables whole."""
    vanilla = get_target("gadgets").compile()
    binary = TeapotRewriter(TeapotConfig()).instrument(vanilla)
    _assert_copy_partition(
        TeapotRuntime(binary, config=TeapotConfig()).emulator)

    # gadgets has no marker nops; this binary's call leaves one.
    emulator = _build_emulator(_speculative_ret_binary(), "jit")
    _assert_copy_partition(emulator)
    _, is_marker = _shadow_partition(emulator)
    markers = [addr for addr in emulator._blocks_sim if is_marker(addr)]
    assert markers
    assert all(addr in emulator._blocks_nosim for addr in markers)

    config = SpecFuzzConfig()
    baseline = SpecFuzzRuntime(SpecFuzzRewriter(config).instrument(vanilla),
                               config=config).emulator
    assert not baseline.has_shadows
    assert baseline._blocks_nosim
    assert baseline._blocks_nosim.keys() == baseline._blocks_sim.keys()


def _singles_for_dropped_blocks(emulator):
    """Single-instruction functions built at a leader, in a mode where the
    block there would run two or more steps: each one stands in for a
    block the compiler dropped (by copy or by reachability)."""
    compiler = emulator._compiler
    leaders = compiler.leaders()
    dropped = []
    for sim, singles in ((False, emulator._singles_nosim),
                         (True, emulator._singles_sim)):
        for addr in singles:
            if addr in leaders and compiler._compile_block(
                    addr, sim, emulator.max_block, "probe", leaders)[1] >= 2:
                dropped.append((hex(addr), sim))
    return dropped


@pytest.mark.parametrize("extra", [(), ("btb",), ("rsb",), ("stl",),
                                   "specfuzz"])
def test_fuzzing_needs_no_single_for_a_dropped_block(extra):
    """Over a fuzz run no single-instruction function stands in for a
    block the compiler dropped: none in sim mode at a Real-Copy leader
    other than a marker nop, none in no-sim mode at a Shadow-Copy leader,
    and none at any leader, in either mode, where a block of two or more
    steps would start (so no leader the reachability walk drops is ever
    dispatched to).  Singles at leaders whose block would take fewer
    steps (``stl`` makes stores enders) are expected."""
    target = get_target("gadgets")
    if extra == "specfuzz":
        runtime = _gadgets_builds()["specfuzz"]
    else:
        config = TeapotConfig().with_variants("pht", *extra)
        binary = TeapotRewriter(config).instrument(target.compile())
        runtime = TeapotRuntime(binary, config=config)
    Fuzzer(FuzzTarget(runtime), seeds=list(target.seeds),
           seed=3).run_campaign(300)
    emulator = runtime.emulator
    assert not _singles_for_dropped_blocks(emulator)
    if not emulator.has_shadows:
        return
    in_shadow, is_marker = _shadow_partition(emulator)
    leaders = emulator._compiler.leaders()
    assert not [addr for addr in emulator._singles_sim
                if addr in leaders and not in_shadow(addr)
                and not is_marker(addr)]
    assert not [addr for addr in emulator._singles_nosim
                if addr in leaders and in_shadow(addr)]


def test_injected_jsmn_fuzzing_needs_no_single_for_a_dropped_block():
    """The same over a short campaign on the Table-3 jsmn build, whose
    parser loops are full of in-block forward skips."""
    target = get_target("jsmn")
    config = TeapotConfig()
    binary = TeapotRewriter(config).instrument(inject_gadgets(target).binary)
    runtime = TeapotRuntime(binary, config=config)
    Fuzzer(FuzzTarget(runtime), seeds=list(target.seeds),
           seed=3).run_campaign(10)
    compiler = runtime.emulator._compiler
    reached = {addr for addr, _ in compiler.reachable_blocks()}
    assert compiler.leaders() - reached
    assert not _singles_for_dropped_blocks(runtime.emulator)


def test_inlined_instructions_gauge_counts_both_tables():
    """``engine.jit.inlined_instructions`` sums the spans of both block
    tables, so it still covers the whole program when each copy is
    compiled in one mode only."""
    binary = TeapotRewriter(TeapotConfig()).instrument(
        get_target("gadgets").compile())
    emulator = TeapotRuntime(binary, config=TeapotConfig()).emulator
    telemetry = Telemetry()
    telemetry.record_execution(emulator, emulator.run(b"\x00" * 9))
    expected = sum(len(span) for spans in (emulator._block_spans_nosim,
                                           emulator._block_spans_sim)
                   for span in spans.values())
    assert emulator._block_spans_sim and emulator._block_spans_nosim
    gauges = telemetry.registry.snapshot()
    assert gauges["engine.jit.inlined_instructions"] == expected


# -- episodes as calls: compile shape -----------------------------------------

def _gadgets_builds():
    """The gadgets target as a Teapot and as a SpecFuzz (single-copy)
    runtime."""
    vanilla = get_target("gadgets").compile()
    config = TeapotConfig()
    specfuzz = SpecFuzzConfig()
    return {
        "teapot": TeapotRuntime(
            TeapotRewriter(config).instrument(vanilla), config=config),
        "specfuzz": SpecFuzzRuntime(
            SpecFuzzRewriter(specfuzz).instrument(vanilla), config=specfuzz),
    }


def _episode_only_leaders(emulator):
    """Addresses that would be leaders only as a compiled checkpoint
    gate's resume point or trampoline target."""
    compiler = emulator._compiler
    compiler.sim = False
    nxt = emulator.next_address
    episode = set()
    other = {sym.address for sym in emulator.binary.function_symbols()}
    for addr, instr in emulator.instructions.items():
        kind = compiler._kind(instr)
        target = _imm_target(instr)
        if instr.opcode is Opcode.CHECKPOINT and kind == "cexit":
            episode.update((nxt[addr], target))
            continue
        if instr.opcode in _BRANCH_OPS and target is not None:
            other.add(target)
        if kind == "ender" or instr.opcode in (Opcode.CHECKPOINT,
                                               Opcode.CALL):
            other.add(nxt[addr])
    return episode - other


def test_no_block_starts_where_only_an_episode_resumes():
    """A compiled gate runs its episode as a call and resumes in place, so
    no block is compiled at an address that only a checkpoint resume or
    a (folded) trampoline would reach."""
    for name, runtime in _gadgets_builds().items():
        emulator = runtime.emulator
        episode_only = _episode_only_leaders(emulator)
        assert episode_only, name
        blocks = set(emulator._blocks_sim) | set(emulator._blocks_nosim)
        assert not blocks & episode_only, name


def test_gadgets_block_module_size():
    """The gadgets block module stays small, and its per-block sources
    are deterministic."""
    emulator = _gadgets_builds()["teapot"].emulator
    sources = emulator._compiler.compile_source()
    assert sum(len(source) for source in sources) <= 300_000
    assert emulator._compiler.compile_source() == sources


def test_episode_binds_the_trampoline_charge_expressions():
    """A gate's episode copies the folded trampoline's charge bindings as
    ``(name, expression)`` pairs: ``ST`` binds ``CTRL.stats``, which the
    install namespace has no name for."""
    compiler = _gadgets_builds()["teapot"].emulator._compiler
    compiler.sim = True
    site, target = next(
        (compiler.next_address[addr], _imm_target(instr))
        for addr, instr in sorted(compiler.instructions.items())
        if instr.opcode is Opcode.CHECKPOINT
        and compiler._trampoline(_imm_target(instr)) is not None)
    writer = _BlockWriter(sim=True)
    compiler._emit_episode(writer, site, target, 0, "d", "")
    assert writer.params["ST"] == "CTRL.stats"
    assert writer.params["CTRL"] == "CTRL"


def test_every_block_is_a_root_or_an_exit_target():
    """A block is compiled only where a dispatch can land: at a root, or
    at a recorded exit target of another compiled block.  On gadgets
    some leaders are only targets of in-block forward skips, so they get
    no block."""
    builds = _gadgets_builds()
    for name, runtime in builds.items():
        emulator = runtime.emulator
        compiler = emulator._compiler
        roots, _ = compiler._leader_sets()
        compiled = {(addr, False) for addr in emulator._blocks_nosim}
        compiled |= {(addr, True) for addr in emulator._blocks_sim}
        blocks = compiler.reachable_blocks()
        assert compiled <= blocks.keys(), name
        for key in compiled:
            entered = {exit for other in compiled - {key}
                       for exit in blocks[other][3]}
            assert key[0] in roots or key[0] in entered, (name, hex(key[0]))
    compiler = builds["teapot"].emulator._compiler
    reached = {addr for addr, _ in compiler.reachable_blocks()}
    assert compiler.leaders() - reached


def test_fuzzing_dispatches_only_to_blocks():
    """Over a 250-execution campaign the dispatch loop always finds a
    block: episodes resume in place and cap exits end on leaders, so no
    single-instruction function is ever built."""
    target = get_target("gadgets")
    for name, runtime in _gadgets_builds().items():
        Fuzzer(FuzzTarget(runtime), seeds=list(target.seeds),
               seed=3).run_campaign(250)
        emulator = runtime.emulator
        assert not emulator._singles_sim, name
        assert not emulator._singles_nosim, name
