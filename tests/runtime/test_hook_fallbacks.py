"""The compiled speculation hooks fall back to real calls when they must.

The compiled engines evaluate the built-in nesting gates inline and skip
detection-policy callbacks whose declared no-op conditions hold
(:attr:`repro.sanitizers.policy.DetectionPolicy.speculative_noops`).  A
policy the compiler does not know — a subclass that overrides a hook, a
third-party nesting policy, or a policy swapped into the controller after
the blocks were installed — must see exactly the calls the legacy
interpreter makes, and every engine must still compute the same results.
"""

from __future__ import annotations

import pytest

from differential import default_inputs, result_record
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter
from repro.coverage.sancov import CoverageRuntime
from repro.runtime.fastpath import resolve_engine
from repro.runtime.speculation import (
    NestedSpeculationPolicy,
    SpecTaintNestingPolicy,
    TeapotNestingPolicy,
)
from repro.sanitizers.policy import (
    KasperPolicy,
    SpecFuzzPolicy,
    SpecTaintPolicy,
    noop_conditions,
)
from repro.targets import get_target
from repro.targets.injection import compile_vanilla

ENGINES = ("legacy", "fast", "jit")


class CountingTeapotNesting(TeapotNestingPolicy):
    """Teapot's heuristic with ``should_enter`` overridden (counted)."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def should_enter(self, branch_address: int, depth: int) -> bool:
        self.calls += 1
        return super().should_enter(branch_address, depth)


class AlternatingNesting(NestedSpeculationPolicy):
    """A third-party policy: every other request, up to depth three."""

    name = "alternating"

    def __init__(self) -> None:
        self.calls = 0

    def should_enter(self, branch_address: int, depth: int) -> bool:
        self.calls += 1
        return depth < 3 and self.calls % 2 == 0


class CountingKasper(KasperPolicy):
    """The Kasper policy with both speculative hooks overridden."""

    def __init__(self) -> None:
        super().__init__()
        self.access_calls = 0
        self.branch_calls = 0

    def on_speculative_access(self, instr, mem, addr, size, is_write,
                              machine, context):
        self.access_calls += 1
        return super().on_speculative_access(instr, mem, addr, size,
                                             is_write, machine, context)

    def on_speculative_branch(self, instr, machine, context):
        self.branch_calls += 1
        super().on_speculative_branch(instr, machine, context)


class BranchOnlyKasper(KasperPolicy):
    """Overrides one hook: only that one loses its fast path."""

    def on_speculative_branch(self, instr, machine, context):
        super().on_speculative_branch(instr, machine, context)


@pytest.fixture(scope="module")
def gadgets():
    target = get_target("gadgets")
    binary = TeapotRewriter(TeapotConfig()).instrument(compile_vanilla(target))
    return binary, default_inputs(target)


def _run(binary, inputs, engine, nesting, policy):
    emulator_cls, controller_cls = resolve_engine(engine)
    emulator = emulator_cls(binary, controller=controller_cls(nesting),
                            policy=policy, coverage=CoverageRuntime())
    return emulator, [result_record(emulator.run(data)) for data in inputs]


def _across_engines(binary, inputs, make_nesting, make_policy):
    """``{engine: (results, nesting policy, detection policy, emulator)}``."""
    outcomes = {}
    for engine in ENGINES:
        nesting, policy = make_nesting(), make_policy()
        emulator, records = _run(binary, inputs, engine, nesting, policy)
        outcomes[engine] = (records, nesting, policy, emulator)
    for engine in ("fast", "jit"):
        assert outcomes[engine][0] == outcomes["legacy"][0], engine
    return outcomes


@pytest.mark.parametrize("make_nesting",
                         [CountingTeapotNesting, AlternatingNesting],
                         ids=["teapot-subclass", "third-party"])
def test_unknown_nesting_policy_gets_every_call(gadgets, make_nesting):
    binary, inputs = gadgets
    outcomes = _across_engines(binary, inputs, make_nesting, KasperPolicy)
    legacy_calls = outcomes["legacy"][1].calls
    assert legacy_calls > 0
    for engine in ("fast", "jit"):
        _, nesting, _, emulator = outcomes[engine]
        assert emulator._hooks["gate"] is None
        assert nesting.calls == legacy_calls, engine


def test_overridden_detection_hooks_get_every_call(gadgets):
    binary, inputs = gadgets
    outcomes = _across_engines(binary, inputs, TeapotNestingPolicy,
                               CountingKasper)
    legacy = outcomes["legacy"][2]
    assert legacy.access_calls > 0 and legacy.branch_calls > 0
    for engine in ("fast", "jit"):
        _, _, policy, emulator = outcomes[engine]
        assert emulator._hooks["access"] is None
        assert emulator._hooks["branch"] is None
        assert policy.access_calls == legacy.access_calls, engine
        assert policy.branch_calls == legacy.branch_calls, engine


def test_fast_path_declarations_follow_the_overriding_class():
    assert noop_conditions(KasperPolicy(), "on_speculative_access") == (
        "address_untainted", "in_bounds")
    assert noop_conditions(KasperPolicy(), "on_speculative_branch") == (
        "flags_not_secret",)
    partial = BranchOnlyKasper()
    assert noop_conditions(partial, "on_speculative_branch") is None
    assert noop_conditions(partial, "on_speculative_access") == (
        "address_untainted", "in_bounds")
    # inherited no-op hooks of the base class never need a call
    assert noop_conditions(SpecFuzzPolicy(), "on_speculative_branch") == ()
    patched = KasperPolicy()
    patched.on_speculative_access = lambda *args: 0
    assert noop_conditions(patched, "on_speculative_access") is None


@pytest.mark.parametrize("make_policy", [SpecFuzzPolicy, SpecTaintPolicy],
                         ids=["specfuzz", "spectaint"])
def test_declared_fast_paths_are_exact(gadgets, make_policy):
    """The other built-in policies' fast paths change no result."""
    binary, inputs = gadgets
    outcomes = _across_engines(binary, inputs, TeapotNestingPolicy,
                               make_policy)
    assert outcomes["jit"][3]._hooks["access"] is not None
    assert any(record["reports"] for record in outcomes["legacy"][0])


def test_policy_swapped_after_install_is_honoured(gadgets):
    """Assigning ``controller.policy`` without ``rebind_controller`` skips
    the compiled gate (it was compiled for the old policy)."""
    binary, inputs = gadgets
    records = {}
    for engine in ENGINES:
        emulator_cls, controller_cls = resolve_engine(engine)
        controller = controller_cls(TeapotNestingPolicy())
        emulator = emulator_cls(binary, controller=controller,
                                policy=KasperPolicy(),
                                coverage=CoverageRuntime())
        controller.policy = SpecTaintNestingPolicy(max_visits=1)
        records[engine] = [result_record(emulator.run(data))
                           for data in inputs]
    assert records["fast"] == records["legacy"]
    assert records["jit"] == records["legacy"]
