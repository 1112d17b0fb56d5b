"""Deterministic work counters of the jit's speculation episodes.

One fixed campaign: a fresh Teapot ``gadgets`` runtime on the jit
engine, fuzzed from the target's seeds with the RNG seed of the ledger's
``gadgets-fuzz`` campaign 0 of seed 7 (``derive_seed(7, "gadgets-fuzz",
0)``), warmed up by 20 executions before
anything is counted.  Over the next executions it counts

* Python-level calls (``sys.setprofile`` ``call`` events) and, among
  them, calls that generated code (``<repro-jit>`` frames) makes into
  the controller-side bookkeeping an episode no longer needs
  (:data:`BOOKKEEPING`);
* bytecodes (``sys.settrace`` with ``f_trace_opcodes``).

Both counts are exact for a given interpreter, so they show whether a
change does less work, independent of how busy the machine is.  Run with
``PYTHONHASHSEED=0`` for stable counts::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/runtime/episode_work.py \\
        --max-calls 700

exits 1 when generated code made a bookkeeping call or the calls per
execution exceed ``--max-calls``.  ``tests/runtime/test_episodes.py``
imports :func:`campaign` and :func:`count_calls`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Tuple

from repro.campaign.spec import derive_seed
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter, TeapotRuntime
from repro.coverage.sancov import CoverageMap
from repro.fuzzing.fuzzer import Fuzzer, FuzzTarget
from repro.runtime.machine import MachineState, StateJournal
from repro.runtime.speculation import (JournalingSpeculationController,
                                       SpeculationController)
from repro.targets import get_target

#: controller, coverage and machine methods a compiled episode does
#: without: the gate pushes its checkpoint and the bound rollback
#: flushes coverage and detaches the journal itself.
BOOKKEEPING = {
    "JournalingSpeculationController.enter":
        JournalingSpeculationController.enter,
    "CoverageMap.add_many": CoverageMap.add_many,
    "SpeculationController.log_taint_write":
        SpeculationController.log_taint_write,
    "MachineState.attach_journal": MachineState.attach_journal,
    "StateJournal.clear": StateJournal.clear,
}

WARMUP = 20
EXECUTIONS = 100


def campaign() -> Fuzzer:
    """The fixed campaign, past its warm-up."""
    target = get_target("gadgets")
    config = TeapotConfig(engine="jit")
    runtime = TeapotRuntime(
        TeapotRewriter(config).instrument(target.compile()), config=config)
    fuzzer = Fuzzer(FuzzTarget(runtime), seeds=list(target.seeds),
                    seed=derive_seed(7, "gadgets-fuzz", 0))
    fuzzer.run_chunk(WARMUP)
    return fuzzer


def count_calls(fuzzer: Fuzzer, executions: int = EXECUTIONS,
                ) -> Tuple[int, int, Dict[str, int]]:
    """``(python calls, calls from generated code, calls from generated
    code per BOOKKEEPING name)`` over the next ``executions``
    executions."""
    watched = {fn.__code__: name for name, fn in BOOKKEEPING.items()}
    bookkeeping = dict.fromkeys(BOOKKEEPING, 0)
    calls = from_jit = 0

    def profile(frame, event, arg):
        nonlocal calls, from_jit
        if event != "call":
            return
        calls += 1
        caller = frame.f_back
        if caller is not None and caller.f_code.co_filename == "<repro-jit>":
            from_jit += 1
            name = watched.get(frame.f_code)
            if name is not None:
                bookkeeping[name] += 1

    sys.setprofile(profile)
    try:
        fuzzer.run_chunk(executions)
    finally:
        sys.setprofile(None)
    return calls, from_jit, bookkeeping


def count_bytecodes(fuzzer: Fuzzer, executions: int = EXECUTIONS) -> int:
    """Bytecodes executed over the next ``executions`` executions."""
    opcodes = 0

    def local(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(trace)
    try:
        fuzzer.run_chunk(executions)
    finally:
        sys.settrace(None)
    return opcodes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-calls", type=float, default=None,
                        help="fail above this many calls per execution")
    args = parser.parse_args(argv)
    calls, _, bookkeeping = count_calls(campaign())
    opcodes = count_bytecodes(campaign())
    print(f"calls per execution: {calls / EXECUTIONS:.1f}")
    print(f"bytecodes per execution: {opcodes / EXECUTIONS:.1f}")
    for name, count in bookkeeping.items():
        print(f"  {name} from generated code: {count}")
    failed = any(bookkeeping.values())
    if args.max_calls is not None and calls / EXECUTIONS > args.max_calls:
        print(f"calls per execution above {args.max_calls}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
