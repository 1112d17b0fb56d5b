"""Opt-in engine profiling: per-opcode and per-address hot-spot counts.

The profiler wraps an emulator's dispatch structures *in place* — the
legacy engine's opcode dispatch table, or the compiled engines' block
tables and single-instruction tables — and counts executions per opcode
and per address.  Wrapping costs a Python call per dispatched handler,
function or block, so this is strictly opt-in
(``Pipeline.telemetry(profile_engine=True)`` or
``repro fuzz --profile-engine``); nothing is touched unless a profiler
is installed before the emulator's first ``run()``.

Single-instruction functions (every step of the ``fast`` engine, and the
jit engine's steps outside blocks) are compiled on first dispatch, so
the profiler wraps each as its table builds it, and counts are exact
per address.  A jit block wrapper attributes one execution to every
instruction address in the block's span (``_block_spans_*``): compiled
blocks have no per-instruction dispatch left to hook, so a conditional
early exit still counts the block's tail — superblock-granular
attribution, exact at block heads.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class EngineProfiler:
    """Counts executed instructions per opcode and per code address."""

    def __init__(self, hot_spots: int = 20) -> None:
        #: executions per lower-case opcode name.
        self.per_opcode: Dict[str, int] = {}
        #: executions per instruction address.
        self.per_address: Dict[int, int] = {}
        self.hot_spot_limit = hot_spots
        self._attached: set = set()
        #: (start, end, name) function ranges for hot-spot attribution.
        self._symbols: List[Tuple[int, int, str]] = []

    # -- attachment ----------------------------------------------------------
    def attach(self, emulator) -> None:
        """Wrap one emulator's dispatch path (idempotent per instance)."""
        key = id(emulator)
        if key in self._attached:
            return
        self._attached.add(key)
        for sym in emulator.binary.function_symbols():
            self._symbols.append((sym.address, sym.address + sym.size,
                                  sym.name))
        if getattr(emulator, "_blocks_nosim", None) is not None:
            self._wrap_blocks(emulator)
            self._wrap_singles(emulator)
        else:
            self._wrap_dispatch(emulator)

    def _wrap_singles(self, emulator) -> None:
        """Compiled engines: wrap every single-instruction function, both
        those already built and those the tables build later."""
        per_address = self.per_address
        per_opcode = self.per_opcode
        instructions = emulator.instructions

        def counted(addr, fn):
            if fn is None:
                return None
            name = instructions[addr].opcode.name.lower()

            def counting(m, _fn=fn, _addr=addr, _name=name,
                         _pa=per_address, _po=per_opcode):
                _pa[_addr] = _pa.get(_addr, 0) + 1
                _po[_name] = _po.get(_name, 0) + 1
                return _fn(m)

            return counting

        for table in (emulator._singles_sim, emulator._singles_nosim):
            for addr, fn in list(table.items()):
                table[addr] = counted(addr, fn)
            table.build = (lambda addr, _build=table.build:
                           counted(addr, _build(addr)))

    def _wrap_blocks(self, emulator) -> None:
        """Jit engine: wrap both compiled-block tables with counting shims.

        Each table entry stays a ``(block fn, fuel need)`` tuple — the
        main loop's fuel check reads ``entry[1]`` — and one retired
        block attributes an execution to every instruction address in
        its span.
        """
        per_address = self.per_address
        per_opcode = self.per_opcode
        instructions = emulator.instructions
        for blocks, spans in ((emulator._blocks_sim,
                               emulator._block_spans_sim),
                              (emulator._blocks_nosim,
                               emulator._block_spans_nosim)):
            for addr, (fn, need) in list(blocks.items()):
                span = spans.get(addr, (addr,))
                names = tuple(instructions[a].opcode.name.lower()
                              for a in span if a in instructions)

                def counting(m, _fn=fn, _span=span, _names=names,
                             _pa=per_address, _po=per_opcode):
                    for a in _span:
                        _pa[a] = _pa.get(a, 0) + 1
                    for n in _names:
                        _po[n] = _po.get(n, 0) + 1
                    return _fn(m)

                blocks[addr] = (counting, need)

    def _wrap_dispatch(self, emulator) -> None:
        """Legacy engine: wrap the per-opcode handler table."""
        per_address = self.per_address
        per_opcode = self.per_opcode
        for opcode, handler in list(emulator._dispatch.items()):
            name = opcode.name.lower()

            def counting(instr, _handler=handler, _name=name,
                         _pa=per_address, _po=per_opcode):
                _pa[instr.address] = _pa.get(instr.address, 0) + 1
                _po[_name] = _po.get(_name, 0) + 1
                return _handler(instr)

            emulator._dispatch[opcode] = counting

    # -- reporting -----------------------------------------------------------
    def _function_for(self, address: int) -> str:
        for start, end, name in self._symbols:
            if start <= address < end:
                return name
        return "?"

    def hot_spots(self) -> List[Dict[str, object]]:
        """The most-executed addresses, hottest first, with attribution."""
        ranked = sorted(self.per_address.items(),
                        key=lambda item: (-item[1], item[0]))
        return [
            {"address": f"{addr:#x}", "count": count,
             "function": self._function_for(addr)}
            for addr, count in ranked[:self.hot_spot_limit]
        ]

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready profile: opcode histogram + hot-spot table."""
        return {
            "per_opcode": dict(sorted(self.per_opcode.items(),
                                      key=lambda item: (-item[1], item[0]))),
            "hot_spots": self.hot_spots(),
            "addresses_seen": len(self.per_address),
        }
