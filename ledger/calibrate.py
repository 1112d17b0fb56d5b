"""Host-speed calibration: every reported time is in reference seconds.

The benchmark host is shared, and its speed drifts by tens of percent over
minutes (a fixed jsmn campaign measured 0.70-1.12 s in consecutive
processes).  Each run therefore times a fixed pure-Python loop, a toy
register machine with the emulator's mix of list, dict, int and struct
work, between its units of work.  A reported time is the host time scaled
by ``REFERENCE_S / mean(loop time)``: how long the work would have taken
on the reference host, where the loop takes ``REFERENCE_S``.  Over the
same consecutive processes the scaled campaign time varied 0.57-0.67 s.

The scale uses the mean, not the median: the host's speed flips between
two levels within seconds (consecutive samples read 33 or 55 ms), so the
median jumps from one level to the other between runs, while the work,
like the mean, averages over both.

The loop is part of the benchmark, not of the program, and it runs only
while none of the program's work runs: between campaigns, between server
spawns, and between the service load's steps.  It never shares the host
with the work it scales.
"""

from __future__ import annotations

import statistics
import struct
import time
from typing import List

#: seconds :func:`spin` takes on the reference host (2-vCPU x86-64 VM,
#: CPython 3.11, quiet).
REFERENCE_S = 0.0307
#: steps of one calibration sample.
STEPS = 200_000


def spin(steps: int = STEPS) -> int:
    """The calibration loop: a 64-instruction toy program run ``steps`` times."""
    regs = [0] * 16
    memory = bytearray(4096)
    program = [(i % 7, i % 16, (i * 7) % 16, (i * 13) % 4093)
               for i in range(64)]
    word = struct.Struct("<I")
    flags = {}
    pc = acc = 0
    for _ in range(steps):
        op, a, b, imm = program[pc]
        if op == 0:
            regs[a] = (regs[b] + imm) & 0xFFFFFFFF
        elif op == 1:
            regs[a] = (regs[a] ^ regs[b]) & 0xFFFFFFFF
        elif op == 2:
            word.pack_into(memory, imm & 4088, regs[a])
        elif op == 3:
            regs[b] = word.unpack_from(memory, imm & 4088)[0]
        elif op == 4:
            flags["z"] = regs[a] == regs[b]
        elif op == 5:
            acc += regs[a] >> 3
        else:
            regs[a] = len(flags) + imm
        pc = (pc + 1) & 63
    return acc


class Calibration:
    """Calibration samples taken through one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.last = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        spin()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def maybe_sample(self, interval_s: float) -> None:
        """Sample when ``interval_s`` has passed since the last sample."""
        if time.perf_counter() - self.last >= interval_s:
            self.sample()

    @property
    def scale(self) -> float:
        """Reference seconds per host second over this run."""
        return REFERENCE_S / statistics.mean(self.samples)

