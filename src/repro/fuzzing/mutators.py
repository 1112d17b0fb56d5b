"""Input mutators (a compact version of honggfuzz's mutation strategies).

All mutations are driven by a seeded :class:`random.Random`, so campaigns
are fully deterministic and the experiment tables regenerate identically.
"""

from __future__ import annotations

import random
from typing import Callable, List

#: "Interesting" values substituted into inputs, mirroring common fuzzers:
#: bounds-check boundary values are what flushes out Spectre-V1 gadgets.
INTERESTING_BYTES = [0, 1, 0x7F, 0x80, 0xFF, 0x10, 0x20, 0x40]
INTERESTING_WORDS = [0, 1, 0xFF, 0x100, 0x7FFF, 0x8000, 0xFFFF, 0x7FFFFFFF,
                     0xFFFFFFFF, 0x100000000, 0x7FFFFFFFFFFFFFFF]


class Mutator:
    """Applies a randomly chosen mutation strategy to an input."""

    def __init__(self, rng: random.Random, max_size: int = 4096) -> None:
        self.rng = rng
        self.max_size = max_size
        self._strategies: List[Callable[[bytearray], bytearray]] = [
            self._flip_bit,
            self._replace_byte,
            self._insert_byte,
            self._delete_byte,
            self._interesting_byte,
            self._interesting_word,
            self._duplicate_block,
            self._truncate,
            self._append_random,
        ]

    def mutate(self, data: bytes) -> bytes:
        """Produce a mutated copy of ``data`` (never empty)."""
        buf = bytearray(data) if data else bytearray([0])
        rounds = self.rng.randint(1, 4)
        for _ in range(rounds):
            strategy = self.rng.choice(self._strategies)
            buf = strategy(buf)
            if not buf:
                buf = bytearray([self.rng.randrange(256)])
            if len(buf) > self.max_size:
                buf = buf[: self.max_size]
        return bytes(buf)

    # -- strategies ----------------------------------------------------------
    def _flip_bit(self, buf: bytearray) -> bytearray:
        pos = self.rng.randrange(len(buf))
        buf[pos] ^= 1 << self.rng.randrange(8)
        return buf

    def _replace_byte(self, buf: bytearray) -> bytearray:
        pos = self.rng.randrange(len(buf))
        buf[pos] = self.rng.randrange(256)
        return buf

    def _insert_byte(self, buf: bytearray) -> bytearray:
        pos = self.rng.randrange(len(buf) + 1)
        buf.insert(pos, self.rng.randrange(256))
        return buf

    def _delete_byte(self, buf: bytearray) -> bytearray:
        if len(buf) > 1:
            del buf[self.rng.randrange(len(buf))]
        return buf

    def _interesting_byte(self, buf: bytearray) -> bytearray:
        pos = self.rng.randrange(len(buf))
        buf[pos] = self.rng.choice(INTERESTING_BYTES)
        return buf

    def _interesting_word(self, buf: bytearray) -> bytearray:
        value = self.rng.choice(INTERESTING_WORDS)
        width = self.rng.choice([2, 4, 8])
        encoded = (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
        if len(buf) < width:
            buf.extend(encoded[len(buf):])
        pos = self.rng.randrange(max(len(buf) - width + 1, 1))
        buf[pos:pos + width] = encoded
        return buf

    def _duplicate_block(self, buf: bytearray) -> bytearray:
        if len(buf) < 2:
            return buf
        start = self.rng.randrange(len(buf) - 1)
        length = self.rng.randint(1, min(16, len(buf) - start))
        block = buf[start:start + length]
        pos = self.rng.randrange(len(buf) + 1)
        return buf[:pos] + block + buf[pos:]

    def _truncate(self, buf: bytearray) -> bytearray:
        if len(buf) > 2:
            return buf[: self.rng.randint(1, len(buf))]
        return buf

    def _append_random(self, buf: bytearray) -> bytearray:
        count = self.rng.randint(1, 8)
        buf.extend(self.rng.randrange(256) for _ in range(count))
        return buf
