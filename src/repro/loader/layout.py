"""Virtual address-space layout of TVM processes.

The layout follows the paper's Table 2 (user memory plus ASan shadow plus
DIFT tag shadow):

========  ======================  ======================
Region    Start                   End
========  ======================  ======================
HighMem   ``0x6000_0000_0000``    ``0x7fff_ffff_ffff``
HighTag   ``0x4000_0000_0000``    ``0x5fff_ffff_ffff``
AsanShdw  ``0x1000_0000_0000``    ``0x1fff_ffff_ffff``
LowTag    ``0x2000_0000_0000``    ``0x2000_7fff_7fff``
LowMem    ``0x0``                 ``0x7fff_7fff``
========  ======================  ======================

The stack lives in HighMem; code, globals and the heap live in LowMem.  The
DIFT tag shadow has a byte-to-byte mapping to user memory obtained by
flipping bit 45 of the address (paper §6.2.2): HighMem ``0x6...`` maps to
HighTag ``0x4...`` and LowMem ``0x0000_xxxx`` maps to LowTag
``0x2000_xxxx``.  The ASan shadow uses the classic ``(addr >> 3) + offset``
mapping with an offset chosen so the shadow never collides with user memory
or the tag shadow.

The absolute values differ slightly from the paper's Table 1/2 (which are
dictated by Linux's mmap layout); the *structural* invariants — disjoint
regions, bit-45 flip for tags, 8-to-1 compression for ASan — are identical
and are asserted by ``tests/sanitizers/test_layout.py``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MemoryLayout:
    """Address-space layout constants for a TVM process."""

    # -- user memory -------------------------------------------------------
    text_base: int = 0x0001_0000
    rodata_base: int = 0x0100_0000
    data_base: int = 0x0200_0000
    heap_base: int = 0x0400_0000
    lowmem_end: int = 0x7FFF_7FFF

    highmem_start: int = 0x6000_0000_0000
    highmem_end: int = 0x7FFF_FFFF_FFFF
    stack_top: int = 0x7FFF_FFFF_FF00
    stack_size: int = 1 << 20

    # -- sanitizer shadows ---------------------------------------------------
    asan_shadow_offset: int = 0x1000_0000_0000
    asan_shadow_scale: int = 3
    tag_flip_bit: int = 1 << 45
    lowtag_start: int = 0x2000_0000_0000
    lowtag_end: int = 0x2000_7FFF_7FFF
    hightag_start: int = 0x4000_0000_0000
    hightag_end: int = 0x5FFF_FFFF_FFFF

    # -- derived queries ------------------------------------------------------
    def in_lowmem(self, addr: int) -> bool:
        """Whether ``addr`` lies in the LowMem user region."""
        return 0 <= addr <= self.lowmem_end

    def in_highmem(self, addr: int) -> bool:
        """Whether ``addr`` lies in the HighMem user region (stack)."""
        return self.highmem_start <= addr <= self.highmem_end

    def in_user_memory(self, addr: int) -> bool:
        """Whether ``addr`` is a user-accessible address."""
        return self.in_lowmem(addr) or self.in_highmem(addr)

    def asan_shadow_address(self, addr: int) -> int:
        """ASan shadow byte address for user address ``addr``."""
        return (addr >> self.asan_shadow_scale) + self.asan_shadow_offset

    def tag_shadow_address(self, addr: int) -> int:
        """DIFT tag shadow address for user address ``addr`` (flip bit 45)."""
        return addr ^ self.tag_flip_bit

    def stack_bottom(self) -> int:
        """Lowest valid stack address for the default stack size."""
        return self.stack_top - self.stack_size

    def validate(self) -> None:
        """Check the structural invariants of the layout.

        Raises:
            ValueError: if any region overlaps another or a shadow mapping
                would land inside user memory.
        """
        regions = [
            ("LowMem", 0, self.lowmem_end),
            ("LowTag", self.lowtag_start, self.lowtag_end),
            ("AsanShadow", self.asan_shadow_offset,
             self.asan_shadow_address(self.highmem_end)),
            ("HighTag", self.hightag_start, self.hightag_end),
            ("HighMem", self.highmem_start, self.highmem_end),
        ]
        ordered = sorted(regions, key=lambda r: r[1])
        for (name_a, _, end_a), (name_b, start_b, _) in zip(ordered, ordered[1:]):
            if end_a >= start_b:
                raise ValueError(f"memory regions {name_a} and {name_b} overlap")
        # Tag shadow of both user regions must land inside the tag regions.
        if not (self.lowtag_start <= self.tag_shadow_address(0) <= self.lowtag_end):
            raise ValueError("LowMem tag shadow escapes LowTag")
        if not (self.lowtag_start
                <= self.tag_shadow_address(self.lowmem_end)
                <= self.lowtag_end):
            raise ValueError("LowMem tag shadow escapes LowTag")
        if not (self.hightag_start
                <= self.tag_shadow_address(self.highmem_start)
                <= self.hightag_end):
            raise ValueError("HighMem tag shadow escapes HighTag")
        if not (self.hightag_start
                <= self.tag_shadow_address(self.highmem_end)
                <= self.hightag_end):
            raise ValueError("HighMem tag shadow escapes HighTag")


#: The layout used throughout the library unless a test overrides it.
DEFAULT_LAYOUT = MemoryLayout()
DEFAULT_LAYOUT.validate()
