"""Binary AddressSanitizer: shadow memory and poisoning (paper §6.2.1).

The shadow encodes the addressability of each 8-byte granule of user memory
in one shadow byte, using the classic ASan scheme:

* ``0x00`` — all eight bytes addressable,
* ``1..7`` — only the first *k* bytes addressable (partial granule),
* ``0xFF`` — the whole granule poisoned (redzone / freed memory).

Poisoning sources, mirroring the paper:

* heap redzones and freed blocks — installed by the allocator hooks in
  :class:`repro.runtime.heap.Heap`;
* stack frames — protected at *stack-frame granularity* by poisoning the
  shadow of each return-address slot while the frame is live (the paper
  cannot insert per-object stack redzones without source-level layout
  information);
* global objects — **not protected**, a documented limitation of binary
  rewriting (§6.2.1, §8) that causes Teapot to miss gadgets leaking through
  global-array overflows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.loader.layout import DEFAULT_LAYOUT, MemoryLayout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime ↔ sanitizers)
    from repro.runtime.machine import Memory

#: Shadow byte value for a fully poisoned granule.
POISONED = 0xFF
#: Granule size (bytes of user memory per shadow byte).
GRANULE = 8


class BinaryAsan:
    """ASan shadow-memory manager for a TVM process."""

    def __init__(self, memory: "Memory", layout: MemoryLayout = DEFAULT_LAYOUT,
                 protect_stack: bool = True) -> None:
        self.memory = memory
        self.layout = layout
        #: whether return-address slots are poisoned while frames are live.
        self.protect_stack = protect_stack
        #: statistics: number of failed checks observed.
        self.violations = 0

    # -- shadow addressing -------------------------------------------------------
    def shadow_address(self, addr: int) -> int:
        """Shadow byte address covering user address ``addr``."""
        return self.layout.asan_shadow_address(addr)

    # -- poisoning ------------------------------------------------------------------
    def poison_region(self, addr: int, size: int) -> None:
        """Poison ``[addr, addr+size)``.

        Whole granules are marked ``0xFF``; a leading partial granule keeps
        its first bytes addressable.
        """
        if size <= 0:
            return
        end = addr + size
        cursor = addr
        # Leading partial granule: restrict addressability to the prefix.
        if cursor % GRANULE:
            granule_start = cursor - (cursor % GRANULE)
            addressable = cursor - granule_start
            self.memory.write_shadow_byte(self.shadow_address(granule_start),
                                          addressable)
            cursor = granule_start + GRANULE
        # Whole granules map to consecutive shadow bytes: one bulk write.
        granules = (end - cursor + GRANULE - 1) // GRANULE
        if granules > 0:
            self.memory.write_shadow(self.shadow_address(cursor),
                                     b"\xff" * granules)

    def unpoison_region(self, addr: int, size: int) -> None:
        """Make ``[addr, addr+size)`` addressable again."""
        if size <= 0:
            return
        end = addr + size
        cursor = addr - (addr % GRANULE)
        full = (end - cursor) // GRANULE
        if full > 0:
            self.memory.write_shadow(self.shadow_address(cursor), bytes(full))
            cursor += full * GRANULE
        if cursor < end:
            # Trailing partial granule: first `end - cursor` bytes valid.
            self.memory.write_shadow_byte(self.shadow_address(cursor),
                                          end - cursor)

    # -- checking -----------------------------------------------------------------------
    def is_poisoned(self, addr: int, size: int) -> bool:
        """Whether any byte of ``[addr, addr+size)`` is poisoned.

        Walks shadow *granules*, not bytes: within one granule the byte
        offsets covered by the access are contiguous, so the partial-granule
        test only needs the highest covered offset.
        """
        if size <= 0:
            return False
        end = addr + size
        cursor = addr - (addr % GRANULE)
        read_shadow_byte = self.memory.read_shadow_byte
        shadow_address = self.shadow_address
        while cursor < end:
            shadow = read_shadow_byte(shadow_address(cursor))
            if shadow:
                if shadow == POISONED:
                    return True
                # Partial granule: only the first `shadow` bytes are
                # addressable; poisoned iff the highest covered offset
                # reaches past them.
                if min(cursor + GRANULE, end) - 1 - cursor >= shadow:
                    return True
            cursor += GRANULE
        return False

    def check_access(self, addr: int, size: int) -> bool:
        """Full access check: mapped user memory and not poisoned.

        Returns ``True`` when the access is valid.  Unmapped addresses count
        as violations (the speculative window can reach wild addresses that
        would fault architecturally).
        """
        if not self.layout.in_user_memory(addr):
            self.violations += 1
            return False
        if not self.memory.is_mapped(addr, size):
            self.violations += 1
            return False
        if self.is_poisoned(addr, size):
            self.violations += 1
            return False
        return True

    # -- stack frame protection ------------------------------------------------------------
    def poison_return_slot(self, addr: int) -> None:
        """Poison the 8-byte return-address slot at ``addr`` (on call)."""
        if self.protect_stack:
            if addr % GRANULE == 0:
                # Aligned single granule: the per-call fast path.
                self.memory.write_shadow_byte(self.shadow_address(addr),
                                              POISONED)
            else:
                self.poison_region(addr, 8)

    def unpoison_return_slot(self, addr: int) -> None:
        """Unpoison the return-address slot at ``addr`` (on return)."""
        if self.protect_stack:
            if addr % GRANULE == 0:
                self.memory.write_shadow_byte(self.shadow_address(addr), 0x00)
            else:
                self.unpoison_region(addr, 8)
