"""External (imported) functions: the uninstrumented-libc stand-in.

COTS binaries call into shared libraries the rewriter does not instrument;
the paper terminates speculation simulation at such calls because their side
effects cannot be rolled back (§6.1, "Unconditional Restore Points").  In
this reproduction those libraries are implemented as Python handlers
registered in an :class:`ExternalRegistry`; the instrumented program reaches
them through ``ecall`` instructions.

Input-reading externals (``read_input``, ``fread``, ``fgets``, ``getchar``)
are the fuzzing entry points: they consume bytes from the emulator's current
fuzz input, and — exactly like the paper's wrappers for ``fread``/``fgets``
(§6.2.2, "Taint Sources") — mark the bytes they produce as attacker-directly
controlled when a DIFT sanitizer is attached.

Copying externals (``memcpy``/``memmove``/``strcpy``) propagate DIFT tags
byte-to-byte, since real DFSan interposes on them as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.runtime.errors import ProgramCrash, ProgramExit
from repro.runtime.machine import to_signed, to_unsigned

#: An external handler: ``(emulator, args) -> (return value, bytes moved)``.
Handler = Callable[["object", List[int]], Tuple[int, int]]


@dataclass
class ExternalCall:
    """A registered external function."""

    name: str
    handler: Handler
    #: whether the external reads attacker-controlled input (taint source)
    taint_source: bool = False


class ExternalRegistry:
    """Name-indexed collection of external functions."""

    def __init__(self) -> None:
        self._externals: Dict[str, ExternalCall] = {}

    def register(self, name: str, handler: Handler, taint_source: bool = False) -> None:
        """Register (or replace) an external function."""
        self._externals[name] = ExternalCall(name, handler, taint_source)

    def get(self, name: str) -> ExternalCall:
        """Look up an external by name.

        Raises:
            KeyError: if the external is not registered.
        """
        if name not in self._externals:
            raise KeyError(f"unknown external function {name!r}")
        return self._externals[name]

    def names(self) -> List[str]:
        """All registered external names."""
        return sorted(self._externals)

    def __contains__(self, name: str) -> bool:
        return name in self._externals


# ---------------------------------------------------------------------------
# Handlers.  Each receives the emulator and the raw argument registers.
# ---------------------------------------------------------------------------

def _malloc(em, args):
    return em.heap.malloc(to_unsigned(args[0])), 0


def _calloc(em, args):
    return em.heap.calloc(to_unsigned(args[0]), to_unsigned(args[1])), to_unsigned(args[0] * args[1])


def _realloc(em, args):
    return em.heap.realloc(to_unsigned(args[0]), to_unsigned(args[1])), 0


def _free(em, args):
    em.heap.free(to_unsigned(args[0]))
    return 0, 0


def _copy_tags(em, dst: int, src: int, count: int) -> None:
    if em.dift is not None and count > 0:
        em.dift.copy_mem_tags(dst, src, count)


def _memcpy(em, args):
    dst, src, count = args[0], args[1], to_unsigned(args[2])
    if count:
        data = em.machine.memory.read_bytes(src, count)
        em.machine.memory.write_bytes(dst, data)
        _copy_tags(em, dst, src, count)
    return dst, count


def _memmove(em, args):
    return _memcpy(em, args)


def _memset(em, args):
    dst, value, count = args[0], args[1] & 0xFF, to_unsigned(args[2])
    if count:
        em.machine.memory.write_bytes(dst, bytes([value]) * count)
        if em.dift is not None:
            em.dift.clear_mem_tags(dst, count)
    return dst, count


def _memcmp(em, args):
    a, b, count = args[0], args[1], to_unsigned(args[2])
    da = em.machine.memory.read_bytes(a, count) if count else b""
    db = em.machine.memory.read_bytes(b, count) if count else b""
    if da == db:
        return 0, count
    return (1 if da > db else to_unsigned(-1)), count


def _strlen(em, args):
    data = em.machine.memory.read_cstring(args[0])
    return len(data), len(data)


def _strcmp(em, args):
    a = em.machine.memory.read_cstring(args[0])
    b = em.machine.memory.read_cstring(args[1])
    if a == b:
        return 0, len(a) + len(b)
    return (1 if a > b else to_unsigned(-1)), len(a) + len(b)


def _strncmp(em, args):
    count = to_unsigned(args[2])
    a = em.machine.memory.read_cstring(args[0])[:count]
    b = em.machine.memory.read_cstring(args[1])[:count]
    if a == b:
        return 0, len(a) + len(b)
    return (1 if a > b else to_unsigned(-1)), len(a) + len(b)


def _strcpy(em, args):
    dst, src = args[0], args[1]
    data = em.machine.memory.read_cstring(src) + b"\x00"
    em.machine.memory.write_bytes(dst, data)
    _copy_tags(em, dst, src, len(data))
    return dst, len(data)


def _strncpy(em, args):
    dst, src, count = args[0], args[1], to_unsigned(args[2])
    data = em.machine.memory.read_cstring(src)[:count]
    data = data + b"\x00" * (count - len(data))
    if count:
        em.machine.memory.write_bytes(dst, data)
        _copy_tags(em, dst, src, min(len(data), count))
    return dst, count


def _read_input(em, args):
    """``read_input(buf, max_len)`` — copy fuzz input bytes into the program."""
    buf, max_len = args[0], to_unsigned(args[1])
    data = em.consume_input(max_len)
    if data:
        em.machine.memory.write_bytes(buf, data)
        if em.dift is not None:
            em.dift.mark_user_input(buf, len(data))
    return len(data), len(data)


def _input_size(em, args):
    return len(em.input_data), 0


def _fread(em, args):
    """``fread(buf, size, count)`` — stream-style read from the fuzz input."""
    buf, size, count = args[0], to_unsigned(args[1]), to_unsigned(args[2])
    data = em.consume_input(size * count)
    if data:
        em.machine.memory.write_bytes(buf, data)
        if em.dift is not None:
            em.dift.mark_user_input(buf, len(data))
    return len(data) // size if size else 0, len(data)


def _fgets(em, args):
    """``fgets(buf, size)`` — read up to a newline (NUL-terminated)."""
    buf, size = args[0], to_unsigned(args[1])
    if size <= 1:
        return 0, 0
    data = em.consume_input_line(size - 1)
    if not data:
        return 0, 0
    em.machine.memory.write_bytes(buf, data + b"\x00")
    if em.dift is not None:
        em.dift.mark_user_input(buf, len(data))
    return buf, len(data)


def _getchar(em, args):
    data = em.consume_input(1)
    if not data:
        return to_unsigned(-1), 0
    if em.dift is not None:
        # The returned byte is attacker-directly controlled; the emulator
        # applies the pending tag to the return register after the call.
        em.pending_return_tag = em.dift.TAG_USER
    return data[0], 1


def _attack_input(em, args):
    """``attack_input()`` — the artificial-gadget input source (paper §7.2).

    The Table 3 methodology disables the ordinary taint sources and treats
    the variable read by the injected gadget as the only user input.  This
    external returns eight bytes taken directly from the raw fuzz input
    (without consuming the program's own input stream, so injection does not
    perturb the host program's parsing) and tags the returned value
    attacker-direct regardless of whether the normal taint sources are
    enabled.  Successive calls read successive 8-byte windows, wrapping
    around, so every injected gadget instance gets its own attacker value.
    """
    counter = getattr(em, "attack_input_counter", 0)
    em.attack_input_counter = counter + 1
    data = em.input_data
    if not data:
        value = 0
    else:
        offset = (counter * 8) % len(data)
        window = (data[offset:offset + 8] + data[:8])[:8]
        value = int.from_bytes(window.ljust(8, b"\x00"), "little")
    if em.dift is not None:
        em.pending_return_tag = em.dift.TAG_USER
    return value, 8


def _taint_mark(em, args):
    """``taint_mark(ptr, size)`` — explicitly mark memory attacker-direct."""
    if em.dift is not None:
        em.dift.mark_region(args[0], to_unsigned(args[1]), em.dift.TAG_USER)
    return 0, 0


def _print_int(em, args):
    em.output.append(str(to_signed(args[0])))
    return 0, 0


def _print_str(em, args):
    data = em.machine.memory.read_cstring(args[0])
    em.output.append(data.decode("latin-1"))
    return 0, len(data)


def _puts(em, args):
    return _print_str(em, args)


def _exit(em, args):
    raise ProgramExit(to_signed(args[0]))


def _abort(em, args):
    raise ProgramCrash("abort() called", em.machine.pc)


def default_externals() -> ExternalRegistry:
    """The standard external registry used by all targets and tests."""
    registry = ExternalRegistry()
    registry.register("malloc", _malloc)
    registry.register("calloc", _calloc)
    registry.register("realloc", _realloc)
    registry.register("free", _free)
    registry.register("memcpy", _memcpy)
    registry.register("memmove", _memmove)
    registry.register("memset", _memset)
    registry.register("memcmp", _memcmp)
    registry.register("strlen", _strlen)
    registry.register("strcmp", _strcmp)
    registry.register("strncmp", _strncmp)
    registry.register("strcpy", _strcpy)
    registry.register("strncpy", _strncpy)
    registry.register("read_input", _read_input, taint_source=True)
    registry.register("input_size", _input_size)
    registry.register("fread", _fread, taint_source=True)
    registry.register("fgets", _fgets, taint_source=True)
    registry.register("getchar", _getchar, taint_source=True)
    registry.register("attack_input", _attack_input, taint_source=True)
    registry.register("taint_mark", _taint_mark)
    registry.register("print_int", _print_int)
    registry.register("print_str", _print_str)
    registry.register("puts", _puts)
    registry.register("exit", _exit)
    registry.register("abort", _abort)
    return registry
