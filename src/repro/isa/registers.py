"""Architectural register file and calling convention of the TVM ISA.

TVM has sixteen 64-bit general purpose registers, ``r0`` .. ``r15``.  Two of
them have dedicated roles mirroring x86-64's ``rsp``/``rbp``:

* ``r14`` is the stack pointer (``sp``),
* ``r15`` is the frame pointer (``fp``).

The calling convention (used by the mini-C compiler and by the runtime's
external-call shims) is:

* arguments are passed in ``r1`` .. ``r5`` (spill to stack beyond five),
* the return value is placed in ``r0``,
* ``r0`` .. ``r11`` are caller-saved, ``r12``/``r13`` and ``fp`` are
  callee-saved,
* the stack grows downwards and ``call`` pushes the return address.

Flags are modelled as a separate architectural flags register with the four
x86 condition bits Teapot's policy cares about (``ZF``, ``SF``, ``CF``,
``OF``); see :class:`repro.runtime.machine.Flags`.
"""

from __future__ import annotations

import enum
from typing import Tuple


class Register(enum.IntEnum):
    """The sixteen TVM general-purpose registers.

    The integer value of each member is the register number used by the
    byte-level encoding.
    """

    R0 = 0
    R1 = 1
    R2 = 2
    R3 = 3
    R4 = 4
    R5 = 5
    R6 = 6
    R7 = 7
    R8 = 8
    R9 = 9
    R10 = 10
    R11 = 11
    R12 = 12
    R13 = 13
    SP = 14
    FP = 15

    @property
    def is_frame_relative(self) -> bool:
        """Whether accesses based off this register are frame-relative.

        Teapot allowlists ASan checks for ``rsp``/``rbp`` + constant-offset
        accesses (paper section 6.2.1); the TVM equivalents are ``sp`` and
        ``fp``.
        """
        return self in (Register.SP, Register.FP)

    @classmethod
    def from_name(cls, name: str) -> "Register":
        """Parse a register from its assembly name (``r3``, ``sp``, ``fp``)."""
        key = name.strip().lower()
        if key in _NAME_TO_REGISTER:
            return _NAME_TO_REGISTER[key]
        raise ValueError(f"unknown register name: {name!r}")

    @property
    def asm_name(self) -> str:
        """Canonical assembly spelling of the register."""
        if self is Register.SP:
            return "sp"
        if self is Register.FP:
            return "fp"
        return f"r{int(self)}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.asm_name


#: Canonical assembly names for every register, in encoding order.
GPR_NAMES: Tuple[str, ...] = tuple(Register(i).asm_name for i in range(16))

_NAME_TO_REGISTER = {reg.asm_name: reg for reg in Register}
_NAME_TO_REGISTER.update({f"r{int(Register.SP)}": Register.SP,
                          f"r{int(Register.FP)}": Register.FP})

#: Registers used for passing the first five integer arguments.
ARG_REGISTERS: Tuple[Register, ...] = (
    Register.R1,
    Register.R2,
    Register.R3,
    Register.R4,
    Register.R5,
)

#: Register holding a function's return value.
RETURN_REGISTER: Register = Register.R0

#: The architectural stack pointer.
STACK_POINTER: Register = Register.SP

#: The architectural frame pointer.
FRAME_POINTER: Register = Register.FP

#: Registers a callee must preserve.
CALLEE_SAVED: Tuple[Register, ...] = (Register.R12, Register.R13, Register.FP)

#: Registers a caller must assume are clobbered across a call.
CALLER_SAVED: Tuple[Register, ...] = tuple(
    Register(i) for i in range(12)
)

#: Registers the register allocator may freely use for temporaries.
SCRATCH_REGISTERS: Tuple[Register, ...] = (
    Register.R6,
    Register.R7,
    Register.R8,
    Register.R9,
    Register.R10,
    Register.R11,
)
