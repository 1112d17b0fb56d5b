"""Abstract syntax tree node definitions for mini-C."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CType:
    """A mini-C type: ``int``/``byte``/``void``, optionally pointer or array."""

    base: str                      # "int" | "byte" | "void"
    pointer: bool = False
    array_size: Optional[int] = None

    @property
    def is_array(self) -> bool:
        """Whether this is a fixed-size array type."""
        return self.array_size is not None

    @property
    def element_size(self) -> int:
        """Size in bytes of one element (for arrays, pointers and scalars)."""
        return 1 if self.base == "byte" else 8

    @property
    def storage_size(self) -> int:
        """Bytes of storage a variable of this type occupies."""
        if self.is_array:
            return self.element_size * self.array_size
        return 8  # scalars and pointers occupy a full word slot

    def __str__(self) -> str:
        text = self.base
        if self.pointer:
            text += "*"
        if self.is_array:
            text += f"[{self.array_size}]"
        return text


INT = CType("int")
BYTE = CType("byte")
VOID = CType("void")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class Expr:
    """Base class for expressions."""

    line: int = 0


@dataclass
class Number(Expr):
    """Integer literal."""

    value: int = 0


@dataclass
class StringLit(Expr):
    """String literal (evaluates to the address of a NUL-terminated rodata blob)."""

    value: bytes = b""


@dataclass
class Ident(Expr):
    """Variable or function reference."""

    name: str = ""


@dataclass
class Unary(Expr):
    """Unary operation: ``- ! ~ * &`` plus prefix/postfix ``++``/``--``."""

    op: str = ""
    operand: Optional[Expr] = None
    postfix: bool = False


@dataclass
class Binary(Expr):
    """Binary operation."""

    op: str = ""
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class Assign(Expr):
    """Assignment (possibly compound: ``+=``, ``<<=``, ...)."""

    target: Optional[Expr] = None
    value: Optional[Expr] = None
    op: str = "="


@dataclass
class Call(Expr):
    """Function call; ``callee`` may be a function name or a pointer variable."""

    callee: Optional[Expr] = None
    args: List[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    """Array/pointer indexing: ``base[index]``."""

    base: Optional[Expr] = None
    index: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class Stmt:
    """Base class for statements."""

    line: int = 0


@dataclass
class Block(Stmt):
    """A brace-delimited statement list."""

    statements: List[Stmt] = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for its side effects."""

    expr: Optional[Expr] = None


@dataclass
class VarDecl(Stmt):
    """A local variable declaration with optional initialiser."""

    ctype: CType = INT
    name: str = ""
    init: Optional[Expr] = None


@dataclass
class If(Stmt):
    """``if``/``else``."""

    cond: Optional[Expr] = None
    then: Optional[Stmt] = None
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    """``while`` loop."""

    cond: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class For(Stmt):
    """``for`` loop."""

    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class Return(Stmt):
    """``return`` with optional value."""

    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    """``break``."""


@dataclass
class Continue(Stmt):
    """``continue``."""


@dataclass
class SwitchCase:
    """One ``case`` arm of a switch."""

    value: int
    body: List[Stmt] = field(default_factory=list)


@dataclass
class Switch(Stmt):
    """``switch`` statement (no fall-through: each arm ends implicitly)."""

    expr: Optional[Expr] = None
    cases: List[SwitchCase] = field(default_factory=list)
    default: List[Stmt] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------

@dataclass
class Param:
    """A function parameter."""

    ctype: CType
    name: str


@dataclass
class FunctionDecl:
    """A function definition."""

    name: str
    return_type: CType
    params: List[Param] = field(default_factory=list)
    body: Optional[Block] = None
    line: int = 0


@dataclass
class GlobalDecl:
    """A global variable or array definition."""

    ctype: CType
    name: str
    #: scalar initialiser, list of element values, or bytes for byte arrays.
    init: Union[None, int, List[int], bytes] = None
    line: int = 0


@dataclass
class Program:
    """A whole translation unit."""

    functions: List[FunctionDecl] = field(default_factory=list)
    globals: List[GlobalDecl] = field(default_factory=list)

    def function(self, name: str) -> FunctionDecl:
        """Look up a function by name.

        Raises:
            KeyError: if the function is not defined.
        """
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(f"no function named {name!r}")
