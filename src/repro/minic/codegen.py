"""Code generator: mini-C AST to TVM assembly.

The generator is deliberately simple (no SSA, no register allocation beyond
a small scratch pool, locals live in stack slots) but produces the code
*shapes* that matter for Spectre analysis: bounds checks become conditional
branches, table lookups become indexed loads, and ``switch`` statements can
be lowered either as GCC-style compare/branch chains or Clang-style jump
tables (paper Figure 2).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.assembler import AsmProgram
from repro.isa.builder import FunctionBuilder
from repro.isa.instructions import alu as make_alu
from repro.isa.instructions import ConditionCode, Opcode
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import ARG_REGISTERS, RETURN_REGISTER, Register
from repro.loader.binary_format import DataObject
from repro.minic import astnodes as ast
from repro.runtime.externals import default_externals


class CodegenError(ValueError):
    """Raised when the AST cannot be lowered (unknown names, too-deep exprs)."""


class SwitchLowering(enum.Enum):
    """How ``switch`` statements are lowered (paper Figure 2)."""

    BRANCH_CHAIN = "branch_chain"   # GCC-style: cmp/je chain (Spectre-V1 prone)
    JUMP_TABLE = "jump_table"       # Clang-style: bounds check + indirect jump


@dataclass
class CompilerOptions:
    """Options controlling code generation."""

    switch_lowering: SwitchLowering = SwitchLowering.BRANCH_CHAIN
    entry: str = "main"
    #: maximum value span for which a jump table is emitted; sparser switches
    #: fall back to a branch chain (mirrors real compilers).
    jump_table_max_span: int = 64


#: Scratch registers available for expression evaluation.
SCRATCH = [Register.R6, Register.R7, Register.R8, Register.R9,
           Register.R10, Register.R11, Register.R12, Register.R13]

_RELATIONAL_CCS = {
    "==": ConditionCode.EQ,
    "!=": ConditionCode.NE,
    "<": ConditionCode.LT,
    "<=": ConditionCode.LE,
    ">": ConditionCode.GT,
    ">=": ConditionCode.GE,
}

_ALU_OPS = {
    "+": Opcode.ADD,
    "-": Opcode.SUB,
    "*": Opcode.MUL,
    "/": Opcode.DIV,
    "%": Opcode.MOD,
    "&": Opcode.AND,
    "|": Opcode.OR,
    "^": Opcode.XOR,
    "<<": Opcode.SHL,
    ">>": Opcode.SHR,
}


@dataclass
class LocalVar:
    """A local variable's stack slot."""

    name: str
    ctype: ast.CType
    offset: int  # negative offset from fp


class CodeGenerator:
    """Lowers a mini-C :class:`~repro.minic.astnodes.Program` to assembly."""

    def __init__(self, program: ast.Program,
                 options: Optional[CompilerOptions] = None) -> None:
        self.program = program
        self.options = options or CompilerOptions()
        self.asm = AsmProgram(entry=self.options.entry)
        self.externals = set(default_externals().names())
        self.defined_functions = {f.name for f in program.functions}
        self.global_types: Dict[str, ast.CType] = {}
        self._string_counter = itertools.count()
        # per-function state
        self.builder: Optional[FunctionBuilder] = None
        self.locals: Dict[str, LocalVar] = {}
        self.current_function: Optional[ast.FunctionDecl] = None
        self._in_use: List[Register] = []
        self._break_labels: List[str] = []
        self._continue_labels: List[str] = []
        self._return_label: str = ""

    # ------------------------------------------------------------------ driver
    def generate(self) -> AsmProgram:
        """Generate the whole program."""
        for decl in self.program.globals:
            self._emit_global(decl)
        for func in self.program.functions:
            self._emit_function(func)
        if not self.asm.has_function(self.options.entry):
            raise CodegenError(f"entry function {self.options.entry!r} is not defined")
        return self.asm

    # ------------------------------------------------------------------ globals
    def _emit_global(self, decl: ast.GlobalDecl) -> None:
        self.global_types[decl.name] = decl.ctype
        element = decl.ctype.element_size
        size = decl.ctype.storage_size
        data = bytearray(size)
        init = decl.init
        if isinstance(init, int):
            data[0:8] = (init & ((1 << 64) - 1)).to_bytes(8, "little")
        elif isinstance(init, bytes):
            data = bytearray(max(size, len(init) + 1))
            data[0:len(init)] = init
        elif isinstance(init, list):
            for i, value in enumerate(init):
                start = i * element
                data[start:start + element] = (
                    (value & ((1 << (8 * element)) - 1)).to_bytes(element, "little")
                )
        self.asm.add_data(DataObject(decl.name, bytes(data), ".data"))

    def _intern_string(self, value: bytes) -> str:
        name = f".Lstr{next(self._string_counter)}"
        self.asm.add_data(DataObject(name, value + b"\x00", ".rodata", align=1))
        return name

    # ------------------------------------------------------------------ functions
    def _emit_function(self, func: ast.FunctionDecl) -> None:
        self.builder = FunctionBuilder(func.name)
        self.current_function = func
        self.locals = {}
        self._in_use = []
        self._break_labels = []
        self._continue_labels = []
        self._return_label = self.builder.fresh_label("ret")

        frame_size = self._allocate_locals(func)
        self.builder.prologue(frame_size)
        for index, param in enumerate(func.params):
            slot = self.locals[param.name]
            if index < len(ARG_REGISTERS):
                self.builder.store(
                    Mem(base=Register.FP, disp=slot.offset), Reg(ARG_REGISTERS[index])
                )
            else:
                # Stack-passed argument: the caller pushed it just above the
                # return address ([fp] = saved fp, [fp+8] = return address).
                stack_offset = 16 + 8 * (index - len(ARG_REGISTERS))
                self.builder.load(
                    Reg(Register.R6), Mem(base=Register.FP, disp=stack_offset)
                )
                self.builder.store(
                    Mem(base=Register.FP, disp=slot.offset), Reg(Register.R6)
                )

        self._emit_block(func.body)

        # Implicit `return 0` for functions that fall off the end.
        self.builder.mov(Reg(RETURN_REGISTER), Imm(0))
        self.builder.label(self._return_label)
        self.builder.epilogue()
        self.asm.add_function(self.builder.build())

    def _allocate_locals(self, func: ast.FunctionDecl) -> int:
        offset = 0

        def allocate(name: str, ctype: ast.CType) -> None:
            nonlocal offset
            if name in self.locals:
                raise CodegenError(
                    f"duplicate local {name!r} in function {func.name!r} "
                    "(mini-C uses flat function scope)"
                )
            size = max(8, ctype.storage_size)
            size = (size + 7) // 8 * 8
            offset += size
            self.locals[name] = LocalVar(name, ctype, -offset)

        for param in func.params:
            allocate(param.name, param.ctype)

        def scan(stmt: ast.Stmt) -> None:
            if isinstance(stmt, ast.Block):
                for inner in stmt.statements:
                    scan(inner)
            elif isinstance(stmt, ast.VarDecl):
                allocate(stmt.name, stmt.ctype)
            elif isinstance(stmt, ast.If):
                scan(stmt.then)
                if stmt.otherwise is not None:
                    scan(stmt.otherwise)
            elif isinstance(stmt, ast.While):
                scan(stmt.body)
            elif isinstance(stmt, ast.For):
                if stmt.init is not None:
                    scan(stmt.init)
                scan(stmt.body)
            elif isinstance(stmt, ast.Switch):
                for case in stmt.cases:
                    for inner in case.body:
                        scan(inner)
                for inner in stmt.default:
                    scan(inner)

        scan(func.body)
        return (offset + 15) // 16 * 16

    # ------------------------------------------------------------------ register pool
    def _alloc_reg(self) -> Register:
        for reg in SCRATCH:
            if reg not in self._in_use:
                self._in_use.append(reg)
                return reg
        raise CodegenError(
            f"expression too deep in function {self.current_function.name!r} "
            "(scratch registers exhausted)"
        )

    def _free_reg(self, reg: Register) -> None:
        if reg in self._in_use:
            self._in_use.remove(reg)

    # ------------------------------------------------------------------ statements
    def _emit_block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self._emit_statement(stmt)

    def _emit_statement(self, stmt: ast.Stmt) -> None:
        b = self.builder
        if isinstance(stmt, ast.Block):
            self._emit_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                reg = self._emit_expression(stmt.init)
                slot = self.locals[stmt.name]
                b.store(Mem(base=Register.FP, disp=slot.offset), Reg(reg))
                self._free_reg(reg)
        elif isinstance(stmt, ast.ExprStmt):
            reg = self._emit_expression(stmt.expr)
            if reg is not None:
                self._free_reg(reg)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                reg = self._emit_expression(stmt.value)
                b.mov(Reg(RETURN_REGISTER), Reg(reg))
                self._free_reg(reg)
            else:
                b.mov(Reg(RETURN_REGISTER), Imm(0))
            b.jmp(self._return_label)
        elif isinstance(stmt, ast.If):
            self._emit_if(stmt)
        elif isinstance(stmt, ast.While):
            self._emit_while(stmt)
        elif isinstance(stmt, ast.For):
            self._emit_for(stmt)
        elif isinstance(stmt, ast.Switch):
            self._emit_switch(stmt)
        elif isinstance(stmt, ast.Break):
            if not self._break_labels:
                raise CodegenError("'break' outside a loop or switch")
            b.jmp(self._break_labels[-1])
        elif isinstance(stmt, ast.Continue):
            if not self._continue_labels:
                raise CodegenError("'continue' outside a loop")
            b.jmp(self._continue_labels[-1])
        else:  # pragma: no cover - defensive
            raise CodegenError(f"unsupported statement {type(stmt).__name__}")

    def _emit_if(self, stmt: ast.If) -> None:
        b = self.builder
        else_label = b.fresh_label("else")
        end_label = b.fresh_label("endif")
        self._branch_if_false(stmt.cond, else_label)
        self._emit_statement(stmt.then)
        if stmt.otherwise is not None:
            b.jmp(end_label)
            b.label(else_label)
            self._emit_statement(stmt.otherwise)
            b.label(end_label)
        else:
            b.label(else_label)

    def _emit_while(self, stmt: ast.While) -> None:
        b = self.builder
        loop_label = b.fresh_label("loop")
        end_label = b.fresh_label("endloop")
        b.label(loop_label)
        self._branch_if_false(stmt.cond, end_label)
        self._break_labels.append(end_label)
        self._continue_labels.append(loop_label)
        self._emit_statement(stmt.body)
        self._break_labels.pop()
        self._continue_labels.pop()
        b.jmp(loop_label)
        b.label(end_label)

    def _emit_for(self, stmt: ast.For) -> None:
        b = self.builder
        if stmt.init is not None:
            self._emit_statement(stmt.init)
        loop_label = b.fresh_label("forloop")
        step_label = b.fresh_label("forstep")
        end_label = b.fresh_label("endfor")
        b.label(loop_label)
        if stmt.cond is not None:
            self._branch_if_false(stmt.cond, end_label)
        self._break_labels.append(end_label)
        self._continue_labels.append(step_label)
        self._emit_statement(stmt.body)
        self._break_labels.pop()
        self._continue_labels.pop()
        b.label(step_label)
        if stmt.step is not None:
            reg = self._emit_expression(stmt.step)
            if reg is not None:
                self._free_reg(reg)
        b.jmp(loop_label)
        b.label(end_label)

    # -- switch lowering (paper Figure 2) -------------------------------------------
    def _emit_switch(self, stmt: ast.Switch) -> None:
        values = [case.value for case in stmt.cases]
        use_table = (
            self.options.switch_lowering is SwitchLowering.JUMP_TABLE
            and len(values) >= 2
            and max(values) - min(values) < self.options.jump_table_max_span
        )
        if use_table:
            self._emit_switch_jump_table(stmt)
        else:
            self._emit_switch_branch_chain(stmt)

    def _emit_switch_branch_chain(self, stmt: ast.Switch) -> None:
        b = self.builder
        reg = self._emit_expression(stmt.expr)
        end_label = b.fresh_label("endswitch")
        default_label = b.fresh_label("swdefault")
        case_labels = [b.fresh_label("case") for _ in stmt.cases]
        for case, label in zip(stmt.cases, case_labels):
            b.cmp(Reg(reg), Imm(case.value))
            b.je(label)
        b.jmp(default_label)
        self._free_reg(reg)

        self._break_labels.append(end_label)
        for case, label in zip(stmt.cases, case_labels):
            b.label(label)
            for inner in case.body:
                self._emit_statement(inner)
            b.jmp(end_label)
        b.label(default_label)
        for inner in stmt.default:
            self._emit_statement(inner)
        self._break_labels.pop()
        b.label(end_label)

    def _emit_switch_jump_table(self, stmt: ast.Switch) -> None:
        b = self.builder
        reg = self._emit_expression(stmt.expr)
        end_label = b.fresh_label("endswitch")
        default_label = b.fresh_label("swdefault")
        case_labels = {case.value: b.fresh_label("case") for case in stmt.cases}

        low = min(case_labels)
        high = max(case_labels)
        span = high - low + 1
        table_name = f".Ljt_{self.current_function.name}_{next(self._string_counter)}"
        slots = []
        for i in range(span):
            target = case_labels.get(low + i, default_label)
            slots.append((i * 8, f"{self.current_function.name}::{target}", 0))
        self.asm.add_data(
            DataObject(table_name, bytes(span * 8), ".rodata", align=8,
                       pointer_slots=slots)
        )

        if low:
            b.sub(Reg(reg), Imm(low))
        b.cmp(Reg(reg), Imm(span))
        b.jae(default_label)
        b.ijmp(Mem(index=reg, scale=8, disp=Label(table_name)))
        self._free_reg(reg)

        self._break_labels.append(end_label)
        for case in stmt.cases:
            b.label(case_labels[case.value])
            for inner in case.body:
                self._emit_statement(inner)
            b.jmp(end_label)
        b.label(default_label)
        for inner in stmt.default:
            self._emit_statement(inner)
        self._break_labels.pop()
        b.label(end_label)

    # ------------------------------------------------------------------ conditions
    def _branch_if_false(self, cond: ast.Expr, target: str) -> None:
        """Emit a branch to ``target`` when ``cond`` is false.

        Relational operators and short-circuit connectives lower to direct
        conditional branches (the bounds-check shape that Spectre-V1 needs);
        everything else is evaluated to a value and compared with zero.
        """
        b = self.builder
        if isinstance(cond, ast.Binary) and cond.op in _RELATIONAL_CCS:
            left = self._emit_expression(cond.left)
            right_operand = self._as_simple_operand(cond.right)
            if right_operand is None:
                right = self._emit_expression(cond.right)
                b.cmp(Reg(left), Reg(right))
                self._free_reg(right)
            else:
                b.cmp(Reg(left), right_operand)
            self._free_reg(left)
            cc = _RELATIONAL_CCS[cond.op]
            if self._is_unsigned_compare(cond):
                cc = _UNSIGNED_CCS.get(cc, cc)
            b.jcc(cc.negate(), target)
            return
        if isinstance(cond, ast.Binary) and cond.op == "&&":
            self._branch_if_false(cond.left, target)
            self._branch_if_false(cond.right, target)
            return
        if isinstance(cond, ast.Binary) and cond.op == "||":
            ok_label = b.fresh_label("or_ok")
            self._branch_if_true(cond.left, ok_label)
            self._branch_if_false(cond.right, target)
            b.label(ok_label)
            return
        if isinstance(cond, ast.Unary) and cond.op == "!":
            self._branch_if_true(cond.operand, target)
            return
        reg = self._emit_expression(cond)
        b.cmp(Reg(reg), Imm(0))
        b.je(target)
        self._free_reg(reg)

    def _branch_if_true(self, cond: ast.Expr, target: str) -> None:
        """Emit a branch to ``target`` when ``cond`` is true."""
        b = self.builder
        if isinstance(cond, ast.Binary) and cond.op in _RELATIONAL_CCS:
            left = self._emit_expression(cond.left)
            right_operand = self._as_simple_operand(cond.right)
            if right_operand is None:
                right = self._emit_expression(cond.right)
                b.cmp(Reg(left), Reg(right))
                self._free_reg(right)
            else:
                b.cmp(Reg(left), right_operand)
            self._free_reg(left)
            cc = _RELATIONAL_CCS[cond.op]
            if self._is_unsigned_compare(cond):
                cc = _UNSIGNED_CCS.get(cc, cc)
            b.jcc(cc, target)
            return
        if isinstance(cond, ast.Binary) and cond.op == "||":
            self._branch_if_true(cond.left, target)
            self._branch_if_true(cond.right, target)
            return
        if isinstance(cond, ast.Binary) and cond.op == "&&":
            fail_label = b.fresh_label("and_fail")
            self._branch_if_false(cond.left, fail_label)
            self._branch_if_true(cond.right, target)
            b.label(fail_label)
            return
        if isinstance(cond, ast.Unary) and cond.op == "!":
            self._branch_if_false(cond.operand, target)
            return
        reg = self._emit_expression(cond)
        b.cmp(Reg(reg), Imm(0))
        b.jne(target)
        self._free_reg(reg)

    def _is_unsigned_compare(self, cond: ast.Binary) -> bool:
        """Byte-typed comparisons use unsigned condition codes (like C)."""
        return (
            self._expr_type(cond.left).base == "byte"
            and not self._expr_type(cond.left).pointer
            and self._expr_type(cond.left).array_size is None
        ) or (
            self._expr_type(cond.right).base == "byte"
            and not self._expr_type(cond.right).pointer
            and self._expr_type(cond.right).array_size is None
        )

    def _as_simple_operand(self, expr: ast.Expr):
        if isinstance(expr, ast.Number):
            return Imm(expr.value)
        return None

    # ------------------------------------------------------------------ expressions
    def _emit_expression(self, expr: ast.Expr) -> Optional[Register]:
        b = self.builder
        if isinstance(expr, ast.Number):
            reg = self._alloc_reg()
            b.mov(Reg(reg), Imm(expr.value))
            return reg
        if isinstance(expr, ast.StringLit):
            reg = self._alloc_reg()
            name = self._intern_string(expr.value)
            b.mov(Reg(reg), Label(name))
            return reg
        if isinstance(expr, ast.Ident):
            return self._emit_ident(expr)
        if isinstance(expr, ast.Index):
            mem, size = self._lvalue_index(expr)
            reg = self._alloc_reg()
            b.load(Reg(reg), mem, size=size)
            self._release_mem_registers(mem, keep=reg)
            return reg
        if isinstance(expr, ast.Unary):
            return self._emit_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._emit_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._emit_assign(expr)
        if isinstance(expr, ast.Call):
            return self._emit_call(expr)
        raise CodegenError(f"unsupported expression {type(expr).__name__}")

    def _emit_ident(self, expr: ast.Ident) -> Register:
        b = self.builder
        name = expr.name
        reg = self._alloc_reg()
        if name in self.locals:
            slot = self.locals[name]
            if slot.ctype.is_array:
                b.lea(Reg(reg), Mem(base=Register.FP, disp=slot.offset))
            else:
                b.load(Reg(reg), Mem(base=Register.FP, disp=slot.offset))
            return reg
        if name in self.global_types:
            ctype = self.global_types[name]
            if ctype.is_array:
                b.mov(Reg(reg), Label(name))
            else:
                b.load(Reg(reg), Mem(disp=Label(name)))
            return reg
        if name in self.defined_functions:
            b.mov(Reg(reg), Label(name))
            return reg
        raise CodegenError(f"unknown identifier {name!r}")

    def _emit_unary(self, expr: ast.Unary) -> Register:
        b = self.builder
        op = expr.op
        if op in ("++", "--"):
            return self._emit_incdec(expr)
        if op == "&":
            return self._emit_address_of(expr.operand)
        if op == "*":
            ptr = self._emit_expression(expr.operand)
            size = 1 if self._expr_type(expr.operand).base == "byte" else 8
            reg = self._alloc_reg()
            b.load(Reg(reg), Mem(base=ptr), size=size)
            self._free_reg(ptr)
            return reg
        reg = self._emit_expression(expr.operand)
        if op == "-":
            b.neg(Reg(reg))
        elif op == "~":
            b.not_(Reg(reg))
        elif op == "!":
            b.cmp(Reg(reg), Imm(0))
            b.mov(Reg(reg), Imm(1))
            skip = b.fresh_label("not")
            b.je(skip)
            b.mov(Reg(reg), Imm(0))
            b.label(skip)
        else:
            raise CodegenError(f"unsupported unary operator {op!r}")
        return reg

    def _emit_incdec(self, expr: ast.Unary) -> Register:
        b = self.builder
        mem, size = self._lvalue(expr.operand)
        value = self._alloc_reg()
        b.load(Reg(value), mem, size=size)
        result = self._alloc_reg()
        b.mov(Reg(result), Reg(value))
        if expr.op == "++":
            b.add(Reg(value), Imm(1))
        else:
            b.sub(Reg(value), Imm(1))
        b.store(mem, Reg(value), size=size)
        if not expr.postfix:
            b.mov(Reg(result), Reg(value))
        self._free_reg(value)
        self._release_mem_registers(mem, keep=result)
        return result

    def _emit_address_of(self, operand: ast.Expr) -> Register:
        b = self.builder
        if isinstance(operand, ast.Ident):
            name = operand.name
            reg = self._alloc_reg()
            if name in self.locals:
                b.lea(Reg(reg), Mem(base=Register.FP, disp=self.locals[name].offset))
                return reg
            if name in self.global_types:
                b.mov(Reg(reg), Label(name))
                return reg
            if name in self.defined_functions:
                b.mov(Reg(reg), Label(name))
                return reg
            raise CodegenError(f"cannot take the address of unknown name {name!r}")
        if isinstance(operand, ast.Index):
            mem, _ = self._lvalue_index(operand)
            reg = self._alloc_reg()
            b.lea(Reg(reg), mem)
            self._release_mem_registers(mem, keep=reg)
            return reg
        raise CodegenError("'&' requires a variable, function or array element")

    def _emit_binary(self, expr: ast.Binary) -> Register:
        b = self.builder
        op = expr.op
        if op in _RELATIONAL_CCS or op in ("&&", "||"):
            return self._emit_boolean_value(expr)
        if op not in _ALU_OPS:
            raise CodegenError(f"unsupported binary operator {op!r}")
        left = self._emit_expression(expr.left)
        simple = self._as_simple_operand(expr.right)
        if simple is not None:
            self.builder.emit(make_alu(_ALU_OPS[op], Reg(left), simple))
            return left
        right = self._emit_expression(expr.right)
        self.builder.emit(make_alu(_ALU_OPS[op], Reg(left), Reg(right)))
        self._free_reg(right)
        return left

    def _emit_boolean_value(self, expr: ast.Expr) -> Register:
        b = self.builder
        reg = self._alloc_reg()
        true_label = b.fresh_label("btrue")
        end_label = b.fresh_label("bend")
        self._branch_if_true(expr, true_label)
        b.mov(Reg(reg), Imm(0))
        b.jmp(end_label)
        b.label(true_label)
        b.mov(Reg(reg), Imm(1))
        b.label(end_label)
        return reg

    def _emit_assign(self, expr: ast.Assign) -> Register:
        b = self.builder
        mem, size = self._lvalue(expr.target)
        value = self._emit_expression(expr.value)
        if expr.op != "=":
            current = self._alloc_reg()
            b.load(Reg(current), mem, size=size)
            opcode = _ALU_OPS[expr.op[:-1]]
            b.emit(make_alu(opcode, Reg(current), Reg(value)))
            self._free_reg(value)
            value = current
        b.store(mem, Reg(value), size=size)
        self._release_mem_registers(mem, keep=value)
        return value

    def _emit_call(self, expr: ast.Call) -> Register:
        b = self.builder

        # Evaluate arguments into scratch registers first.
        arg_regs: List[Register] = []
        for arg in expr.args:
            arg_regs.append(self._emit_expression(arg))

        # Preserve any other live scratch registers across the call.
        saved = [r for r in self._in_use if r not in arg_regs]
        for reg in saved:
            b.push(Reg(reg))

        # Arguments beyond the register convention go on the stack, pushed
        # in reverse order so the first stack argument sits closest to the
        # callee's frame.
        register_args = arg_regs[:len(ARG_REGISTERS)]
        stack_args = arg_regs[len(ARG_REGISTERS):]
        for reg in reversed(stack_args):
            b.push(Reg(reg))
        for index, reg in enumerate(register_args):
            b.mov(Reg(ARG_REGISTERS[index]), Reg(reg))
        for reg in arg_regs:
            self._free_reg(reg)

        callee = expr.callee
        if isinstance(callee, ast.Ident) and callee.name in self.defined_functions:
            b.call(callee.name)
        elif isinstance(callee, ast.Ident) and callee.name in self.externals:
            b.ecall(callee.name)
        else:
            # Indirect call through a function-pointer expression.
            target = self._emit_expression(callee)
            b.icall(Reg(target))
            self._free_reg(target)

        if stack_args:
            b.add(Reg(Register.SP), Imm(8 * len(stack_args)))
        for reg in reversed(saved):
            b.pop(Reg(reg))

        result = self._alloc_reg()
        b.mov(Reg(result), Reg(RETURN_REGISTER))
        return result

    # ------------------------------------------------------------------ lvalues
    def _lvalue(self, expr: ast.Expr) -> Tuple[Mem, int]:
        """Lower an assignable expression to a memory operand and access size."""
        if isinstance(expr, ast.Ident):
            name = expr.name
            if name in self.locals:
                slot = self.locals[name]
                if slot.ctype.is_array:
                    raise CodegenError(f"cannot assign to array {name!r}")
                return Mem(base=Register.FP, disp=slot.offset), 8
            if name in self.global_types:
                ctype = self.global_types[name]
                if ctype.is_array:
                    raise CodegenError(f"cannot assign to array {name!r}")
                return Mem(disp=Label(name)), 8
            raise CodegenError(f"unknown identifier {name!r}")
        if isinstance(expr, ast.Index):
            return self._lvalue_index(expr)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            ptr = self._emit_expression(expr.operand)
            size = 1 if self._expr_type(expr.operand).base == "byte" else 8
            return Mem(base=ptr), size
        raise CodegenError(f"expression is not assignable: {type(expr).__name__}")

    def _lvalue_index(self, expr: ast.Index) -> Tuple[Mem, int]:
        b = self.builder
        base = expr.base
        base_type = self._expr_type(base)
        element_size = base_type.element_size

        index_reg = self._emit_expression(expr.index)
        scale = element_size if element_size in (1, 2, 4, 8) else 1

        if isinstance(base, ast.Ident) and base.name in self.global_types \
                and self.global_types[base.name].is_array:
            return Mem(index=index_reg, scale=scale, disp=Label(base.name)), element_size
        if isinstance(base, ast.Ident) and base.name in self.locals \
                and self.locals[base.name].ctype.is_array:
            addr = self._alloc_reg()
            b.lea(Reg(addr), Mem(base=Register.FP, disp=self.locals[base.name].offset))
            return Mem(base=addr, index=index_reg, scale=scale), element_size
        # Generic pointer expression.
        ptr = self._emit_expression(base)
        return Mem(base=ptr, index=index_reg, scale=scale), element_size

    def _release_mem_registers(self, mem: Mem, keep: Optional[Register] = None) -> None:
        """Free scratch registers used to form a memory operand."""
        for reg in mem.registers():
            if reg is Register.FP or reg is Register.SP:
                continue
            if keep is not None and reg == keep:
                continue
            self._free_reg(reg)

    # ------------------------------------------------------------------ types
    def _expr_type(self, expr: ast.Expr) -> ast.CType:
        if isinstance(expr, ast.Ident):
            if expr.name in self.locals:
                return self.locals[expr.name].ctype
            if expr.name in self.global_types:
                return self.global_types[expr.name]
            return ast.INT
        if isinstance(expr, ast.Index):
            base_type = self._expr_type(expr.base)
            return ast.CType(base_type.base)
        if isinstance(expr, ast.Unary):
            if expr.op == "*":
                return ast.CType(self._expr_type(expr.operand).base)
            if expr.op == "&":
                inner = self._expr_type(expr.operand)
                return ast.CType(inner.base, pointer=True)
            return self._expr_type(expr.operand) if expr.operand else ast.INT
        if isinstance(expr, ast.Binary):
            left = self._expr_type(expr.left)
            if left.pointer or left.is_array:
                return left
            return self._expr_type(expr.right)
        if isinstance(expr, ast.Assign):
            return self._expr_type(expr.target)
        if isinstance(expr, ast.Number):
            return ast.INT
        if isinstance(expr, ast.StringLit):
            return ast.CType("byte", pointer=True)
        return ast.INT


#: Unsigned equivalents of the signed relational condition codes.
_UNSIGNED_CCS = {
    ConditionCode.LT: ConditionCode.B,
    ConditionCode.LE: ConditionCode.BE,
    ConditionCode.GT: ConditionCode.A,
    ConditionCode.GE: ConditionCode.AE,
}
