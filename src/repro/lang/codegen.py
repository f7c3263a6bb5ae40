"""Code generator: minic AST -> SymPLFIED assembly.

The generated code follows the conventions of a simple, unoptimising C
compiler for a RISC target, because that is what the paper's experiments
depend on (errors in the *runtime support added by the compiler*, such as the
return-address register, are exactly the ones SymPLFIED is designed to
reach):

* ``$29`` is the stack pointer, ``$31`` the return-address register (written
  by ``jal``), ``$2`` the return-value register and ``$8``-``$10`` scratch.
* Every function owns a stack frame: ``[saved $31][parameters][locals]
  [expression-evaluation slots]``.  The prologue allocates the frame and
  saves ``$31``; the epilogue restores ``$31`` from the frame and returns
  with ``jr $31``.
* Expressions are evaluated on the in-frame evaluation stack (a classic
  stack-machine lowering), so no value is ever live in a scratch register
  across a call.
* Globals live in a data segment at fixed absolute addresses and are
  accessed with ``$0``-based loads/stores; global arrays decay to their base
  address.
* ``&&`` and ``||`` are short-circuiting; ``if``/``while`` lower to labels
  and branches, and every ``then``/``else``/loop body gets a label of its own
  (these labels are also the landing sites considered by the control-error
  model's ``"labels"`` fork domain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.instructions import make
from ..isa.program import Program, ProgramBuilder
from . import nodes
from .nodes import (ArrayIndex, Assign, Binary, Break, Call, Check,
                    Continue, ExprStmt, Function, Identifier, If,
                    LocalDecl, NumberLiteral, Print, PrintString, Read,
                    Return, TranslationUnit, Unary, While)


class CompileError(ValueError):
    """Raised for semantic errors in minic programs."""


#: Register conventions used by the generated code.
SP = 29          # stack pointer
RA = 31          # return address (written by jal)
RV = 2           # return value
T0, T1, T2 = 8, 9, 10   # scratch registers

#: Memory layout.
GLOBAL_BASE = 1_000
STACK_BASE = 1_000_000

#: Depth of the per-frame expression evaluation stack.
EVAL_STACK_SLOTS = 24

_COMPARISON_OPCODES = {
    "==": "seteq", "!=": "setne", "<": "setlt", ">": "setgt",
    "<=": "setle", ">=": "setge",
}

_ARITHMETIC_OPCODES = {"+": "add", "-": "sub", "*": "mult", "/": "div", "%": "mod"}


@dataclass
class GlobalInfo:
    name: str
    address: int
    size: int
    is_array: bool


@dataclass
class FunctionInfo:
    name: str
    label: str
    parameters: Tuple[str, ...]
    locals: Tuple[str, ...]
    frame_size: int
    start_pc: int = -1
    end_pc: int = -1

    def slot_of(self, name: str) -> Optional[int]:
        """Frame slot (offset from SP) of a parameter or local, if any."""
        if name in self.parameters:
            return 1 + self.parameters.index(name)
        if name in self.locals:
            return 1 + len(self.parameters) + self.locals.index(name)
        return None

    @property
    def eval_base(self) -> int:
        return 1 + len(self.parameters) + len(self.locals)


@dataclass
class CompiledProgram:
    """The output of the minic compiler."""

    program: Program
    data_segment: Dict[int, int]
    globals: Dict[str, GlobalInfo]
    functions: Dict[str, FunctionInfo]
    constants: Dict[str, int]
    source: str = ""
    #: Name of the ISA frontend the program was retargeted through, if any
    #: (see :func:`repro.lang.compiler.compile_source`'s ``isa=``).
    isa: Optional[str] = None

    def global_address(self, name: str, index: int = 0) -> int:
        info = self.globals[name]
        return info.address + index

    def initial_memory(self) -> Dict[int, int]:
        """A fresh copy of the loader-initialised data segment."""
        return dict(self.data_segment)

    def function_region(self, name: str) -> Tuple[int, int]:
        """Half-open range of code addresses belonging to a function."""
        info = self.functions[name]
        return info.start_pc, info.end_pc

    def function_pcs(self, name: str) -> List[int]:
        start, end = self.function_region(name)
        return list(range(start, end))


def _collect_locals(statements: Sequence[nodes.Stmt]) -> List[str]:
    names: List[str] = []

    def walk(stmts: Sequence[nodes.Stmt]) -> None:
        for statement in stmts:
            if isinstance(statement, LocalDecl):
                if statement.name in names:
                    raise CompileError(
                        f"duplicate local variable {statement.name!r}")
                names.append(statement.name)
            elif isinstance(statement, If):
                walk(statement.then_body)
                walk(statement.else_body)
            elif isinstance(statement, While):
                walk(statement.body)

    walk(statements)
    return names


class CodeGenerator:
    """Compiles a parsed translation unit into a SymPLFIED program."""

    def __init__(self, unit: TranslationUnit, name: str = "minic",
                 entry_function: str = "main") -> None:
        self.unit = unit
        self.name = name
        self.entry_function = entry_function
        self.builder = ProgramBuilder(name=name)
        self.constants: Dict[str, int] = {}
        self.globals: Dict[str, GlobalInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.data_segment: Dict[int, int] = {}
        self._label_counter = 0
        # Per-function code-generation state.
        self._current: Optional[FunctionInfo] = None
        self._eval_depth = 0
        self._loop_stack: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------ tables

    def _build_tables(self) -> None:
        for const in self.unit.constants:
            if const.name in self.constants:
                raise CompileError(f"duplicate constant {const.name!r}")
            self.constants[const.name] = const.value

        address = GLOBAL_BASE
        for declaration in self.unit.globals:
            if declaration.name in self.globals or declaration.name in self.constants:
                raise CompileError(f"duplicate global {declaration.name!r}")
            info = GlobalInfo(name=declaration.name, address=address,
                              size=declaration.size, is_array=declaration.is_array)
            self.globals[declaration.name] = info
            values = list(declaration.initializer)
            for offset in range(declaration.size):
                value = values[offset] if offset < len(values) else 0
                self.data_segment[address + offset] = value
            address += declaration.size

        for function in self.unit.functions:
            if function.name in self.functions:
                raise CompileError(f"duplicate function {function.name!r}")
            locals_ = _collect_locals(function.body)
            for parameter in function.parameters:
                if parameter in locals_:
                    raise CompileError(
                        f"{function.name}: parameter {parameter!r} shadowed by a local")
            frame_size = 1 + len(function.parameters) + len(locals_) + EVAL_STACK_SLOTS
            self.functions[function.name] = FunctionInfo(
                name=function.name, label=f"fn_{function.name}",
                parameters=tuple(function.parameters), locals=tuple(locals_),
                frame_size=frame_size)

        if self.entry_function not in self.functions:
            raise CompileError(f"missing entry function {self.entry_function!r}")
        if self.functions[self.entry_function].parameters:
            raise CompileError(f"{self.entry_function}() must take no parameters")

    # ------------------------------------------------------------------- emit

    def _emit(self, opcode: str, *operands, source: Optional[str] = None) -> int:
        return self.builder.emit(make(opcode, *operands), source=source)

    def _label(self, hint: str) -> str:
        self._label_counter += 1
        function = self._current.name if self._current else "global"
        return f"L_{function}_{hint}_{self._label_counter}"

    def _place(self, label: str) -> None:
        self.builder.label(label)

    # --------------------------------------------------------------- eval stack

    def _eval_slot(self, depth: int) -> int:
        assert self._current is not None
        return self._current.eval_base + depth

    def _push(self, register: int) -> None:
        if self._eval_depth >= EVAL_STACK_SLOTS:
            raise CompileError(
                f"{self._current.name}: expression too deep "
                f"(more than {EVAL_STACK_SLOTS} evaluation slots)")
        self._emit("sti", register, SP, self._eval_slot(self._eval_depth))
        self._eval_depth += 1

    def _pop(self, register: int) -> None:
        assert self._eval_depth > 0, "evaluation stack underflow (compiler bug)"
        self._eval_depth -= 1
        self._emit("ldi", register, SP, self._eval_slot(self._eval_depth))

    # ---------------------------------------------------------------- compile

    def compile(self) -> CompiledProgram:
        self._build_tables()
        self._emit_entry()
        for function in self.unit.functions:
            self._compile_function(function)
        program = self.builder.build()
        source = "\n".join(
            f"{name} = {value}" for name, value in sorted(self.constants.items()))
        return CompiledProgram(program=program, data_segment=dict(self.data_segment),
                               globals=dict(self.globals),
                               functions=dict(self.functions),
                               constants=dict(self.constants), source=source)

    def _emit_entry(self) -> None:
        """Program entry: set up the stack pointer, call main, halt."""
        self._emit("li", SP, STACK_BASE, source="entry: set up stack pointer")
        self._emit("jal", self.functions[self.entry_function].label,
                   source=f"entry: call {self.entry_function}()")
        self._emit("halt", source="entry: halt after main returns")

    def _compile_function(self, function: Function) -> None:
        info = self.functions[function.name]
        self._current = info
        self._eval_depth = 0
        self._loop_stack = []

        info.start_pc = self.builder.next_address
        self._place(info.label)
        # Prologue: allocate the frame, save the return address, zero locals.
        self._emit("subi", SP, SP, info.frame_size,
                   source=f"{function.name}: prologue (frame={info.frame_size})")
        self._emit("sti", RA, SP, 0, source=f"{function.name}: save return address")
        for index in range(len(info.locals)):
            slot = 1 + len(info.parameters) + index
            self._emit("sti", 0, SP, slot,
                       source=f"{function.name}: zero local {info.locals[index]!r}")

        for statement in function.body:
            self._compile_statement(statement)

        # Implicit ``return 0`` for functions that fall off the end.
        self._emit("li", RV, 0, source=f"{function.name}: implicit return 0")
        self._emit_epilogue(function.name)
        info.end_pc = self.builder.next_address
        self._current = None

    def _emit_epilogue(self, function_name: str) -> None:
        info = self.functions[function_name]
        self._emit("ldi", RA, SP, 0, source=f"{function_name}: restore return address")
        self._emit("addi", SP, SP, info.frame_size,
                   source=f"{function_name}: pop frame")
        self._emit("jr", RA, source=f"{function_name}: return")

    # -------------------------------------------------------------- statements

    def _compile_statement(self, statement: nodes.Stmt) -> None:
        if isinstance(statement, LocalDecl):
            if statement.initializer is not None:
                self._compile_expression(statement.initializer)
                self._pop(T0)
                self._store_variable(statement.name, T0)
            return
        if isinstance(statement, Assign):
            self._compile_assignment(statement)
            return
        if isinstance(statement, If):
            self._compile_if(statement)
            return
        if isinstance(statement, While):
            self._compile_while(statement)
            return
        if isinstance(statement, Return):
            if statement.value is not None:
                self._compile_expression(statement.value)
                self._pop(RV)
            else:
                self._emit("li", RV, 0)
            self._emit_epilogue(self._current.name)
            return
        if isinstance(statement, Break):
            if not self._loop_stack:
                raise CompileError("break outside of a loop")
            self._emit("jmp", self._loop_stack[-1][1])
            return
        if isinstance(statement, Continue):
            if not self._loop_stack:
                raise CompileError("continue outside of a loop")
            self._emit("jmp", self._loop_stack[-1][0])
            return
        if isinstance(statement, Print):
            self._compile_expression(statement.value)
            self._pop(T0)
            self._emit("print", T0)
            return
        if isinstance(statement, PrintString):
            self._emit("prints", statement.text)
            return
        if isinstance(statement, Read):
            self._compile_read(statement)
            return
        if isinstance(statement, Check):
            self._emit("check", statement.detector_id)
            return
        if isinstance(statement, ExprStmt):
            self._compile_expression(statement.expression)
            self._pop(T0)  # discard the value
            return
        raise CompileError(f"unsupported statement {type(statement).__name__}")

    def _compile_assignment(self, statement: Assign) -> None:
        target = statement.target
        if isinstance(target, Identifier):
            self._compile_expression(statement.value)
            self._pop(T0)
            self._store_variable(target.name, T0)
            return
        if isinstance(target, ArrayIndex):
            self._compile_expression(target.base)
            self._compile_expression(target.index)
            self._compile_expression(statement.value)
            self._pop(T2)   # value
            self._pop(T1)   # index
            self._pop(T0)   # base address
            self._emit("add", T0, T0, T1)
            self._emit("sti", T2, T0, 0)
            return
        raise CompileError("invalid assignment target")

    def _compile_read(self, statement: Read) -> None:
        target = statement.target
        if isinstance(target, Identifier):
            self._emit("read", T0)
            self._store_variable(target.name, T0)
            return
        # read into an array element
        self._compile_expression(target.base)
        self._compile_expression(target.index)
        self._pop(T1)
        self._pop(T0)
        self._emit("add", T0, T0, T1)
        self._emit("read", T1)
        self._emit("sti", T1, T0, 0)

    def _compile_if(self, statement: If) -> None:
        else_label = self._label("else")
        end_label = self._label("endif")
        then_label = self._label("then")
        self._compile_expression(statement.condition)
        self._pop(T0)
        self._emit("beq", T0, 0, else_label if statement.else_body else end_label)
        self._place(then_label)
        for inner in statement.then_body:
            self._compile_statement(inner)
        if statement.else_body:
            self._emit("jmp", end_label)
            self._place(else_label)
            for inner in statement.else_body:
                self._compile_statement(inner)
        self._place(end_label)
        # Anchor the labels even when a branch is empty (a label may not dangle
        # past the last instruction if nothing follows; emit a nop fallback).
        if self.builder.has_label(end_label) or self.builder.has_label(then_label) \
                or self.builder.has_label(else_label):
            self._emit("nop", source="if join point")

    def _compile_while(self, statement: While) -> None:
        head_label = self._label("loop")
        body_label = self._label("loopbody")
        end_label = self._label("loopend")
        self._place(head_label)
        # The head label must be anchored to the condition's first instruction.
        self._compile_expression(statement.condition)
        self._pop(T0)
        self._emit("beq", T0, 0, end_label)
        self._place(body_label)
        self._loop_stack.append((head_label, end_label))
        for inner in statement.body:
            self._compile_statement(inner)
        self._loop_stack.pop()
        self._emit("jmp", head_label)
        self._place(end_label)
        if self.builder.has_label(end_label) or self.builder.has_label(body_label):
            self._emit("nop", source="loop exit join point")

    # ------------------------------------------------------------- expressions

    def _compile_expression(self, expression: nodes.Expr) -> None:
        """Generate code leaving the expression's value on the evaluation stack."""
        if isinstance(expression, NumberLiteral):
            self._emit("li", T0, expression.value)
            self._push(T0)
            return
        if isinstance(expression, Identifier):
            self._load_identifier(expression.name)
            return
        if isinstance(expression, ArrayIndex):
            self._compile_expression(expression.base)
            self._compile_expression(expression.index)
            self._pop(T1)
            self._pop(T0)
            self._emit("add", T0, T0, T1)
            self._emit("ldi", T0, T0, 0)
            self._push(T0)
            return
        if isinstance(expression, Unary):
            self._compile_expression(expression.operand)
            self._pop(T0)
            if expression.operator == "-":
                self._emit("sub", T0, 0, T0)
            elif expression.operator == "!":
                self._emit("seteqi", T0, T0, 0)
            else:
                raise CompileError(f"unknown unary operator {expression.operator!r}")
            self._push(T0)
            return
        if isinstance(expression, Binary):
            self._compile_binary(expression)
            return
        if isinstance(expression, Call):
            self._compile_call(expression)
            return
        raise CompileError(f"unsupported expression {type(expression).__name__}")

    def _compile_binary(self, expression: Binary) -> None:
        operator = expression.operator
        if operator in ("&&", "||"):
            self._compile_short_circuit(expression)
            return
        self._compile_expression(expression.left)
        self._compile_expression(expression.right)
        self._pop(T1)
        self._pop(T0)
        if operator in _ARITHMETIC_OPCODES:
            self._emit(_ARITHMETIC_OPCODES[operator], T0, T0, T1)
        elif operator in _COMPARISON_OPCODES:
            self._emit(_COMPARISON_OPCODES[operator], T0, T0, T1)
        else:
            raise CompileError(f"unknown binary operator {operator!r}")
        self._push(T0)

    def _compile_short_circuit(self, expression: Binary) -> None:
        skip_label = self._label("sc_skip")
        end_label = self._label("sc_end")
        self._compile_expression(expression.left)
        self._pop(T0)
        if expression.operator == "&&":
            self._emit("beq", T0, 0, skip_label)
        else:  # "||"
            self._emit("bne", T0, 0, skip_label)
        self._compile_expression(expression.right)
        self._pop(T0)
        self._emit("setnei", T0, T0, 0)
        self._emit("jmp", end_label)
        self._place(skip_label)
        self._emit("li", T0, 0 if expression.operator == "&&" else 1)
        self._place(end_label)
        self._push(T0)

    def _compile_call(self, expression: Call) -> None:
        callee = self.functions.get(expression.name)
        if callee is None:
            raise CompileError(f"call to undefined function {expression.name!r}")
        if len(expression.arguments) != len(callee.parameters):
            raise CompileError(
                f"{expression.name}() expects {len(callee.parameters)} arguments, "
                f"got {len(expression.arguments)}")
        base_depth = self._eval_depth
        for argument in expression.arguments:
            self._compile_expression(argument)
        # Copy the evaluated arguments into the callee's parameter slots
        # (located just below the current stack pointer, inside the frame the
        # callee is about to allocate).
        for index in range(len(expression.arguments)):
            self._emit("ldi", T0, SP, self._eval_slot(base_depth + index))
            self._emit("sti", T0, SP, 1 + index - callee.frame_size)
        self._eval_depth = base_depth
        self._emit("jal", callee.label)
        self._push(RV)

    # ---------------------------------------------------------------- variables

    def _load_identifier(self, name: str) -> None:
        if name in self.constants:
            self._emit("li", T0, self.constants[name])
            self._push(T0)
            return
        slot = self._current.slot_of(name) if self._current else None
        if slot is not None:
            self._emit("ldi", T0, SP, slot)
            self._push(T0)
            return
        info = self.globals.get(name)
        if info is not None:
            if info.is_array:
                self._emit("li", T0, info.address)   # arrays decay to addresses
            else:
                self._emit("ldi", T0, 0, info.address)
            self._push(T0)
            return
        raise CompileError(f"undefined identifier {name!r}")

    def _store_variable(self, name: str, register: int) -> None:
        if name in self.constants:
            raise CompileError(f"cannot assign to constant {name!r}")
        slot = self._current.slot_of(name) if self._current else None
        if slot is not None:
            self._emit("sti", register, SP, slot)
            return
        info = self.globals.get(name)
        if info is not None:
            if info.is_array:
                raise CompileError(f"cannot assign to array {name!r} as a whole")
            self._emit("sti", register, 0, info.address)
            return
        raise CompileError(f"undefined identifier {name!r}")
