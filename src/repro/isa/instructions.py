"""Instruction set of the generic SymPLFIED assembly language.

The language mirrors the one used in the paper (Section 3.1 / Section 5): a
small RISC-style, MIPS-like instruction set with

* three-operand register arithmetic and comparison setters,
* immediate variants,
* load/store with base register + offset addressing,
* branches, an unconditional jump, a call/return pair (``jal`` / ``jr``),
* native input/output instructions (``read``, ``print``, ``prints``) so that
  programs can be analysed independently of an operating system, and
* special instructions ``halt``, ``throw`` and the detector hook ``check``.

Each opcode has an :class:`InstructionSpec` describing its operand signature,
its semantic category and which register operands it reads/writes.  The error
model and the fault-injection campaigns use this metadata to decide where
errors can be injected ("only the registers used by the instruction",
Section 6.2 optimisation) and how decode errors can transform an instruction
(Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Tuple, Union


#: Number of general-purpose registers in the machine model.
NUM_REGISTERS = 32

#: Register conventionally hard-wired to zero.
ZERO_REGISTER = 0

#: Register used by ``jal`` to store the return address (MIPS ``$ra``).
RETURN_ADDRESS_REGISTER = 31

#: Register used by convention as the stack pointer by the minic compiler.
STACK_POINTER_REGISTER = 29


class Category(Enum):
    """Semantic category of an instruction (used by the error model)."""

    ARITHMETIC = "arithmetic"
    COMPARE = "compare"
    MOVE = "move"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    CALL = "call"
    JUMP_REGISTER = "jump_register"
    IO_READ = "io_read"
    IO_WRITE = "io_write"
    CHECK = "check"
    SPECIAL = "special"


class OperandKind(Enum):
    """Kind of a single instruction operand."""

    REGISTER = "reg"
    IMMEDIATE = "imm"
    LABEL = "label"
    STRING = "str"


@dataclass(frozen=True)
class InstructionSpec:
    """Static description of one opcode.

    Attributes:
        opcode: mnemonic string.
        signature: operand kinds, in order.
        category: semantic category.
        reads: indices (into the operand tuple) of register operands that are
            read by the instruction.
        writes: indices of register operands that are written.
        implicit_writes: architectural registers written that do not appear
            as operands (for example ``$31`` for ``jal``).
    """

    opcode: str
    signature: Tuple[OperandKind, ...]
    category: Category
    reads: Tuple[int, ...] = ()
    writes: Tuple[int, ...] = ()
    implicit_writes: Tuple[int, ...] = ()


Operand = Union[int, str]


def _spec(opcode: str, sig: str, category: Category, reads=(), writes=(),
          implicit_writes=()) -> InstructionSpec:
    kinds = {
        "r": OperandKind.REGISTER,
        "i": OperandKind.IMMEDIATE,
        "l": OperandKind.LABEL,
        "s": OperandKind.STRING,
    }
    signature = tuple(kinds[c] for c in sig)
    return InstructionSpec(opcode, signature, category, tuple(reads), tuple(writes),
                           tuple(implicit_writes))


#: Three-register arithmetic opcodes and the binary operator they denote.
ARITHMETIC_RRR = ("add", "sub", "mult", "div", "mod", "and", "or", "xor")

#: Register-register-immediate arithmetic opcodes.
ARITHMETIC_RRI = ("addi", "subi", "multi", "divi", "modi", "ori", "andi",
                  "xori", "slli", "srli")

#: Shifts by an immediate count, which must not be negative.
SHIFT_IMMEDIATES = ("slli", "srli")

#: Comparison setters (register-register-register form).
COMPARE_RRR = ("seteq", "setne", "setgt", "setlt", "setge", "setle")

#: Comparison setters (immediate form).
COMPARE_RRI = ("seteqi", "setnei", "setgti", "setlti", "setgei", "setlei")

_COMPARE_BASE_OPCODES = frozenset(COMPARE_RRR)


def compare_base_opcode(opcode: str) -> str:
    """Strip the immediate suffix from a comparison-setter mnemonic.

    ``seteqi`` -> ``seteq``, ``setlt`` -> ``setlt``.  The single place where
    the immediate/register spelling of a comparison is normalised — shared by
    the symbolic and the concrete interpreter so the two cannot drift.
    """
    if opcode.endswith("i") and opcode not in _COMPARE_BASE_OPCODES:
        return opcode[:-1]
    return opcode


def _build_instruction_table() -> Dict[str, InstructionSpec]:
    table: Dict[str, InstructionSpec] = {}

    for op in ARITHMETIC_RRR:
        table[op] = _spec(op, "rrr", Category.ARITHMETIC, reads=(1, 2), writes=(0,))
    for op in ARITHMETIC_RRI:
        table[op] = _spec(op, "rri", Category.ARITHMETIC, reads=(1,), writes=(0,))
    for op in COMPARE_RRR:
        table[op] = _spec(op, "rrr", Category.COMPARE, reads=(1, 2), writes=(0,))
    for op in COMPARE_RRI:
        table[op] = _spec(op, "rri", Category.COMPARE, reads=(1,), writes=(0,))

    table["mov"] = _spec("mov", "rr", Category.MOVE, reads=(1,), writes=(0,))
    table["li"] = _spec("li", "ri", Category.MOVE, writes=(0,))

    table["ldi"] = _spec("ldi", "rri", Category.LOAD, reads=(1,), writes=(0,))
    table["sti"] = _spec("sti", "rri", Category.STORE, reads=(0, 1))

    table["beq"] = _spec("beq", "ril", Category.BRANCH, reads=(0,))
    table["bne"] = _spec("bne", "ril", Category.BRANCH, reads=(0,))
    table["jmp"] = _spec("jmp", "l", Category.JUMP)
    table["jal"] = _spec("jal", "l", Category.CALL,
                         implicit_writes=(RETURN_ADDRESS_REGISTER,))
    table["jr"] = _spec("jr", "r", Category.JUMP_REGISTER, reads=(0,))

    table["read"] = _spec("read", "r", Category.IO_READ, writes=(0,))
    table["print"] = _spec("print", "r", Category.IO_WRITE, reads=(0,))
    table["prints"] = _spec("prints", "s", Category.IO_WRITE)

    table["check"] = _spec("check", "i", Category.CHECK)
    table["halt"] = _spec("halt", "", Category.SPECIAL)
    table["nop"] = _spec("nop", "", Category.SPECIAL)
    table["throw"] = _spec("throw", "s", Category.SPECIAL)
    return table


#: Mapping opcode -> specification for every instruction in the ISA.
INSTRUCTION_SET: Dict[str, InstructionSpec] = _build_instruction_table()


class InvalidInstructionError(ValueError):
    """Raised when an instruction is malformed with respect to the ISA."""


@dataclass(frozen=True)
class Instruction:
    """A single decoded instruction.

    Operands are stored positionally; their interpretation is given by the
    opcode's :class:`InstructionSpec`.  Register operands are integers in
    ``[0, NUM_REGISTERS)``, immediates are Python ints, label and string
    operands are ``str``.
    """

    opcode: str
    operands: Tuple[Operand, ...] = ()

    @property
    def spec(self) -> InstructionSpec:
        return INSTRUCTION_SET[self.opcode]

    def validate(self) -> None:
        """Check the instruction against the ISA, raising on malformation."""
        spec = INSTRUCTION_SET.get(self.opcode)
        if spec is None:
            raise InvalidInstructionError(f"unknown opcode {self.opcode!r}")
        if len(self.operands) != len(spec.signature):
            raise InvalidInstructionError(
                f"{self.opcode} expects {len(spec.signature)} operands, "
                f"got {len(self.operands)}")
        for operand, kind in zip(self.operands, spec.signature):
            if kind is OperandKind.REGISTER:
                if not isinstance(operand, int) or not (0 <= operand < NUM_REGISTERS):
                    raise InvalidInstructionError(
                        f"{self.opcode}: bad register operand {operand!r}")
            elif kind is OperandKind.IMMEDIATE:
                if not isinstance(operand, int):
                    raise InvalidInstructionError(
                        f"{self.opcode}: bad immediate operand {operand!r}")
                if self.opcode in SHIFT_IMMEDIATES and operand < 0:
                    raise InvalidInstructionError(
                        f"{self.opcode}: negative shift count {operand}")
            else:
                if not isinstance(operand, str):
                    raise InvalidInstructionError(
                        f"{self.opcode}: bad {kind.value} operand {operand!r}")

    def registers_read(self) -> Tuple[int, ...]:
        """Registers whose values this instruction reads."""
        return tuple(self.operands[i] for i in self.spec.reads)

    def registers_written(self) -> Tuple[int, ...]:
        """Registers this instruction writes (explicit and implicit)."""
        explicit = tuple(self.operands[i] for i in self.spec.writes)
        return explicit + self.spec.implicit_writes

    def registers_used(self) -> Tuple[int, ...]:
        """All registers referenced by the instruction (deduplicated, ordered)."""
        seen = []
        for reg in self.registers_read() + self.registers_written():
            if reg not in seen:
                seen.append(reg)
        return tuple(seen)

    @property
    def category(self) -> Category:
        return self.spec.category

    def render(self) -> str:
        """Render the instruction back to assembly text."""
        parts = [self.opcode]
        for operand, kind in zip(self.operands, self.spec.signature):
            if kind is OperandKind.REGISTER:
                parts.append(f"${operand}")
            elif kind is OperandKind.IMMEDIATE:
                parts.append(f"#{operand}")
            elif kind is OperandKind.STRING:
                parts.append('"' + str(operand).replace('"', '\\"') + '"')
            else:
                parts.append(str(operand))
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()


def make(opcode: str, *operands: Operand) -> Instruction:
    """Build and validate an :class:`Instruction`."""
    instruction = Instruction(opcode, tuple(operands))
    instruction.validate()
    return instruction


def is_control_transfer(instruction: Instruction) -> bool:
    """True for branches, jumps, calls and register jumps."""
    return instruction.category in (Category.BRANCH, Category.JUMP,
                                    Category.CALL, Category.JUMP_REGISTER)


def writes_memory(instruction: Instruction) -> bool:
    return instruction.category is Category.STORE


def reads_memory(instruction: Instruction) -> bool:
    return instruction.category is Category.LOAD
