"""Assembler for the SymPLFIED generic assembly language.

The accepted syntax follows the paper's examples (Figures 2 and 3):

.. code-block:: text

    1  ori $2 $0 #1        -- initial product p = 1
    2  read $1             -- read i from input
    loop: setgt $5 $3 $4   -- start of loop
       beq $5 0 exit
       prints "Factorial = "
       halt

* Registers are written ``$n`` with ``0 <= n < 32``.
* Immediates may be written ``#value`` or as a bare (possibly negative)
  integer.
* Labels are identifiers followed by ``:`` and may precede an instruction on
  the same line or stand alone on their own line.
* Comments start with ``--``, ``;`` or ``//`` and run to end of line.
* Commas between operands are optional.
* Leading line numbers (as printed in the paper's figures) are ignored.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .instructions import (INSTRUCTION_SET, Instruction,
                           InvalidInstructionError, NUM_REGISTERS,
                           OperandKind)
from .program import Program, ProgramBuilder, ProgramError


class AssemblyError(ValueError):
    """Raised when assembly source cannot be parsed."""

    def __init__(self, message: str, line_number: Optional[int] = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


_COMMENT_RE = re.compile(r"--|;|//")
_LABEL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*:")
_LINE_NUMBER_RE = re.compile(r"^\s*\d+\s+")
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>"(?:[^"\\]|\\.)*")      |
        (?P<register>\$\d+)                |
        (?P<immediate>\#?-?\d+)            |
        (?P<identifier>[A-Za-z_][A-Za-z0-9_]*) |
        (?P<comma>,)
    )
    """,
    re.VERBOSE,
)


def _strip_comment(line: str) -> str:
    in_string = False
    i = 0
    while i < len(line):
        char = line[i]
        if char == '"':
            in_string = not in_string
        elif not in_string:
            if line.startswith("--", i) or line.startswith("//", i) or char == ";":
                return line[:i]
        i += 1
    return line


def _tokenize(text: str, line_number: int) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    position = 0
    while position < len(text):
        if text[position].isspace():
            position += 1
            continue
        match = _TOKEN_RE.match(text, position)
        if match is None or match.end() == position:
            raise AssemblyError(f"cannot parse {text[position:]!r}", line_number)
        position = match.end()
        for kind, value in match.groupdict().items():
            if value is not None:
                if kind != "comma":
                    tokens.append((kind, value))
                break
    return tokens


def _parse_operand(kind: OperandKind, token_kind: str, token: str,
                   opcode: str, line_number: int):
    if kind is OperandKind.REGISTER:
        if token_kind != "register":
            raise AssemblyError(
                f"{opcode}: expected a register, got {token!r}", line_number)
        register = int(token[1:])
        if not 0 <= register < NUM_REGISTERS:
            raise AssemblyError(f"{opcode}: register {token} out of range", line_number)
        return register
    if kind is OperandKind.IMMEDIATE:
        if token_kind != "immediate":
            raise AssemblyError(
                f"{opcode}: expected an immediate, got {token!r}", line_number)
        return int(token.lstrip("#"))
    if kind is OperandKind.LABEL:
        if token_kind != "identifier":
            raise AssemblyError(
                f"{opcode}: expected a label, got {token!r}", line_number)
        return token
    if kind is OperandKind.STRING:
        if token_kind != "string":
            raise AssemblyError(
                f"{opcode}: expected a string literal, got {token!r}", line_number)
        body = token[1:-1]
        return body.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")
    raise AssemblyError(f"unsupported operand kind {kind}", line_number)


def parse_instruction(text: str, line_number: int = 0) -> Instruction:
    """Parse a single instruction (without label) from *text*."""
    tokens = _tokenize(text, line_number)
    if not tokens:
        raise AssemblyError("empty instruction", line_number)
    kind, mnemonic = tokens[0]
    if kind != "identifier":
        raise AssemblyError(f"expected an opcode, got {mnemonic!r}", line_number)
    opcode = mnemonic.lower()
    spec = INSTRUCTION_SET.get(opcode)
    if spec is None:
        raise AssemblyError(f"unknown opcode {opcode!r}", line_number)
    operand_tokens = tokens[1:]
    if len(operand_tokens) != len(spec.signature):
        raise AssemblyError(
            f"{opcode} expects {len(spec.signature)} operands, "
            f"got {len(operand_tokens)}", line_number)
    operands = tuple(
        _parse_operand(kind, token_kind, token, opcode, line_number)
        for kind, (token_kind, token) in zip(spec.signature, operand_tokens))
    instruction = Instruction(opcode, operands)
    try:
        instruction.validate()
    except InvalidInstructionError as exc:
        raise AssemblyError(str(exc), line_number) from exc
    return instruction


def assemble(source: str, name: str = "program") -> Program:
    """Assemble *source* text into a :class:`Program`."""
    builder = ProgramBuilder(name=name)
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw_line)
        line = _LINE_NUMBER_RE.sub("", line)
        while True:
            label_match = _LABEL_RE.match(line)
            if label_match is None:
                break
            try:
                builder.label(label_match.group(1))
            except ProgramError as exc:
                raise AssemblyError(str(exc), line_number) from exc
            line = line[label_match.end():]
        line = line.strip()
        if not line:
            continue
        instruction = parse_instruction(line, line_number)
        builder.emit(instruction, source=raw_line.strip())
    try:
        return builder.build()
    except ProgramError as exc:
        raise AssemblyError(str(exc)) from exc


def assemble_lines(lines: List[str], name: str = "program") -> Program:
    """Convenience wrapper assembling a list of source lines."""
    return assemble("\n".join(lines), name=name)
