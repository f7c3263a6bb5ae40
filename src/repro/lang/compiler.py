"""Compiler facade: minic source text -> :class:`CompiledProgram`."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .codegen import CodeGenerator, CompiledProgram
from .parser import parse_source


def compile_source(source: str, name: str = "minic",
                   entry_function: str = "main",
                   isa: Optional[str] = None) -> CompiledProgram:
    """Compile minic *source* into a SymPLFIED program plus its data segment.

    *isa* retargets the compiled program through a registered
    :class:`~repro.isa.registry.IsaFrontend` (``"mips"``, ``"rv32im"``, ...):
    the program is emitted as that ISA's assembly and translated back, so its
    provenance (source lines) is that ISA's while the instruction sequence,
    labels and function map stay identical — every minic workload compiles
    for every registered ISA.

    Raises :class:`~repro.lang.lexer.LexerError`,
    :class:`~repro.lang.parser.ParseError` or
    :class:`~repro.lang.codegen.CompileError` on invalid input, and
    :class:`ValueError` for an unknown *isa*.
    """
    unit = parse_source(source)
    generator = CodeGenerator(unit, name=name, entry_function=entry_function)
    compiled = generator.compile()
    compiled.source = source
    if isa is not None:
        from ..isa.registry import get_frontend

        frontend = get_frontend(isa)
        compiled = replace(compiled, program=frontend.retarget(compiled.program),
                           isa=frontend.name)
    return compiled
