"""minic: the small C-like language and compiler used to express workloads."""

from .lexer import LexerError, Token, tokenize
from .parser import ParseError, Parser, parse_source
from .codegen import (CompileError, CompiledProgram, CodeGenerator, EVAL_STACK_SLOTS,
                      FunctionInfo, GLOBAL_BASE, GlobalInfo, STACK_BASE)
from .compiler import compile_source
from . import nodes

__all__ = [
    "LexerError", "Token", "tokenize",
    "ParseError", "Parser", "parse_source",
    "CompileError", "CompiledProgram", "CodeGenerator", "EVAL_STACK_SLOTS",
    "FunctionInfo", "GLOBAL_BASE", "GlobalInfo", "STACK_BASE",
    "compile_source", "nodes",
]
