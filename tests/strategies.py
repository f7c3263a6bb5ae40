"""Random programs and machine states shared by the differential suites.

Hypothesis strategies for small valid programs over the whole instruction
set (loops, calls, I/O, ``check`` sites, throws) and for machine inputs
with ``err`` values in registers and memory, plus the helpers that build a
state from those inputs and summarise one for comparison.  Used by the
decode-equivalence suite and by the cycle-cut oracle.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.detectors import DetectorSet
from repro.isa.instructions import INSTRUCTION_SET, make
from repro.isa.program import Program
from repro.isa.values import ERR
from repro.machine.state import initial_state

# Small pools keep the generated programs interacting: loops form, registers
# get read after being written, memory addresses collide.
_REGS = st.integers(0, 5)
_IMMS = st.integers(-4, 7)
_ADDRS = st.integers(0, 7)

_ARITH = ("add", "sub", "mult", "div", "mod", "addi", "subi", "multi",
          "divi", "modi", "ori", "andi", "xori")
_COMPARE = ("seteq", "setne", "setgt", "setlt", "setge", "setle",
            "seteqi", "setnei", "setgti", "setlti", "setgei", "setlei")

#: The detector every generated ``check 1`` runs: it reads two registers
#: and a memory cell, so an ``err`` in any of them makes its outcome fork.
_DETECTORS = DetectorSet.parse("det(1, $(2), >=, ($(3)) + *(4))")


def _label_for(target: int) -> str:
    return f"L{target}"


@st.composite
def _instruction(draw, n_labels: int):
    """One random valid instruction (labels resolved against L0..L{n-1})."""
    kind = draw(st.sampled_from(
        ("arith", "compare", "mov", "li", "ldi", "sti", "branch", "jmp",
         "jal", "jr", "read", "print", "prints", "nop", "check", "throw")))
    label = _label_for(draw(st.integers(0, n_labels - 1)))
    if kind == "arith":
        opcode = draw(st.sampled_from(_ARITH))
    elif kind == "compare":
        opcode = draw(st.sampled_from(_COMPARE))
    else:
        opcode = kind
    if kind in ("arith", "compare"):
        sig = INSTRUCTION_SET[opcode].signature
        third = draw(_IMMS) if sig[2].value == "imm" else draw(_REGS)
        return make(opcode, draw(_REGS), draw(_REGS), third)
    if kind == "mov":
        return make("mov", draw(_REGS), draw(_REGS))
    if kind == "li":
        return make("li", draw(_REGS), draw(_IMMS))
    if kind in ("ldi", "sti"):
        return make(kind, draw(_REGS), draw(_REGS), draw(_ADDRS))
    if kind == "branch":
        return make(draw(st.sampled_from(("beq", "bne"))), draw(_REGS),
                    draw(_IMMS), label)
    if kind in ("jmp", "jal"):
        return make(kind, label)
    if kind == "jr":
        return make("jr", draw(_REGS))
    if kind == "read":
        return make("read", draw(_REGS))
    if kind == "print":
        return make("print", draw(_REGS))
    if kind == "prints":
        return make("prints", "x")
    if kind == "check":
        return make("check", 1)
    if kind == "throw":
        return make("throw", "boom")
    return make("nop")


@st.composite
def _program(draw):
    """A random valid program, halt-terminated, every address labelled."""
    length = draw(st.integers(1, 12))
    n_labels = length + 1  # labels may also point at the final halt
    body = [draw(_instruction(n_labels)) for _ in range(length)]
    body.append(make("halt"))
    labels = {_label_for(address): address for address in range(n_labels)}
    return Program(code=tuple(body), labels=labels, name="random")


@st.composite
def _machine_inputs(draw):
    """Input tape, initial memory and (possibly erroneous) register writes."""
    input_values = draw(st.lists(st.integers(-3, 9), max_size=4))
    memory = {address: draw(st.one_of(st.just(ERR), st.integers(-3, 9)))
              for address in draw(st.lists(_ADDRS, max_size=4,
                                           unique=True))}
    corruptions = draw(st.lists(
        st.tuples(st.integers(1, 5),
                  st.one_of(st.just(ERR), st.integers(-3, 9))),
        max_size=2))
    return input_values, memory, corruptions


def _fresh_state(inputs):
    input_values, memory, corruptions = inputs
    state = initial_state(input_values=input_values, memory=dict(memory))
    for register, value in corruptions:
        state.write_register(register, value)
    return state


def _state_summary(state):
    return (state.pc, state.steps, state.status, state.exception,
            state.input_pos, state.output_values(), state.fingerprint(),
            state.forks, state.constraints)
