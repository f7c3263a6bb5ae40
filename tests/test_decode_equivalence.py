"""Property tests: the pre-decoded dispatch path is observably identical
to the legacy string-dispatch path.

Random (valid, halt-terminated) programs with ``check`` sites against a
one-detector set, and random machine states — including ``err`` values in
registers and in initial memory cells — are run through both interpreters:

* symbolic: ``Executor`` with ``legacy_dispatch=True`` versus the default
  pre-decoded dispatch tables, both through ``step`` and through
  ``advance`` on a copy of each state, compared successor-by-successor
  (state fingerprints, step and fork counters, constraint maps and recorded
  trace text) to a bounded depth.  The decoded legs run every instruction
  that reads no ``err`` through its concrete op, so this is also the oracle
  that the concrete ops and the legacy symbolic handlers agree;
* concrete: ``run_concrete_legacy`` versus the superblock-fused
  ``run_concrete``, compared on the final state (or on the raised
  ``SymbolicValueEncountered``, which must carry the identical message and
  leave the state in the identical position).

The legacy handlers are kept under the test-only
``ExecutionConfig(legacy_dispatch=True)`` flag precisely so this suite can
keep proving the two paths never drift.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.detectors import DetectorSet
from repro.isa.instructions import (Category, INSTRUCTION_SET, _spec, make)
from repro.isa.program import Program
from repro.isa.values import ERR
from repro.machine import (ExecutionConfig, Executor, MachineModelError,
                           clear_decode_cache, concrete_step,
                           concrete_step_legacy, run_concrete,
                           run_concrete_legacy)
from repro.machine.exceptions import SymbolicValueEncountered
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


def _run_symbolic(program, inputs, mode: str, max_states: int = 60):
    """Breadth-first successor expansion; returns comparable summaries.

    *mode* is ``"legacy"`` (string dispatch), ``"step"`` (decoded) or
    ``"advance"`` (decoded, each state advanced as a private copy).
    """
    executor = Executor(program, _DETECTORS, ExecutionConfig(
        max_steps=48, record_trace=True, legacy_dispatch=mode == "legacy"))

    def expand(state):
        if mode == "advance":
            return executor.advance(state.copy())
        return executor.step(state)

    frontier = deque([_fresh_state(inputs)])
    explored = []
    while frontier and len(explored) < max_states:
        state = frontier.popleft()
        if not state.is_running:
            explored.append((_state_summary(state), None))
            continue
        successors = expand(state)
        texts = tuple(entry.text for successor in successors
                      for entry in (successor.trace or ())[-1:])
        explored.append((_state_summary(state), texts))
        frontier.extend(successors)
    return explored


def _fixed(*instructions):
    return Program(code=instructions + (make("halt"),), labels={},
                   name="fixed")


@settings(max_examples=60, deadline=None)
@given(program=_program(), inputs=_machine_inputs())
# A load of an err cell through a concrete base: the concrete op raises
# after counting the step, and both decoded legs fall back to the handler.
@example(program=_fixed(make("ldi", 1, 0, 3), make("print", 1)),
         inputs=([], {3: ERR}, []))
# A check whose detector reads err forks; throw then ends one branch.
@example(program=_fixed(make("check", 1), make("throw", "boom")),
         inputs=([], {}, [(2, ERR)]))
def test_symbolic_successors_identical(program, inputs):
    """Legacy dispatch, decoded ``step`` and ``advance`` produce identical
    successor trees."""
    legacy = _run_symbolic(program, inputs, "legacy")
    assert _run_symbolic(program, inputs, "step") == legacy
    assert _run_symbolic(program, inputs, "advance") == legacy


def _run_concrete_path(program, inputs, runner):
    state = _fresh_state(inputs)
    try:
        runner(program, state, _DETECTORS, max_steps=48)
        raised = None
    except SymbolicValueEncountered as exc:
        raised = str(exc)
    return _state_summary(state), raised


@settings(max_examples=60, deadline=None)
@given(program=_program(), inputs=_machine_inputs())
def test_concrete_runs_identical(program, inputs):
    """``run_concrete`` (superblocks) matches ``run_concrete_legacy``.

    On states carrying ``err`` both must raise ``SymbolicValueEncountered``
    with the identical message, leaving the state at the identical point.
    """
    legacy = _run_concrete_path(program, inputs, run_concrete_legacy)
    decoded = _run_concrete_path(program, inputs, run_concrete)
    assert legacy == decoded


@settings(max_examples=40, deadline=None)
@given(program=_program(), inputs=_machine_inputs())
def test_concrete_single_steps_identical(program, inputs):
    """Single-stepping (no superblocks) agrees instruction by instruction."""
    lhs = _fresh_state(inputs)
    rhs = _fresh_state(inputs)
    for _ in range(48):
        if not lhs.is_running:
            break
        try:
            concrete_step_legacy(program, lhs, _DETECTORS)
            lhs_raise = None
        except SymbolicValueEncountered as exc:
            lhs_raise = str(exc)
        try:
            concrete_step(program, rhs, _DETECTORS)
            rhs_raise = None
        except SymbolicValueEncountered as exc:
            rhs_raise = str(exc)
        assert lhs_raise == rhs_raise
        assert _state_summary(lhs) == _state_summary(rhs)
        if lhs_raise is not None:
            break


# --------------------------------------------------- unhandled special opcodes

@pytest.fixture
def mystery_opcode():
    """Temporarily register a SPECIAL opcode no interpreter implements."""
    INSTRUCTION_SET["mystery"] = _spec("mystery", "", Category.SPECIAL)
    try:
        yield "mystery"
    finally:
        del INSTRUCTION_SET["mystery"]
        clear_decode_cache()


def _mystery_program():
    return Program(code=(make("nop"), make("mystery")),
                   source_lines={1: "mystery  -- opaque"}, name="mystery")


def test_unhandled_special_message_symbolic(mystery_opcode):
    """The symbolic paths name the pc and source line of the bad opcode."""
    program = _mystery_program()
    for legacy in (False, True):
        clear_decode_cache()
        executor = Executor(program, config=ExecutionConfig(
            legacy_dispatch=legacy))
        [state] = executor.step(initial_state())
        with pytest.raises(MachineModelError) as excinfo:
            executor.step(state)
        message = str(excinfo.value)
        assert "unhandled special opcode mystery" in message
        assert "at pc 1" in message
        assert "mystery  -- opaque" in message


def test_unhandled_special_message_concrete(mystery_opcode):
    """The concrete twins raise the same pc-and-source-bearing message."""
    program = _mystery_program()
    for stepper in (concrete_step, concrete_step_legacy):
        clear_decode_cache()
        state = initial_state()
        stepper(program, state)
        with pytest.raises(MachineModelError) as excinfo:
            stepper(program, state)
        message = str(excinfo.value)
        assert "unhandled special opcode mystery" in message
        assert "at pc 1" in message
        assert "mystery  -- opaque" in message
