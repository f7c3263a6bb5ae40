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

from repro.isa.instructions import (Category, INSTRUCTION_SET, _spec, make)
from repro.isa.program import Program
from repro.isa.values import ERR
from repro.machine import (ExecutionConfig, Executor, MachineModelError,
                           clear_decode_cache, concrete_step,
                           concrete_step_legacy, run_concrete,
                           run_concrete_legacy)
from repro.machine.exceptions import SymbolicValueEncountered
from repro.machine.state import initial_state
from strategies import (_DETECTORS, _fresh_state, _machine_inputs, _program,
                        _state_summary)

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
