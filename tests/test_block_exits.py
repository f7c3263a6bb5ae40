"""Generated-code oracle: every op and superblock leaves the state
``reference_step`` leaves.

One emitter renders both the single-instruction ops (``concrete_ops``) and
the superblocks (``block_fns``).  A range holds its registers in Python
locals and writes each destination back once, at its end and before every
mid-range exit (an ``err`` register, an ``err`` memory cell, an illegal
address, a divide by zero, exhausted input), and its code is
position-independent: each exit moves the pc by an offset from the range's
start.  So both tables are checked against the string-dispatch reference
interpreter, not against each other.  For a random program and an
arbitrary machine state (``err`` in registers and memory, any constraint
map, a short or spent input tape, deep or shallow copy-on-write overlays),
``concrete_ops[pc]`` at every pc must match one ``reference_step``, and
``block_fns[pc]`` at every planned leader must match ``block_lens[pc]`` of
them on a copy: the state summary, the constraint map, the err census, the
registers, the memory, the recomputed hashes and the raised message, if
any.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, example, given, settings

from repro.isa.instructions import make
from repro.isa.program import Program
from repro.isa.values import ERR
from repro.machine import decoded_program
from repro.machine.exceptions import (MachineModelError,
                                      SymbolicValueEncountered)
from repro.machine.state import (initial_state, recompute_incremental_state,
                                 state_contains_err)
from reference_interpreter import reference_step
from strategies import _DETECTORS, _machine_state, _program, _state_summary


def _outcome(state, run):
    try:
        run(state)
        raised = None
    except (SymbolicValueEncountered, MachineModelError) as exc:
        raised = (type(exc).__name__, str(exc))
    return (raised, _state_summary(state), state.constraints,
            state._err_count, state_contains_err(state),
            tuple(state.registers), dict(state.memory),
            recompute_incremental_state(state)
            == (state._loc_hash, state._out_hash, state._err_count))


def _reference_steps(program, length):
    """Up to *length* reference steps from the state's pc, stopping where
    one exits."""
    def run(state):
        for _ in range(length):
            pc = state.pc
            reference_step(program, state, _DETECTORS)
            if state.pc != pc + 1:
                return  # a throw leaves the pc on the faulting instruction
    return run


def _check(program, state, runs):
    """Each ``pc -> (length, run)`` of *runs*: *run* from *pc* leaves what
    *length* reference steps from *pc* leave."""
    for pc, (length, run) in runs.items():
        generated = state.copy()
        generated.pc = pc
        stepped = state.copy()
        stepped.pc = pc
        expected = _outcome(stepped, _reference_steps(program, length))
        assert _outcome(generated, run) == expected, pc
    return list(runs)


def _check_every_op(program, state):
    ops = decoded_program(program).concrete_ops
    return _check(program, state, {
        pc: (1, lambda s, pc=pc: ops[pc](s, _DETECTORS))
        for pc in range(len(ops))})


def _check_every_block(program, state):
    decoded = decoded_program(program)
    blocks = decoded.block_fns
    return _check(program, state, {
        pc: (decoded.block_lens[pc], lambda s, pc=pc: blocks[pc](s))
        for pc, fn in enumerate(blocks) if fn is not None})


def _fixed(*instructions, labels=None):
    return Program(code=instructions + (make("halt"),), labels=labels or {},
                   name="fixed")


def _state(registers=(), memory=None, inputs=()):
    state = initial_state(input_values=inputs, memory=memory or {})
    for number, value in registers:
        state.write_register(number, value)
    return state


@settings(max_examples=200, deadline=None)
@given(program=_program(), state=_machine_state())
def test_every_block_exit_matches_single_stepping(program, state):
    _check_every_block(program, state)


@settings(max_examples=200, deadline=None)
@given(program=_program(), state=_machine_state())
def test_every_op_matches_reference_step(program, state):
    _check_every_op(program, state)


# Each mid-block exit kind, with registers already written in the block
# that must be written back before the exit takes effect.
@example(program=_fixed(make("li", 1, 4), make("add", 2, 1, 3),
                        make("print", 2)),
         state=_state(registers=[(3, ERR)]))
@example(program=_fixed(make("li", 1, 4), make("ldi", 2, 1, 0),
                        make("print", 2)),
         state=_state(memory={4: ERR}))
@example(program=_fixed(make("li", 1, 4), make("ldi", 2, 1, 0),
                        make("print", 2)),
         state=_state(memory={5: 1}))
@example(program=_fixed(make("li", 1, 4), make("div", 2, 1, 3),
                        make("print", 2)),
         state=_state())
@example(program=_fixed(make("li", 1, 4), make("divi", 2, 1, 0),
                        make("li", 3, 1)),
         state=_state())
@example(program=_fixed(make("li", 1, 4), make("modi", 2, 1, 0),
                        make("li", 3, 1)),
         state=_state())
@example(program=_fixed(make("li", 1, 4), make("read", 2),
                        make("print", 2)),
         state=_state())
# ``read $0`` consumes an input even though the write is discarded.
@example(program=_fixed(make("read", 0), make("read", 1), make("print", 1)),
         state=_state(inputs=(7, 8)))
@settings(phases=[Phase.explicit], deadline=None)
@given(program=_program(), state=_machine_state())
def test_each_exit_kind_writes_back_first(program, state):
    assert _check_every_block(program, state) == [0]
    _check_every_op(program, state)


# Ops that end a range, where a position-independent body is easy to get
# wrong: ``jr $0`` reads the constant 0, not a register local, and a
# branch to itself must still count its step, at pc 0 and past it.
@example(program=_fixed(make("jr", 0)), state=_state())
@example(program=_fixed(make("nop"), make("jr", 0)), state=_state())
@example(program=_fixed(make("beq", 0, 0, "L0"), labels={"L0": 0}),
         state=_state())
@example(program=_fixed(make("nop"), make("beq", 0, 0, "L1"),
                        labels={"L1": 1}),
         state=_state())
@example(program=_fixed(make("li", 1, 3), make("bne", 1, 3, "L0"),
                        labels={"L0": 0}),
         state=_state())
@example(program=_fixed(make("nop"), make("jal", "L0"), labels={"L0": 0}),
         state=_state())
@example(program=_fixed(make("li", 1, 2), make("jr", 1)),
         state=_state(registers=[(1, 9)]))
# Equal ops at different pcs share their compiled code.
@example(program=_fixed(make("jal", "L1"), make("jal", "L1"),
                        make("beq", 0, 0, "L1"), make("beq", 0, 0, "L1"),
                        labels={"L1": 1}),
         state=_state())
@settings(phases=[Phase.explicit], deadline=None)
@given(program=_program(), state=_machine_state())
def test_range_ending_ops(program, state):
    assert _check_every_op(program, state) == list(range(len(program)))


def test_exit_states_are_those_single_stepping_leaves():
    """Pins one exit against numbers, not only against the reference."""
    program = _fixed(make("li", 1, 4), make("addi", 1, 1, 1),
                     make("ldi", 2, 1, 0), make("print", 2))
    state = _state(memory={5: ERR})
    state.steps = 10
    with pytest.raises(SymbolicValueEncountered, match="^memory 5 is err$"):
        decoded_program(program).block_fns[0](state)
    assert (state.pc, state.steps) == (2, 13)
    assert state.read_register(1) == 5
    assert state.read_register(2) == 0
