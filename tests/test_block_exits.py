"""Block-exit oracle: a superblock leaves the state single-stepping leaves.

Superblocks hold registers in Python locals and write each destination
back once, at the end of the block and before every mid-block exit (an
``err`` register, an ``err`` memory cell, an illegal address, a divide by
zero, exhausted input).  For every planned block leader of a random
program, ``block_fns[pc]`` on an arbitrary machine state (``err`` in
registers and memory, any constraint map, a short or spent input tape,
deep or shallow copy-on-write overlays) must match ``block_lens[pc]``
single-instruction ``concrete_ops`` on a copy: the state summary, the
constraint map, the err census and the raised
``SymbolicValueEncountered`` message, if any.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, example, given, settings

from repro.isa.instructions import make
from repro.isa.program import Program
from repro.isa.values import ERR
from repro.machine import decoded_program
from repro.machine.exceptions import SymbolicValueEncountered
from repro.machine.state import (initial_state, recompute_incremental_state,
                                 state_contains_err)
from strategies import _DETECTORS, _machine_state, _program, _state_summary


def _outcome(state, run):
    try:
        run(state)
        raised = None
    except SymbolicValueEncountered as exc:
        raised = str(exc)
    return (raised, _state_summary(state), state.constraints,
            state._err_count, state_contains_err(state),
            tuple(state.registers), dict(state.memory),
            recompute_incremental_state(state)
            == (state._loc_hash, state._out_hash, state._err_count))


def _single_steps(ops, length):
    """Up to *length* ops from the state's pc, stopping where one exits."""
    def run(state):
        for _ in range(length):
            pc = state.pc
            ops[pc](state, _DETECTORS)
            if state.pc != pc + 1:
                return  # a throw leaves the pc on the faulting instruction
    return run


def _check_every_block(program, state):
    decoded = decoded_program(program)
    leaders = [pc for pc, fn in enumerate(decoded.block_fns)
               if fn is not None]
    for pc in leaders:
        fused = state.copy()
        fused.pc = pc
        stepped = state.copy()
        stepped.pc = pc
        expected = _outcome(stepped, _single_steps(decoded.concrete_ops,
                                                   decoded.block_lens[pc]))
        assert _outcome(fused, decoded.block_fns[pc]) == expected, pc
    return leaders


def _fixed(*instructions):
    return Program(code=instructions + (make("halt"),), labels={},
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


def test_exit_states_are_those_single_stepping_leaves():
    """Pins one exit against numbers, not only against the ops."""
    program = _fixed(make("li", 1, 4), make("addi", 1, 1, 1),
                     make("ldi", 2, 1, 0), make("print", 2))
    state = _state(memory={5: ERR})
    state.steps = 10
    with pytest.raises(SymbolicValueEncountered, match="^memory 5 is err$"):
        decoded_program(program).block_fns[0](state)
    assert (state.pc, state.steps) == (2, 13)
    assert state.read_register(1) == 5
    assert state.read_register(2) == 0
