"""On-demand compilation of the decoded concrete ops and superblocks.

``DecodedProgram`` compiles nothing up front: every ``concrete_ops`` slot
and every planned ``block_fns`` slot holds a stub that compiles its
function on first call and replaces itself.  These tests pin down that
code which never runs is never compiled, that the first run through a stub
is observably identical to single-stepping (breakpoints inside a block,
the step-budget edge, ``SymbolicValueEncountered`` positions), that the
telemetry counters count the slots filled, that equal ranges share one
compilation, and that stubs do not keep a program alive in the decode
cache.
"""

from __future__ import annotations

import gc

import pytest

from repro import obs
from repro.isa.parser import assemble
from repro.isa.values import ERR
from repro.machine import (Status, TIMED_OUT, concrete_step, decoded_program,
                           initial_state, run_concrete, run_concrete_until)
from repro.machine import decode
from repro.machine.exceptions import SymbolicValueEncountered

#: A counted loop, a straight-line tail and a dead labelled block.
#: Planned superblocks: [0, 6), [2, 6), [7, 10) and the dead [11, 13).
SOURCE = """
        li $1 3              -- 0
        li $2 0              -- 1
loop:   add $2 $2 $1         -- 2
        addi $6 $6 1         -- 3
        mov $7 $2            -- 4
        subi $1 $1 #1        -- 5
        bne $1 0 loop        -- 6
        print $2             -- 7
        mov $4 $5            -- 8
        add $3 $2 $5         -- 9
        halt                 -- 10
dead:   li $8 1              -- 11
        li $9 2              -- 12
        halt                 -- 13
"""

TAIL_BLOCK = 7
DEAD_BLOCK = 11


def _program():
    """A fresh program object, hence a fresh (all-stub) decode."""
    return assemble(SOURCE, name="lazy")


def _summary(state):
    return (state.pc, state.steps, state.status, state.exception,
            tuple(state.registers), dict(state.memory),
            state.output_values())


def _single_step(program, state, max_steps, stop_pc=None, occurrence=1):
    """Reference: per-instruction stepping, no superblocks."""
    remaining = occurrence
    raised = None
    try:
        while state.is_running:
            if state.steps >= max_steps:
                state.time_out(TIMED_OUT)
                break
            if state.pc == stop_pc:
                remaining -= 1
                if remaining <= 0:
                    break
            concrete_step(program, state)
    except SymbolicValueEncountered as exc:
        raised = str(exc)
    return _summary(state), raised


def _run(runner, program, state, *args, **kwargs):
    """Run *runner* (superblocks and lazy stubs) and summarise the end."""
    raised = None
    try:
        runner(program, state, *args, **kwargs)
    except SymbolicValueEncountered as exc:
        raised = str(exc)
    return _summary(state), raised


def _err_state():
    """Initial state with ``$5`` = err: the tail block raises at pc 8."""
    state = initial_state()
    state.write_register(5, ERR)
    return state


def _tail_arrival_steps():
    """Steps executed when the tail block at pc 7 is first reached."""
    program = _program()
    state = initial_state()
    while state.pc != TAIL_BLOCK:
        concrete_step(program, state)
    return state.steps


def test_decode_compiles_nothing_up_front():
    decoded = decoded_program(_program())
    assert all(op.__name__ == "stub" for op in decoded.concrete_ops)
    planned = [fn for fn in decoded.block_fns if fn is not None]
    assert len(planned) == 4
    assert all(fn.__name__ == "stub" for fn in planned)


def test_unexecuted_code_is_never_compiled():
    program = _program()
    decoded = decoded_program(program)
    ops_before = list(decoded.concrete_ops)
    blocks_before = list(decoded.block_fns)
    state = run_concrete(program, initial_state(), max_steps=1_000)
    assert state.status is Status.HALTED and state.output_values() == (6,)

    compiled_ops = [pc for pc in range(decoded.length)
                    if decoded.concrete_ops[pc] is not ops_before[pc]]
    compiled_blocks = [pc for pc in range(decoded.length)
                       if decoded.block_fns[pc] is not blocks_before[pc]]
    # Only the branch and the halt are single-stepped; every other
    # executed pc runs inside a superblock.
    assert compiled_ops == [6, 10]
    assert compiled_blocks == [0, 2, TAIL_BLOCK]
    assert decoded.block_fns[DEAD_BLOCK] is blocks_before[DEAD_BLOCK]
    for pc in (11, 12, 13):
        assert decoded.concrete_ops[pc] is ops_before[pc]
    assert decoded.concrete_ops[6].__name__ == "_op6"
    assert decoded.block_fns[0].__name__ == "_blk0"


@pytest.mark.parametrize("stop_pc,occurrence", [(4, 1), (4, 2), (3, 3),
                                                (8, 1), (9, 1), (12, 1)])
def test_run_until_stop_inside_uncompiled_block(stop_pc, occurrence):
    """Breakpoints inside never-run blocks match single-stepping.

    ``$5`` holds ``err``, so the tail block raises at pc 8 unless the
    breakpoint stops execution first.
    """
    program = _program()
    decoded = decoded_program(program)
    assert decoded.block_fns[TAIL_BLOCK].__name__ == "stub"

    lazy = _run(run_concrete_until, program, _err_state(), stop_pc,
                occurrence=occurrence, max_steps=1_000)
    reference = _single_step(_program(), _err_state(), 1_000, stop_pc,
                             occurrence)
    assert lazy == reference
    if stop_pc == 12:
        assert lazy[1] == "register $5 is err"
        assert lazy[0][0] == 8


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_block_first_entered_at_step_budget_edge(offset):
    """A stub entered exactly when its block fits the budget, or one step
    short of it, yields the same state and step count as single-stepping."""
    block_len = 3
    max_steps = _tail_arrival_steps() + block_len + offset
    program = _program()
    decoded = decoded_program(program)
    stub = decoded.block_fns[TAIL_BLOCK]

    lazy = _run(run_concrete, program, initial_state(), max_steps=max_steps)
    reference = _single_step(_program(), initial_state(), max_steps)
    assert lazy == reference
    assert (decoded.block_fns[TAIL_BLOCK] is stub) == (offset < 0)
    if offset <= 0:
        assert lazy[0][1] == max_steps and lazy[0][3] == TIMED_OUT


def test_block_stub_raises_like_single_stepping_at_budget_edge():
    """The first (compiling) run of a block that hits ``err`` mid-block
    leaves the same position and message as single-stepping."""
    max_steps = _tail_arrival_steps() + 3
    lazy = _run(run_concrete, _program(), _err_state(), max_steps=max_steps)
    reference = _single_step(_program(), _err_state(), max_steps)
    assert lazy == reference
    assert lazy[1] == "register $5 is err"


def test_telemetry_counts_actual_compilations():
    """Counters match the slots actually compiled; a second run of the
    same code compiles nothing more."""
    previous = obs.get()
    hub = obs.set_hub(obs.Telemetry())
    try:
        program = _program()
        decoded = decoded_program(program)
        ops_before = list(decoded.concrete_ops)
        blocks_before = list(decoded.block_fns)
        run_concrete(program, initial_state(), max_steps=1_000)
        run_concrete(program, initial_state(), max_steps=1_000)
    finally:
        obs.set_hub(previous)
    ops = sum(a is not b for a, b in zip(decoded.concrete_ops, ops_before))
    blocks = sum(a is not b for a, b in zip(decoded.block_fns, blocks_before))
    assert (ops, blocks) == (2, 3)
    assert hub.counters["interp.programs_decoded"] == 1
    assert hub.counters["interp.ops_compiled"] == ops
    assert hub.counters["interp.superblocks_compiled"] == blocks


def test_equal_ranges_share_one_compilation(monkeypatch):
    """Generated code is position-independent: equal ranges at different
    pcs compile once and share the code, and each op still leaves its own
    pc and return address."""
    compiled = []

    def counting(source, *args):
        compiled.append(source)
        return compile(source, *args)

    monkeypatch.setattr(decode, "compile", counting, raising=False)
    program = assemble("""
        addi $1 $1 #1        -- 0
        jal fn               -- 1
        addi $1 $1 #1        -- 2
fn:     jal fn               -- 3
        halt                 -- 4
""", name="shared")
    ops = decoded_program(program).concrete_ops
    ends = []
    for pc in range(4):
        state = initial_state()
        state.pc = pc
        ops[pc](state, None)
        ends.append((state.pc, state.read_register(1),
                     state.read_register(31)))
    assert ends == [(1, 1, 0), (3, 0, 2), (3, 1, 0), (3, 0, 4)]
    assert len(compiled) == 2
    assert ops[0].__code__ is ops[2].__code__
    assert ops[1].__code__ is ops[3].__code__
    assert [op.__name__ for op in ops[:4]] == ["_op0", "_op1", "_op2", "_op3"]


def test_stubs_do_not_pin_the_program():
    """Decoding and running (so stubs fire) must leave the program
    collectable, which evicts its decode-cache entry."""
    program = _program()
    decoded = decoded_program(program)
    state = initial_state()
    state.write_register(5, 7)
    run_concrete(program, state, max_steps=1_000)
    assert any(op.__name__ != "stub" for op in decoded.concrete_ops)
    key = id(program)
    assert key in decode._CACHE
    del program
    gc.collect()
    assert key not in decode._CACHE
