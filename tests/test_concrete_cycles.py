"""Cycle cuts: a hung err-free run ends as soon as it closes a cycle.

``run_concrete`` keeps one saved block-entry key (Brent's algorithm, saved
again at every power-of-two block count). When the run returns to a state
equal to an earlier one at that key in everything but the step count, it
adds the whole periods that fit in the budget to the step count and lets
the watchdog fire after the last partial period. The differential oracle
below demands the state the uncut single-stepping interpreter reaches,
field for field, on random programs under random budgets; the hand-written
loops pin what must not be cut (state that never repeats, a moving output
or input position) and what must (periods aligned with blocks or not,
every remainder of the budget), and the layers around the cut: concrete
futures and the golden build's checkpoints.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.detectors import EMPTY_DETECTORS
from repro.isa.parser import assemble
from repro.machine import (ConcreteFutures, Status, concrete_step,
                           initial_state, run_concrete, run_concrete_legacy,
                           run_concrete_until)
from repro.machine.exceptions import SymbolicValueEncountered
from repro.machine.state import recompute_incremental_state
from strategies import (_DETECTORS, _fresh_state, _machine_inputs, _program,
                        _state_summary)


def _counting(fn):
    """Run *fn* under an enabled telemetry hub; return (result, counters)."""
    previous = obs.get()
    hub = obs.set_hub(obs.Telemetry())
    try:
        result = fn()
    finally:
        obs.set_hub(previous)
    return result, hub.counters


def _summary(state):
    return (_state_summary(state), state.detector_id,
            recompute_incremental_state(state),
            (state._loc_hash, state._out_hash, state._err_count))


def _run(runner, program, state, detectors, max_steps):
    """Run *state* in place; return its summary and any raised message."""
    try:
        runner(program, state, detectors, max_steps=max_steps)
        raised = None
    except SymbolicValueEncountered as exc:
        raised = str(exc)
    return _summary(state), raised


def _cut_and_uncut(program, state, max_steps, detectors=EMPTY_DETECTORS):
    """(cut run, uncut run, counters of the cut run) from copies of *state*."""
    uncut = _run(run_concrete_legacy, program, state.copy(), detectors,
                 max_steps)
    cut, counters = _counting(lambda: _run(
        run_concrete, program, state.copy(), detectors, max_steps))
    return cut, uncut, counters


# ------------------------------------------------- the differential oracle


def test_cut_runs_match_uncut_runs():
    """Random programs under random budgets: the cut run ends where the
    uncut one does (or raises the identical message there), and the draw
    includes runs that are cut."""
    cut_runs = []

    @settings(max_examples=500, deadline=None)
    @given(program=_program(), inputs=_machine_inputs(),
           max_steps=st.integers(1, 3_000))
    def check(program, inputs, max_steps):
        cut, uncut, counters = _cut_and_uncut(
            program, _fresh_state(inputs), max_steps, _DETECTORS)
        assert cut == uncut
        if counters.get("interp.cycles"):
            cut_runs.append(max_steps)

    check()
    assert cut_runs


# ------------------------------------------- loops that must not be cut

#: Each runs forever, but no block-entry state ever repeats.
UNCUT = {
    "counter": ("""
        li $1 0
loop:   addi $1 $1 #1
        jmp loop
        halt
""", ()),
    "prints": ("""
        li $1 5
loop:   print $1
        jmp loop
        halt
""", ()),
    # Every read returns 5: pc, stores and output repeat, the input
    # position does not.
    "reads": ("""
loop:   read $1
        jmp loop
        halt
""", (5,) * 2_000),
}


@pytest.mark.parametrize("name", sorted(UNCUT))
def test_loops_that_never_repeat_run_to_the_watchdog(name):
    source, input_values = UNCUT[name]
    program = assemble(source)
    max_steps = 3_001
    cut, uncut, counters = _cut_and_uncut(
        program, initial_state(input_values), max_steps)
    assert cut == uncut
    summary, raised = cut
    assert raised is None
    assert summary[0][1:3] == (max_steps, Status.TIMEOUT)
    assert "interp.cycles" not in counters
    assert counters["interp.steps"] == max_steps


# ------------------------------------------------ loops that must be cut

#: Each enters an exact cycle (the period in steps in the comment).
CUT = {
    # 4 iterations of 3 steps; every period starts on a block entry.
    "aligned": """
loop:   addi $1 $1 #1
        andi $1 $1 #3
        jmp loop
        halt
""",
    # Block [0, 3) runs through the loop label: the first repeating
    # state (pc 1, $1 = 0, step 1) lies inside that superblock, so the
    # cycle is entered between block entries.  12 steps.
    "inside-a-superblock": """
        li $1 0
loop:   addi $1 $1 #1
        andi $1 $1 #3
        jmp loop
        halt
""",
    # A block, a branch, a nop the branch skips every other iteration,
    # then single ops: iterations of 7 and 6 steps alternate, 13 steps.
    "uneven-iterations": """
loop:   xori $2 $2 #1
        addi $3 $2 #4
        sti $3 $0 #9
        beq $2 0 skip
        nop
skip:   ldi $4 $0 #9
        jmp loop
        halt
""",
}


@pytest.mark.parametrize("name", sorted(CUT))
@pytest.mark.parametrize("max_steps", range(2_000, 2_014))
def test_cycles_are_cut_to_the_uncut_timeout(name, max_steps):
    """Fourteen consecutive budgets leave every remainder of a 12- or
    13-step period after the skip: zero (the skip lands exactly on
    ``max_steps``), ending on a block boundary and ending mid-block.  Each
    ends in the uncut run's state; the skipped steps are reported apart
    from the executed ones."""
    program = assemble(CUT[name])
    cut, uncut, counters = _cut_and_uncut(program, initial_state(),
                                          max_steps)
    assert cut == uncut
    summary, raised = cut
    assert raised is None
    assert summary[0][1:3] == (max_steps, Status.TIMEOUT)
    assert counters["interp.cycles"] == 1
    skipped = counters["interp.cycle_steps"]
    assert 0 < skipped < max_steps
    assert counters["interp.steps"] == max_steps - skipped


def test_cut_counts_from_the_entry_step():
    """A run entered mid-way (a search tail) reports only its own steps."""
    program = assemble(CUT["aligned"])
    state = initial_state()
    state.steps = 500
    expected = run_concrete_legacy(program, state.copy(), max_steps=5_000)
    _, counters = _counting(lambda: run_concrete(program, state,
                                                 max_steps=5_000))
    assert _summary(state) == _summary(expected)
    assert counters["interp.steps"] == \
        5_000 - 500 - counters["interp.cycle_steps"]


def test_runs_that_finish_publish_no_cycle_counters():
    program = assemble("""
        li $1 200
loop:   subi $1 $1 #1
        bne $1 0 loop
        halt
""")
    state, counters = _counting(lambda: run_concrete(
        program, initial_state(), max_steps=10_000))
    assert state.status is Status.HALTED
    assert "interp.cycles" not in counters
    assert "interp.cycle_steps" not in counters
    assert counters["interp.steps"] == state.steps


# ------------------------------------------------------ concrete futures

#: Reads n and counts it down by 2 modulo 1024: an even n halts, an odd one
#: cycles through the odd residues forever.
COUNTDOWN = """
        read $1              -- 0
loop:   subi $1 $1 #2        -- 1
        andi $1 $1 #1023     -- 2
        bne $1 0 loop        -- 3
        print $1             -- 4
        halt                 -- 5
"""

INPUT = (600,)


def test_a_hung_tail_publishes_nothing_and_later_tails_still_join():
    program = assemble(COUNTDOWN)
    layer = ConcreteFutures(program, EMPTY_DETECTORS, INPUT, 256)
    hung = run_concrete_until(program, initial_state(INPUT), stop_pc=1)
    hung.write_register(1, 7)
    expected = run_concrete_legacy(program, hung.copy(), max_steps=20_000)
    _, counters = _counting(lambda: run_concrete(
        program, hung, max_steps=20_000, futures=layer))
    assert _summary(hung) == _summary(expected)
    assert hung.status is Status.TIMEOUT
    assert counters["interp.cycles"] == 1
    assert len(layer) == 0

    first = initial_state(INPUT)
    run_concrete(program, first, max_steps=20_000, futures=layer)
    assert first.status is Status.HALTED
    assert len(layer) > 0
    second = initial_state(INPUT)
    second.steps = 11
    _, counters = _counting(lambda: run_concrete(
        program, second, max_steps=20_000, futures=layer))
    assert counters["interp.joins"] == 1
    assert "interp.cycles" not in counters
    assert second.steps == first.steps + 11
    assert second.output == first.output


# --------------------------------------------------------- the golden build


def _single_stepped(program, state, max_steps):
    """Every state a single-stepping run passes, keyed by step count, and
    the visits it pays to each pc."""
    states = {state.steps: state.copy()}
    visits = [[] for _ in range(len(program))]
    while state.is_running and state.steps < max_steps:
        visits[state.pc].append(state.steps)
        concrete_step(program, state)
        states[state.steps] = state.copy()
    return states, visits


def test_the_golden_build_records_the_whole_hung_run():
    """The golden build does not cut: its checkpoints cover the whole
    budget and answer every breakpoint as the uncut run does."""
    program = assemble(CUT["inside-a-superblock"])
    max_steps = 3_000
    golden, counters = _counting(lambda: ConcreteFutures.golden(
        program, initial_state(), max_steps=max_steps))
    checkpoints = golden.checkpoints
    assert "interp.cycles" not in counters
    assert counters["interp.steps"] == max_steps
    states, visits = _single_stepped(program, initial_state(), max_steps)
    assert checkpoints.visits == visits
    assert len(checkpoints.steps) > 10
    for steps, state in zip(checkpoints.steps, checkpoints.states):
        assert state.fingerprint() == states[steps].fingerprint()
    end = run_concrete_legacy(program, initial_state(), max_steps=max_steps)
    assert _summary(checkpoints.end) == _summary(end)
    assert len(golden) == 0
