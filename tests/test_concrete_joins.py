"""Concrete-future joins: an err-free run ends where it rejoins a finished one.

``run_concrete`` given a :class:`~repro.machine.executor.ConcreteFutures`
copies the terminal state of a recorded err-free run as soon as it reaches
one of that run's marks.  The differential oracle below runs whole searches
with joins and through the plain interpreter and demands identical
solutions (every field of every terminal state) and identical search
statistics, and a second one runs random programs over the golden layer
and a search layer against the string-dispatch reference interpreter; the
edge tests pin each soundness condition of the join rule: the watchdog
bound, timed-out runs, the input binding and structural fingerprint
equality.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.search as search_module
from repro import obs
from repro.detectors import EMPTY_DETECTORS
from repro.faults.models import fault_model
from repro.isa.parser import assemble
from repro.machine import (ConcreteFutures, Fingerprint, Status,
                           concrete_step, initial_state, run_concrete,
                           run_concrete_until)
from repro.machine import executor as executor_module
from repro.machine.state import recompute_incremental_state
from repro.programs import load_workload
from reference_interpreter import reference_run, reference_step
from strategies import (_DETECTORS, _GOLDEN_INPUTS, _fresh_state,
                        _open_program)

#: Reads n, sums n + (n-1) + ... + 1 in a three-instruction loop, prints
#: the sum, then reads and prints a second input.
SOURCE = """
        read $1              -- 0
        li $2 0              -- 1
loop:   add $2 $2 $1         -- 2
        subi $1 $1 #1        -- 3
        bne $1 0 loop        -- 4
        print $2             -- 5
        read $3              -- 6
        print $3             -- 7
        halt                 -- 8
"""

N = 500
INPUT = (N, 8)
OUTPUT = [N * (N + 1) // 2, 8]


def _program(halts=True):
    """The program; without its ``halt`` it runs off the end of the code,
    which terminates without executing an instruction."""
    source = SOURCE if halts else SOURCE.replace("halt", "nop")
    return assemble(source + ("" if halts else "        nop\n"), name="sum")


def _plain(program, state, max_steps=100_000):
    return run_concrete(program, state, max_steps=max_steps)


def _fields(state):
    """Everything a terminal state carries, incremental bookkeeping included."""
    return (state.pc, state.registers.as_tuple(), state.memory.to_dict(),
            state.input, state.input_pos, tuple(state.output),
            state.constraints, state.steps, state.status, state.exception,
            state.detector_id, state.trace, state.forks,
            recompute_incremental_state(state),
            (state._loc_hash, state._out_hash, state._err_count))


def _counting(fn):
    """Run *fn* under an enabled telemetry hub; return (result, counters)."""
    previous = obs.get()
    hub = obs.set_hub(obs.Telemetry())
    try:
        result = fn()
    finally:
        obs.set_hub(previous)
    return result, hub.counters


def _first_mark_steps(futures):
    return min(steps for by_hash in futures._index.values()
               for marks in by_hash.values() for _, steps, _ in marks)


def _at_step(program, steps, input_values=INPUT):
    """The run from the initial state over *input_values*, *steps* in."""
    state = initial_state(input_values)
    while state.steps < steps:
        concrete_step(program, state)
    return state


# ------------------------------------------------------------ the join rule


class TestJoinRule:
    def test_rejoining_the_golden_run_copies_its_terminal(self):
        program = _program()
        golden = ConcreteFutures.golden(program, initial_state(INPUT))
        assert len(golden) > 1
        state = run_concrete_until(program, initial_state(INPUT), stop_pc=2,
                                   occurrence=10)
        expected = _plain(program, state.copy())
        _, counters = _counting(lambda: run_concrete(
            program, state, max_steps=100_000, futures=golden))
        assert counters["interp.joins"] == 1
        assert _fields(state) == _fields(expected)
        assert state.output == OUTPUT

    @pytest.mark.parametrize("halts", [True, False],
                             ids=["halts", "runs-off-the-end"])
    @pytest.mark.parametrize("slack", [-1, 0, 1])
    def test_watchdog_bound_on_the_shifted_step_count(self, slack, halts):
        """A state equal to a golden mark matches it at any step count; the
        join is taken only when the shifted terminal lies inside the
        watchdog bound, so a run that must hang still times out exactly at
        ``max_steps``.  Running off the end of the code is checked against
        the watchdog at the terminal step count itself, so at zero slack
        that run must time out too."""
        program = _program(halts)
        golden = ConcreteFutures.golden(program, initial_state(INPUT))
        total = _plain(program, initial_state(INPUT)).steps
        mark = _first_mark_steps(golden)
        offset = 1_000
        max_steps = offset + total - mark + slack
        state = _at_step(program, mark)
        state.steps = offset
        expected = state.copy()
        _plain(program, expected, max_steps)
        _, counters = _counting(lambda: run_concrete(
            program, state, max_steps=max_steps, futures=golden))
        assert _fields(state) == _fields(expected)
        if slack < 0 or (slack == 0 and not halts):
            assert state.status is Status.TIMEOUT
            assert state.steps == max_steps
        else:
            assert state.status is (Status.HALTED if halts
                                    else Status.EXCEPTION)
        assert counters.get("interp.joins", 0) == (1 if slack > 0 else 0)

    def test_a_golden_run_that_times_out_records_nothing(self):
        program = _program()
        golden = ConcreteFutures.golden(program, initial_state(INPUT),
                                        max_steps=1_000)
        assert len(golden) == 0
        state = initial_state(INPUT)
        _, counters = _counting(lambda: run_concrete(
            program, state, max_steps=100_000, futures=golden))
        assert state.output == OUTPUT
        assert "interp.joins" not in counters

    def test_a_run_that_raises_publishes_nothing(self):
        program = assemble("""
                li $1 1
                check 9
                halt
        """)
        golden = ConcreteFutures.golden(program, initial_state())
        assert len(golden) == 0

    def test_another_input_never_joins(self):
        """Fingerprints omit the input stream: mid-loop, a run over another
        second input is indistinguishable from the golden run."""
        program = _program()
        golden = ConcreteFutures.golden(program, initial_state(INPUT))
        mark = _first_mark_steps(golden)
        other = _at_step(program, mark, (N, 9))
        assert other.fingerprint() == _at_step(program, mark).fingerprint()
        _, counters = _counting(lambda: run_concrete(
            program, other, max_steps=100_000, futures=golden))
        assert other.output == [N * (N + 1) // 2, 9]
        assert "interp.joins" not in counters

    def test_another_program_or_detector_set_never_joins(self):
        program = _program()
        golden = ConcreteFutures.golden(program, initial_state(INPUT))
        assert not golden.binds(_program(), EMPTY_DETECTORS, INPUT)
        assert not golden.binds(program, load_workload(
            "factorial_with_detectors").detectors, INPUT)
        assert golden.binds(program, EMPTY_DETECTORS, INPUT)

    @pytest.mark.parametrize("honest", [True, False])
    def test_a_forged_mark_needs_structural_equality(self, honest):
        """A mark filed under the state's pc and location hash, with the
        state's combined hash, but over different memory must not join;
        the same mark over the state's own content does."""
        program = _program()
        state = initial_state(INPUT)
        expected = _plain(program, state.copy())
        content = state if honest else initial_state(INPUT, memory={64: 1})
        forged = Fingerprint(hash(state.fingerprint()), content)
        bogus = initial_state(INPUT)
        bogus.append_output(-7)
        bogus.halt()
        bogus.steps = 3
        futures = ConcreteFutures(program, EMPTY_DETECTORS, INPUT, 256)
        futures.publish([(state.pc, state._loc_hash, forged, 0)], bogus)
        run_concrete(program, state, max_steps=100_000, futures=futures)
        if honest:
            assert (state.output, state.steps) == ([-7], 3)
        else:
            assert _fields(state) == _fields(expected)

    def test_a_finished_tail_publishes_its_marks(self):
        program = _program()
        layer = ConcreteFutures(program, EMPTY_DETECTORS, INPUT, 256)
        first = initial_state(INPUT)
        run_concrete(program, first, max_steps=100_000, futures=layer)
        assert len(layer) > 1
        second = initial_state(INPUT)
        second.steps = 7
        _, counters = _counting(lambda: run_concrete(
            program, second, max_steps=100_000, futures=layer))
        assert counters["interp.joins"] == 1
        assert second.steps == first.steps + 7
        assert second.output == first.output

    def test_a_search_layer_leaves_its_parent_alone(self):
        program = _program()
        golden = ConcreteFutures.golden(program, initial_state(INPUT))
        marks = len(golden)
        layer = ConcreteFutures(program, EMPTY_DETECTORS, INPUT, 1024,
                                parent=golden)
        assert len(layer) == marks
        # Off the golden trajectory (a different running sum): this run
        # records marks of its own and publishes them into the layer only.
        state = run_concrete_until(program, initial_state(INPUT), stop_pc=2,
                                   occurrence=3)
        state.write_register(2, 12345)
        run_concrete(program, state, max_steps=100_000, futures=layer)
        assert len(layer) > marks
        assert len(golden) == marks


# --------------------------------------------------------------- telemetry


def test_interp_steps_count_executed_steps_only():
    program = _program()
    golden = ConcreteFutures.golden(program, initial_state(INPUT))
    total = _plain(program, initial_state(INPUT)).steps
    state = run_concrete_until(program, initial_state(INPUT), stop_pc=2,
                               occurrence=10)
    entry = state.steps
    _, counters = _counting(lambda: run_concrete(
        program, state, max_steps=100_000, futures=golden))
    assert state.steps == total
    joined = counters["interp.joined_steps"]
    assert counters["interp.joins"] == 1
    assert 0 < joined < total - entry
    assert counters["interp.steps"] == total - entry - joined


def test_plain_runs_publish_no_join_counters():
    program = _program()
    _, counters = _counting(lambda: run_concrete(
        program, initial_state(INPUT), max_steps=100_000))
    assert counters["interp.steps"] == _plain(
        program, initial_state(INPUT)).steps
    assert "interp.joins" not in counters
    assert "interp.joined_steps" not in counters


# ------------------------------------------------------ the golden layer


def test_golden_layer_is_built_once_on_the_first_injection(monkeypatch):
    calls = []
    original = ConcreteFutures.golden.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(ConcreteFutures, "golden", classmethod(counting))
    campaign, query = load_workload("factorial").campaign(
        kind="any-outcome", fault_model="control")
    injections = campaign.plan_injections()
    assert len(injections) > 1 and calls == []
    for injection in injections:
        campaign.run_injection(injection, query)
    assert len(calls) == 1
    golden = campaign.golden_futures()
    assert campaign.golden_futures() is golden and len(calls) == 1


# ------------------------------------------------- the differential oracle


def _plain_tails(program, state, detectors, max_steps, futures=None):
    return executor_module.run_concrete(program, state, detectors,
                                        max_steps=max_steps)


def _burst2():
    return dataclasses.replace(fault_model("burst"), k=2)


#: (workload, fault model, sample, state cap): samples of the campaigns the
#: paper runs, plus factorial's multi-error and bit-flip models.
ORACLE_CASES = [
    ("replace", "control", 4, 4000),
    ("replace", "register", 4, 1000),
    ("tcas", "memory", 6, 2000),
    ("factorial", _burst2, 4, 5000),
    ("factorial", "bitflip", 6, 5000),
]


def _sweep(workload, model, sample, max_states, dedup):
    campaign, query = load_workload(workload).campaign(
        kind="any-outcome",
        fault_model=model() if callable(model) else model,
        max_states_per_injection=max_states, deduplicate_states=dedup)
    injections = campaign.plan_injections(sample=sample, seed=7)
    return [campaign.run_injection(injection, query)
            for injection in injections]


def _search_view(result):
    if result.search is None:
        return (result.activated, None)
    search = result.search
    statistics = dataclasses.asdict(search.statistics)
    del statistics["elapsed_seconds"]
    return (result.activated, search.completed, search.stop_reason,
            statistics,
            [(solution.depth, _fields(solution.state))
             for solution in search.solutions])


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "no-dedup"])
@pytest.mark.parametrize(
    "workload,model,sample,max_states", ORACLE_CASES,
    ids=[f"{w}-{m if isinstance(m, str) else 'burst2'}"
         for w, m, _, _ in ORACLE_CASES])
def test_joined_searches_match_plain_searches(monkeypatch, workload, model,
                                              sample, max_states, dedup):
    joined, counters = _counting(
        lambda: _sweep(workload, model, sample, max_states, dedup))
    with monkeypatch.context() as patch:
        patch.setattr(search_module, "run_concrete", _plain_tails)
        plain = _sweep(workload, model, sample, max_states, dedup)
    assert len(joined) == len(plain) == sample
    assert [_search_view(r) for r in joined] == \
        [_search_view(r) for r in plain]
    if workload == "replace":
        # The oracle must exercise joins, not just the plain path twice.
        assert counters["interp.joins"] > 0


# ------------------------------------------- the random-program join oracle


def test_joined_random_runs_match_the_reference_interpreter(monkeypatch):
    """Random programs (some falling off the end of the code), err-free
    inputs, budgets and mark strides of a few steps: a run over the golden
    layer, and over a search layer stacked on it, ends in the state the
    string-dispatch reference reaches, field by field.  Each draw runs the
    golden start and concrete corruptions of states along the golden run,
    one after another, so later runs also join marks the earlier ones
    published; the draw includes runs that join."""
    joins = []

    @settings(max_examples=300, deadline=None)
    @given(program=_open_program(), inputs=_GOLDEN_INPUTS,
           max_steps=st.integers(1, 80), golden_stride=st.integers(1, 4),
           search_stride=st.integers(1, 4),
           corruptions=st.lists(
               st.tuples(st.integers(0, 40), st.booleans(),
                         st.integers(0, 7), st.integers(-3, 9)),
               max_size=3))
    def check(program, inputs, max_steps, golden_stride, search_stride,
              corruptions):
        monkeypatch.setattr(executor_module, "GOLDEN_MARK_STRIDE",
                            golden_stride)
        initial = _fresh_state(inputs)
        golden = ConcreteFutures.golden(program, initial.copy(), _DETECTORS,
                                        max_steps)
        layer = ConcreteFutures(program, _DETECTORS, initial.input,
                                search_stride, parent=golden)
        starts = [initial]
        for steps, in_memory, where, value in corruptions:
            state = initial.copy()
            while state.is_running and state.steps < min(steps, max_steps):
                reference_step(program, state, _DETECTORS)
            if in_memory:
                state.write_memory(where, value)
            else:
                state.write_register(1 + where % 5, value)
            starts.append(state)
        for start in starts:
            expected = reference_run(program, start.copy(), _DETECTORS,
                                     max_steps)
            for futures in (golden, layer):
                state, counters = _counting(lambda: run_concrete(
                    program, start.copy(), _DETECTORS, max_steps,
                    futures=futures))
                assert _fields(state) == _fields(expected)
                joins.append(counters.get("interp.joins", 0))

    check()
    assert sum(joins) > 0
