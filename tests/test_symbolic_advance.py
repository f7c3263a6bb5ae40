"""``Executor.advance``: err-free instructions stepped at concrete cost.

``advance`` runs an instruction that reads no ``err`` register through its
decoded concrete op, in place on the state it is given, and hands every
other instruction to ``step``.  ``ConstraintMap.satisfiable`` memoises its
answer.  The differential oracle below runs whole searches with both and
with plain ``step`` and the uncached satisfiability walk patched in, and
demands identical solutions and statistics; a property test compares
``advance`` with ``step`` state by state on random programs; the edge tests
pin each condition of the fast path.
"""

from __future__ import annotations

import pickle
from collections import deque

import pytest
from hypothesis import given, settings

import repro.constraints.constraint_map as constraint_map_module
from repro.constraints import (ComparisonOp, Constraint, ConstraintMap,
                               Location, RelationalConstraint,
                               relational_conflict)
from repro.isa.instructions import Category
from repro.isa.parser import assemble
from repro.isa.values import ERR
from repro.machine import ExecutionConfig, Executor, Status, initial_state
from repro.machine.exceptions import (DIVIDE_BY_ZERO, ILLEGAL_INSTRUCTION,
                                      TIMED_OUT)
from repro.machine.state import recompute_incremental_state
from repro.programs import load_workload
from test_concrete_joins import (ORACLE_CASES, _counting, _search_view,
                                 _sweep)
from test_decode_equivalence import (_DETECTORS, _fresh_state,
                                     _machine_inputs, _program,
                                     _state_summary)


def _uncached_satisfiable(self):
    """The satisfiability walk without the memo or the relational skip."""
    for cset in self._sets.values():
        if not cset.satisfiable():
            return False
    return not relational_conflict(self._relational, self._sets)


# ------------------------------------------------- the differential oracle


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "no-dedup"])
@pytest.mark.parametrize(
    "workload,model,sample,max_states", ORACLE_CASES,
    ids=[f"{w}-{m if isinstance(m, str) else 'burst2'}"
         for w, m, _, _ in ORACLE_CASES])
def test_advanced_searches_match_stepped_searches(monkeypatch, workload,
                                                  model, sample, max_states,
                                                  dedup):
    advanced, counters = _counting(
        lambda: _sweep(workload, model, sample, max_states, dedup))
    with monkeypatch.context() as patch:
        patch.setattr(Executor, "advance", Executor.step)
        patch.setattr(ConstraintMap, "satisfiable", _uncached_satisfiable)
        stepped = _sweep(workload, model, sample, max_states, dedup)
    assert len(advanced) == len(stepped) == sample
    assert [_search_view(r) for r in advanced] == \
        [_search_view(r) for r in stepped]
    if workload == "tcas":
        # The oracle must exercise the fast path, not just step twice.
        assert counters["executor.concrete_steps"] > 0


def _successor_view(state):
    last = state.trace[-1] if state.trace else None
    return (_state_summary(state), last, state.constraints, state.forks,
            recompute_incremental_state(state),
            (state._loc_hash, state._out_hash, state._err_count))


@settings(max_examples=60, deadline=None)
@given(program=_program(), inputs=_machine_inputs())
def test_advance_matches_step_on_every_explored_state(program, inputs):
    """Breadth-first over the step tree: at every running state, advance on
    a copy yields exactly step's successors, and step leaves its argument
    alone."""
    executor = Executor(program, _DETECTORS, ExecutionConfig(
        max_steps=48, record_trace=True))
    frontier = deque([_fresh_state(inputs)])
    explored = 0
    while frontier and explored < 60:
        state = frontier.popleft()
        explored += 1
        if not state.is_running:
            continue
        before = _successor_view(state)
        stepped = executor.step(state)
        assert _successor_view(state) == before
        advanced = executor.advance(state.copy())
        assert [_successor_view(s) for s in advanced] == \
            [_successor_view(s) for s in stepped]
        frontier.extend(stepped)


# ------------------------------------------------------------- edge cases


def _executor(source, **config):
    return Executor(assemble(source), config=ExecutionConfig(**config))


def _both(executor, state):
    """(step's successors, advance's successors, whether advance ran the
    concrete op in place) for *state*, which is left untouched."""
    stepped = executor.step(state.copy())
    before = executor.concrete_steps
    given_state = state.copy()
    advanced = executor.advance(given_state)
    fast = executor.concrete_steps > before
    if fast:
        assert advanced in ([given_state], [])
    else:
        assert all(s is not given_state for s in advanced)
    assert [_successor_view(s) for s in advanced] == \
        [_successor_view(s) for s in stepped]
    return stepped, advanced, fast


def test_a_load_of_an_err_cell_falls_back_with_steps_restored():
    executor = _executor("""
            ldi $2 $1 4
            halt
    """)
    state = initial_state(memory={4: 0})
    state.write_memory(4, ERR)
    state.steps = 7
    state.constraints = state.constraints.with_constraint(
        Location.memory(4), Constraint(ComparisonOp.GT, 2))
    given_state = state.copy()
    [successor] = executor.advance(given_state)
    assert executor.concrete_steps == 0
    assert given_state.steps == 7
    assert successor is not given_state
    assert successor.steps == 8
    assert successor.read_register(2) is ERR
    assert successor.constraints.constraints_for(Location.register(2)) == \
        state.constraints.constraints_for(Location.memory(4))
    _both(executor, state)


def test_a_check_instruction_is_left_to_step():
    workload = load_workload("factorial_with_detectors")
    executor = Executor(workload.program, workload.detectors)
    entries = executor._decoded.entries
    check_pc = next(d.pc for d in entries if d.category is Category.CHECK)
    assert entries[check_pc].reads is None
    state = workload.initial_state()
    state.pc = check_pc
    _, _, fast = _both(executor, state)
    assert not fast


@pytest.mark.parametrize("slack", [1, 0])
def test_the_watchdog_bound(slack):
    executor = _executor("""
            li $1 3
            halt
    """, max_steps=10)
    state = initial_state()
    state.steps = 10 - slack
    _, [successor], fast = _both(executor, state)
    assert fast == (slack == 1)
    if slack:
        assert (successor.status, successor.steps) == (Status.RUNNING, 10)
    else:
        assert (successor.status, successor.exception) == \
            (Status.TIMEOUT, TIMED_OUT)


def test_record_trace_appends_the_step_entry():
    executor = _executor("""
            li $1 3
            addi $1 $1 #1
            halt
    """, record_trace=True)
    state = initial_state()
    for _ in range(2):
        _, [state], fast = _both(executor, state)
        assert fast
    assert [(entry.pc, entry.text) for entry in state.trace] == \
        [(0, "li $1 #3"), (1, "addi $1 $1 #1")]


def test_a_concrete_write_over_an_err_register_drops_its_constraints():
    executor = _executor("""
            li $1 5
            halt
    """)
    state = initial_state()
    state.write_register(1, ERR)
    state.constraints = state.constraints.with_constraint(
        Location.register(1), Constraint(ComparisonOp.LT, 9))
    assert state._err_count == 1
    _, [successor], fast = _both(executor, state)
    assert fast
    assert successor.read_register(1) == 5
    assert successor._err_count == 0
    assert Location.register(1) not in successor.constraints
    assert successor.constraints.empty


def test_an_unsatisfiable_map_is_pruned_on_the_fast_path():
    executor = _executor("""
            li $2 5
            halt
    """)
    state = initial_state()
    state.write_register(1, ERR)
    state.constraints = state.constraints.with_constraints(
        Location.register(1), [Constraint(ComparisonOp.EQ, 3),
                               Constraint(ComparisonOp.EQ, 4)])
    stepped, advanced, fast = _both(executor, state)
    assert fast and stepped == advanced == []


def test_divide_by_zero():
    executor = _executor("""
            div $2 $3 $1
            halt
    """)
    state = initial_state()
    state.write_register(3, 7)
    _, [successor], fast = _both(executor, state)
    assert fast
    assert (successor.status, successor.exception, successor.pc) == \
        (Status.EXCEPTION, DIVIDE_BY_ZERO, 0)


@pytest.mark.parametrize("target", [99, -1])
def test_jr_to_an_invalid_target(target):
    executor = _executor("""
            jr $1
            halt
    """)
    state = initial_state()
    state.write_register(1, target)
    _, [successor], fast = _both(executor, state)
    assert fast
    assert (successor.status, successor.exception) == \
        (Status.EXCEPTION, ILLEGAL_INSTRUCTION)


def test_an_err_source_register_goes_to_step():
    executor = _executor("""
            addi $2 $1 #1
            halt
    """)
    state = initial_state()
    state.write_register(1, ERR)
    _, [successor], fast = _both(executor, state)
    assert not fast and successor.read_register(2) is ERR


# --------------------------------------------------- the satisfiability memo


_A, _B = Location.register(3), Location.register(4)


def _maps():
    sat = ConstraintMap().with_constraint(_A, Constraint(ComparisonOp.GT, 2))
    unsat = sat.with_constraint(_A, Constraint(ComparisonOp.LT, 1))
    # Relational facts only: len() is 0, so the map is falsy (the class of
    # map a truthiness test once dropped across a pickle round-trip).
    relational = ConstraintMap().with_relational(
        RelationalConstraint(_A, ComparisonOp.GT, _B))
    conflict = relational.with_relational(
        RelationalConstraint(_A, ComparisonOp.LT, _B))
    return {"sat": (sat, True), "unsat": (unsat, False),
            "relational": (relational, True),
            "relational-conflict": (conflict, False)}


@pytest.mark.parametrize("name", list(_maps()))
def test_the_memo_never_travels_through_pickle(name):
    cmap, expected = _maps()[name]
    assert cmap.satisfiable() is expected
    assert cmap._sat is expected
    clone = pickle.loads(pickle.dumps(cmap))
    assert clone._sat is None
    assert clone == cmap and hash(clone) == hash(cmap)
    assert clone.satisfiable() is expected
    if name.startswith("relational"):
        assert not clone and not clone.empty


def test_derived_maps_start_without_a_memo():
    cmap = _maps()["sat"][0].with_relational(
        RelationalConstraint(_A, ComparisonOp.LT, _B))
    assert cmap.satisfiable()
    derived = [
        cmap.copy(),
        cmap.with_constraint(_A, Constraint(ComparisonOp.LT, 1)),
        cmap.with_constraints(_B, [Constraint(ComparisonOp.EQ, 0)]),
        cmap.with_relational(RelationalConstraint(_A, ComparisonOp.GT, _B)),
        cmap.without(_A),
        cmap.transfer(_A, _B),
    ]
    assert all(d._sat is None for d in derived)
    assert [d.satisfiable() for d in derived] == \
        [True, False, False, False, True, True]
    assert cmap.without(Location.register(9)) is cmap


def test_no_relational_facts_skips_the_relational_check(monkeypatch):
    def fail(*args):
        raise AssertionError("relational_conflict called")

    monkeypatch.setattr(constraint_map_module, "relational_conflict", fail)
    assert ConstraintMap().satisfiable()
    assert _maps()["sat"][0].satisfiable()
    assert not _maps()["unsat"][0].satisfiable()


# --------------------------------------------------------------- telemetry


def test_search_epilogue_publishes_the_concrete_share():
    _, counters = _counting(lambda: _sweep("tcas", "memory", 6, 2000, True))
    assert 0 < counters["executor.concrete_steps"] <= counters["executor.steps"]
