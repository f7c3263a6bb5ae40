"""Merge-point dedup and collapsed load forks.

``BoundedModelChecker.search`` fingerprints a successor only where it can
equal a state already seen: an only successor that fell through to an
unlabelled pc, still running and still holding ``err``, goes to the
frontier unfingerprinted.  The differential oracle below runs the loop that
fingerprints every successor (kept here, test-side) against it on random
programs and states.  ``Executor._memory_error_loads`` builds no sibling
for a fork address whose concrete value an earlier address already
loaded; the unit tests pin what it returns.
"""

from __future__ import annotations

import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.constraints import (ComparisonOp, Constraint, ConstraintMap,
                               ConstraintSet, Location)
from repro.core import (BoundedModelChecker, SearchResult, SearchStatistics,
                        Solution, any_outcome)
from repro.isa.parser import assemble
from repro.isa.program import Program
from repro.isa.values import ERR
from repro.machine import ExecutionConfig, Executor, Status, initial_state
from repro.machine.exceptions import ILLEGAL_ADDRESS
from repro.machine.executor import run_concrete
from repro.machine.state import state_contains_err
from reference_interpreter import ReferenceExecutor
from strategies import _DETECTORS, _fresh_state, _machine_inputs, _program


def reference_search(checker: BoundedModelChecker, initial_states,
                     query) -> SearchResult:
    """The search loop that fingerprints every successor.

    Breadth-first with the same caps, the same concretize handoff (without
    concrete futures, which only make tails faster) and the same state
    budget as ``BoundedModelChecker.search``.
    """
    start_time = time.monotonic()
    executor = checker.executor
    statistics = SearchStatistics()
    solutions = []
    seen = set()
    frontier = deque((state.copy(), 0) for state in initial_states)
    stop_reason, completed = "exhausted", True
    while frontier:
        statistics.max_frontier = max(statistics.max_frontier, len(frontier))
        if len(solutions) >= checker.max_solutions:
            stop_reason, completed = "solution cap reached", False
            break
        if statistics.explored_states >= checker.max_states:
            stop_reason, completed = "state budget exhausted", False
            break
        state, depth = frontier.popleft()
        statistics.explored_states += 1
        if (state.is_running and checker.concretize
                and not state_contains_err(state)):
            run_concrete(executor.program, state, executor.detectors,
                         max_steps=executor.config.max_steps)
        if not state.is_running:
            statistics.terminal_states += 1
            if query(state):
                solutions.append(Solution(state=state, depth=depth))
            continue
        successors = executor.advance(state)
        statistics.expanded_states += 1
        if not successors:
            statistics.pruned_states += 1
            continue
        for successor in successors:
            fingerprint = successor.fingerprint()
            if fingerprint in seen:
                statistics.deduplicated_states += 1
                continue
            seen.add(fingerprint)
            frontier.append((successor, depth + 1))
    statistics.elapsed_seconds = time.monotonic() - start_time
    return SearchResult(solutions=solutions, statistics=statistics,
                        completed=completed, stop_reason=stop_reason)


def _jump_labels_only(program: Program) -> Program:
    """*program* keeping only the labels a branch, jump or call names.

    The shared strategy labels every address, which would make every pc a
    merge point; without the spare labels most fall-throughs skip the
    fingerprint, as in compiled code.
    """
    named = {operand for instruction in program.code
             for operand in instruction.operands if isinstance(operand, str)}
    labels = {name: address for name, address in program.labels.items()
              if name in named}
    return Program(code=program.code, labels=labels, name=program.name)


def _solution_view(result: SearchResult):
    return [(solution.state.fingerprint(), solution.depth)
            for solution in result.solutions]


def _is_subsequence(items, of):
    remaining = iter(of)
    return all(item in remaining for item in items)


@settings(max_examples=300, deadline=None)
@given(program=_program(), inputs=_machine_inputs(),
       max_steps=st.integers(8, 200), max_states=st.integers(20, 400))
def test_merge_point_search_matches_fingerprinting_every_successor(
        program, inputs, max_steps, max_states):
    """Where both searches complete they agree, but for one thing: a state
    that repeats an earlier one at an unfingerprinted pc runs on to the
    next fingerprinted pc, and if the watchdog fires first it ends as a
    TIMEOUT, a hang the reference's merge had swallowed."""
    program = _jump_labels_only(program)
    executor = Executor(program, _DETECTORS,
                        ExecutionConfig(max_steps=max_steps))
    checker = BoundedModelChecker(executor, max_solutions=10_000,
                                  max_states=max_states)
    state = _fresh_state(inputs)
    merged = checker.search([state], any_outcome())
    reference = reference_search(checker, [state], any_outcome())
    if not (merged.completed and reference.completed):
        return
    merged_view = _solution_view(merged)
    reference_view = _solution_view(reference)
    assert _is_subsequence(reference_view, merged_view)
    assert all(solution.state.status is Status.TIMEOUT
               for solution, view in zip(merged.solutions, merged_view)
               if view not in reference_view)
    if max_steps > max_states:
        # Every stepped state is explored, so none reaches the watchdog.
        assert merged_view == reference_view
    assert (merged.completed, merged.stop_reason) == \
        (reference.completed, reference.stop_reason)
    assert merged.statistics.explored_states >= \
        reference.statistics.explored_states
    # A terminal state is fingerprinted unless a concrete tail made it, and
    # two err-free tails can converge inside ``run_concrete``: the
    # reference lists such a state twice too.  No other repeat is allowed.
    assert _repeats(merged_view) == _repeats(reference_view)


def _repeats(view):
    fingerprints = [fingerprint for fingerprint, _ in view]
    return len(fingerprints) - len(set(fingerprints))


def test_a_merge_that_clears_the_last_err_is_fingerprinted():
    """Two load forks become equal at pc 2, where err remains in $1, and
    err-free at pc 3, an unlabelled fall-through: that state must still
    be fingerprinted, or both copies run their concrete tails and the
    halted state is listed twice."""
    executor = Executor(assemble("""
        ldi $2, $1, 0
        li $2, 0
        li $1, 0
        print $2
        halt
    """))
    state = initial_state(memory={0: 5, 1: 6})
    state.write_register(1, ERR)
    checker = BoundedModelChecker(executor)
    merged = checker.search([state], any_outcome())
    reference = reference_search(checker, [state], any_outcome())
    assert _solution_view(merged) == _solution_view(reference)
    assert [(solution.state.status, solution.state.output_values())
            for solution in merged.solutions] == \
        [(Status.EXCEPTION, ()), (Status.HALTED, (0,))]


# A loop whose state repeats at pc 4, which carries no label: memory holds
# err, so every state is stepped symbolically.  Fingerprinting every
# successor merges the second visit to pc 4 with the first; the merge-point
# search sees the repeat only at the label, one jump later.
_CYCLE = """
        print $0
loop:   sti $4, $0, 2
        nop
        addi $2, $4, 7
        jmp loop
        halt
"""


def _cycle_search(max_steps):
    executor = Executor(assemble(_CYCLE),
                        config=ExecutionConfig(max_steps=max_steps))
    state = initial_state(memory={0: ERR})
    checker = BoundedModelChecker(executor)
    return (checker.search([state], any_outcome()),
            reference_search(checker, [state], any_outcome()))


def test_an_err_lineage_in_a_loop_ends_exhausted_through_dedup():
    merged, reference = _cycle_search(max_steps=1000)
    for result in (merged, reference):
        assert (result.completed, result.stop_reason) == (True, "exhausted")
        assert result.statistics.terminal_states == 0
        assert result.solutions == []
        assert result.statistics.deduplicated_states == 1
    # The repeat at pc 4 is explored once more: its jump lands on the
    # label, where it is caught.
    assert merged.statistics.explored_states == \
        reference.statistics.explored_states + 1


def test_a_repeat_that_meets_the_watchdog_before_the_label_is_a_hang():
    """The second visit to pc 4 comes at step 8: with an 8-step watchdog
    it times out there, where the reference had merged it away."""
    merged, reference = _cycle_search(max_steps=8)
    assert reference.solutions == []
    assert [(solution.state.status, solution.state.pc, solution.depth)
            for solution in merged.solutions] == [(Status.TIMEOUT, 4, 9)]


# ------------------------------------------------------ collapsed load forks

#: Cells 2 and 4 repeat the concrete values of cells 0 and 1; cells 3 and
#: 5 hold err under different constraints.
_MEMORY = {0: 5, 1: 7, 2: 5, 3: ERR, 4: 7, 5: ERR, 6: 9}
_LOAD = """
        ldi $1, $2, 0
        print $1
        halt
"""


def _load_state():
    state = initial_state(memory=dict(_MEMORY))
    state.write_register(2, ERR)
    state.constraints = ConstraintMap({
        Location.memory(3): ConstraintSet().add_all(
            [Constraint(ComparisonOp.GT, 0)]),
        Location.memory(5): ConstraintSet().add_all(
            [Constraint(ComparisonOp.LT, 0)])})
    return state


def _uncollapsed_loads(state, rt):
    """The crash plus one successor per fork address, built by hand."""
    crashed = state.copy()
    crashed.throw(ILLEGAL_ADDRESS)
    successors = [crashed]
    for address in sorted(state.memory):
        branch = state.copy()
        value = branch.read_memory(address)
        branch.write_register(
            rt, value,
            transfer_from=Location.memory(address) if value is ERR else None)
        branch.forks += 1
        branch.pc += 1
        successors.append(branch)
    return successors


@pytest.mark.parametrize("executor_class", [Executor, ReferenceExecutor],
                         ids=["decoded", "reference"])
def test_repeated_concrete_load_values_build_one_successor(executor_class):
    executor = executor_class(assemble(_LOAD))
    state = _load_state()
    successors = executor.step(state)
    assert successors[0].exception == ILLEGAL_ADDRESS
    # First-address order: 5 (cell 0), 7 (cell 1), err (3), err (5), 9 (6).
    assert [successor.read_register(1) for successor in successors[1:]] == \
        [5, 7, ERR, ERR, 9]
    assert executor.collapsed_loads == 2
    uncollapsed = _uncollapsed_loads(state, 1)
    assert len(uncollapsed) == len(successors) + 2
    assert {successor.fingerprint() for successor in successors} == \
        {successor.fingerprint() for successor in uncollapsed}
    # The two err cells carry different constraints: distinct successors.
    assert len({successor.fingerprint() for successor in successors}) == \
        len(successors)


def test_search_counts_collapsed_loads_as_deduplicated_and_publishes_them():
    executor = Executor(assemble(_LOAD))
    checker = BoundedModelChecker(executor)
    previous = obs.get()
    hub = obs.set_hub(obs.Telemetry())
    try:
        result = checker.search([_load_state()], any_outcome())
        snapshot = hub.snapshot()
    finally:
        obs.set_hub(previous)
    assert result.completed
    assert result.statistics.deduplicated_states == 2
    counters = snapshot.counters
    assert counters["search.collapsed_loads"] == 2
    # The crash and the five loads are fingerprinted.  Every print falls
    # through to the unlabelled halt still holding err ($2 and two cells),
    # so it is not; the five halted states are.
    assert counters["search.fingerprints"] == 6 + 5
