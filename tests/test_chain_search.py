"""Chains between merge points: the search result is that of one state per pop.

``BoundedModelChecker.search`` runs an err lineage ahead in place between
merge points (``Executor.chain``) and only counts the pops it has run
ahead, so every field of the ``SearchResult`` must equal that of the loop
that steps one state per pop.  That loop is kept here, test-side, as the
oracle: :func:`merge_point_search`, which settles a budget cut as the
search does (its ``cut=False`` form, which steps every popped state, is
the oracle of ``test_settled_cut``).  The random cases draw programs and
states from ``strategies``, with random watchdogs, state budgets, solution
caps, and dedup, pruning and tracing on and off; the explicit cases pin a
budget cut inside a chain and inside a bulk round, pops past a settled
cut, a superblock rolled back because it cleared the last ``err``, a
chain block that would run through a label, a chain ending at a label, a
load fork deferred to its own pop and an exception raised at its own pop,
plus the telemetry counters and the register share of the err census.
"""

from __future__ import annotations

import time
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (BoundedModelChecker, SearchResult, SearchStatistics,
                        Solution, any_outcome)
from repro.constraints import (ComparisonOp, Constraint, ConstraintMap,
                               ConstraintSet, Location)
from repro.core.search import run_concrete
from repro.detectors import DetectorSet
from repro.isa.parser import assemble
from repro.isa.values import ERR
from repro.machine import ExecutionConfig, Executor, initial_state
from repro.machine.decode import decoded_program
from repro.machine.exceptions import MachineModelError
from repro.machine.executor import SEARCH_MARK_STRIDE, ConcreteFutures
from repro.machine.state import state_contains_err
from strategies import (_DETECTORS, _SEARCH_STATES, _sparse_labels,
                        _state_summary)


def merge_point_search(checker: BoundedModelChecker, initial_states,
                       query, cut: bool = True) -> SearchResult:
    """The search loop that steps one state per pop.

    Breadth-first, fingerprinting every successor except an only successor
    that fell through to an unlabelled pc, is still running and still holds
    ``err``; with the same caps, concretize handoff and concrete futures.
    With *cut*, once ``explored + len(frontier) > max_states`` it steps no
    popped running state, and a successor loop queues nothing after the
    successor that takes the sum past the budget: nothing queued then is
    ever popped.
    """
    start_time = time.monotonic()
    executor = checker.executor
    collapsed_before = executor.collapsed_loads
    labelled = decoded_program(executor.program).labelled
    statistics = SearchStatistics()
    solutions = []
    seen = set()
    futures = None
    frontier = deque((state.copy(), 0) for state in initial_states)
    stop_reason, completed = "exhausted", True

    def settled():
        return cut and (statistics.explored_states + len(frontier)
                        > checker.max_states)

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
            if futures is None:
                futures = ConcreteFutures(
                    executor.program, executor.detectors, state.input,
                    SEARCH_MARK_STRIDE, parent=checker.golden)
            run_concrete(executor.program, state, executor.detectors,
                         max_steps=executor.config.max_steps, futures=futures)
        if not state.is_running:
            statistics.terminal_states += 1
            if query(state):
                solutions.append(Solution(state=state, depth=depth))
            continue
        statistics.expanded_states += 1
        if settled():
            continue
        pc = state.pc
        successors = executor.advance(state)
        if not successors:
            statistics.pruned_states += 1
            continue
        if not checker.deduplicate:
            for successor in successors:
                frontier.append((successor, depth + 1))
                if settled():
                    break
            continue
        if len(successors) == 1:
            successor = successors[0]
            if (type(pc) is int and successor.pc == pc + 1
                    and not labelled[pc + 1] and successor.is_running
                    and state_contains_err(successor)):
                frontier.append((successor, depth + 1))
                continue
        for successor in successors:
            fingerprint = successor.fingerprint()
            if fingerprint in seen:
                statistics.deduplicated_states += 1
                continue
            seen.add(fingerprint)
            frontier.append((successor, depth + 1))
            if settled():
                break
    statistics.deduplicated_states += executor.collapsed_loads - collapsed_before
    statistics.elapsed_seconds = time.monotonic() - start_time
    return SearchResult(solutions=solutions, statistics=statistics,
                        completed=completed, stop_reason=stop_reason)


def _view(run, checker, states):
    """Every field of the result but the elapsed time, or the exception."""
    try:
        result = run(checker, states, any_outcome())
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))
    statistics = result.statistics
    return ([(_state_summary(solution.state), solution.depth)
             for solution in result.solutions],
            (statistics.explored_states, statistics.expanded_states,
             statistics.terminal_states, statistics.deduplicated_states,
             statistics.pruned_states, statistics.max_frontier),
            result.completed, result.stop_reason)


def _checker(program, detectors=_DETECTORS, max_steps=1000, **caps):
    config = {name: caps.pop(name) for name in ("prune_unsatisfiable",
                                                "record_trace")
              if name in caps}
    executor = Executor(program, detectors,
                        ExecutionConfig(max_steps=max_steps, **config))
    return BoundedModelChecker(executor, **caps)


def _both(program, states, **caps):
    """(chain search, merge-point search) views, on separate executors."""
    chained = _view(BoundedModelChecker.search, _checker(program, **caps),
                    states)
    reference = _view(merge_point_search, _checker(program, **caps), states)
    return chained, reference


def _counters(program, states, **caps):
    previous = obs.get()
    hub = obs.set_hub(obs.Telemetry())
    try:
        result = _checker(program, **caps).search(states, any_outcome())
        return result, hub.snapshot().counters
    finally:
        obs.set_hub(previous)


@settings(max_examples=400, deadline=None)
@given(program=_sparse_labels(),
       states=st.lists(_SEARCH_STATES, min_size=1, max_size=3),
       max_steps=st.integers(1, 300), max_states=st.integers(1, 400),
       max_solutions=st.integers(1, 50), deduplicate=st.booleans(),
       prune=st.booleans(), trace=st.booleans())
def test_chains_leave_every_field_of_the_result_unchanged(
        program, states, max_steps, max_states, max_solutions, deduplicate,
        prune, trace):
    chained, reference = _both(
        program, states, max_steps=max_steps, max_states=max_states,
        max_solutions=max_solutions, deduplicate=deduplicate,
        prune_unsatisfiable=prune, record_trace=trace)
    assert chained == reference


# ------------------------------------------------------------ explicit cases

#: err in $1 rides a straight line of register work to the halt: every
#: state after the first is a chain state, and with no label at all the
#: lineage is one chain.
_LINE = assemble("\n".join(["addi $2, $2, 1", "add $3, $3, $2"] * 6
                           + ["print $1", "halt"]))


def _err_in(register=1, memory=None):
    state = initial_state(memory=dict(memory or {}))
    if register:
        state.write_register(register, ERR)
    return state


def test_a_budget_cut_inside_a_chain():
    for budget in (1, 2, 5, 9):
        chained, reference = _both(_LINE, [_err_in()], max_states=budget)
        assert chained == reference
        assert chained[3] == "state budget exhausted"
    result, counters = _counters(_LINE, [_err_in()], max_states=5)
    assert result.statistics.explored_states == 5
    assert counters["search.chain_pops"] == 4
    # The chain stops at the last pop the budget allows: the five popped
    # states are stepped, none beyond.
    assert counters["executor.steps"] == 5
    assert counters["search.cut_pops"] == 0


def test_pops_past_a_settled_cut_are_counted_and_step_nothing():
    """Three err lineages and a budget of three pops: the first pop's
    chain queues the entry that settles the cut, so the other two
    lineages' pops are served without a step."""
    states = [_err_in(1), _err_in(3), _err_in(4)]
    chained, reference = _both(_LINE, states, max_states=3)
    assert chained == reference
    result, counters = _counters(_LINE, states, max_states=3)
    assert result.statistics.explored_states == 3
    assert counters["search.cut_pops"] == 2
    assert counters["search.chain_pops"] == 0
    assert counters["executor.steps"] == 1


def test_a_budget_cut_inside_a_bulk_round():
    """A branch on err splits the lineage; both halves chain to the halt,
    so every entry holds credits and the rounds run in bulk.  Odd budgets
    stop part-way through a round."""
    program = assemble("""
        bne $1, 0, far
        addi $2, $2, 1
        addi $2, $2, 1
        addi $2, $2, 1
        addi $2, $2, 1
        addi $2, $2, 1
        addi $2, $2, 1
        print $1
        halt
far:    addi $3, $3, 1
        addi $3, $3, 1
        addi $3, $3, 1
        addi $3, $3, 1
        addi $3, $3, 1
        addi $3, $3, 1
        print $1
        halt
    """)
    for budget in range(1, 20):
        chained, reference = _both(program, [_err_in()], max_states=budget)
        assert chained == reference, budget
    result, counters = _counters(program, [_err_in()], max_states=9)
    assert result.stop_reason == "state budget exhausted"
    assert counters["search.bulk_rounds"] >= 1
    full, counters = _counters(program, [_err_in()])
    assert full.completed and len(full.solutions) == 2
    assert counters["search.bulk_rounds"] >= 1


#: err sits in memory cell 0 only, so the chain may run the register
#: block from the entry; the store at pc 2 overwrites the cell with 5 and
#: leaves the state err-free, so the block is rolled back and stepped.
_CLEARING_BLOCK = assemble("""
        li $1, 5
        li $2, 0
        sti $1, $2, 0
        addi $3, $3, 1
        addi $3, $3, 1
        print $3
        halt
""")


def test_a_block_that_clears_the_last_err_is_rolled_back():
    assert decoded_program(_CLEARING_BLOCK).chain_block_lens[0] == 6
    states = [_err_in(register=0, memory={0: ERR, 1: 2})]
    chained, reference = _both(_CLEARING_BLOCK, states)
    assert chained == reference
    result, counters = _counters(_CLEARING_BLOCK, states)
    assert counters["search.chain_blocks"] == 0
    # The store's pop hands an err-free state to the concrete tail.
    assert [s.state.output_values() for s in result.solutions] == [(2,)]


def test_a_block_that_keeps_err_in_memory_runs_in_one_call():
    states = [_err_in(register=0, memory={0: 1, 1: ERR})]
    chained, reference = _both(_CLEARING_BLOCK, states)
    assert chained == reference
    result, counters = _counters(_CLEARING_BLOCK, states)
    assert counters["search.chain_blocks"] == 1
    # The block's six instructions count as executor steps, all concrete,
    # and the halt's pop is the last chain state's own.
    assert counters["executor.steps"] == counters["executor.concrete_steps"] == 7
    assert result.statistics.explored_states == 8
    assert counters["search.chain_pops"] == 5


def test_a_block_runs_once_the_register_err_is_overwritten():
    """``$1`` loses its err at pc 0; the label ``next`` is a block leader
    where only memory holds err, so its pop runs the block."""
    program = assemble("""
        li $1, 0
        jmp next
next:   li $2, 1
        li $3, 2
        print $3
        halt
    """)
    states = [_err_in(memory={0: ERR})]
    chained, reference = _both(program, states)
    assert chained == reference
    _, counters = _counters(program, states)
    assert counters["search.chain_blocks"] == 1


@settings(max_examples=200, deadline=None)
@given(writes=st.lists(st.tuples(st.integers(0, 5),
                                 st.one_of(st.just(ERR), st.integers(-3, 3)),
                                 st.booleans()), max_size=20))
def test_the_register_err_census_follows_every_write(writes):
    state = initial_state()
    for number, value, fork in writes:
        if fork:
            state = state.copy()
        state.write_register(number, value)
        assert state._reg_err_count == \
            sum(value is ERR for value in state.registers)


#: A fusible run from the leader ``next`` that falls through the label
#: ``L``, where the branch's other side arrives by a jump at the same
#: depth: the fall-through must stop and be fingerprinted there, so one
#: copy is merged away.
_MERGE_INSIDE_A_RUN = assemble("""
        ldi $1, $0, 0
        bne $1, 0, other
        li $1, 0
        jmp next
next:   li $2, 1
        li $5, 4
L:      li $3, 2
        li $4, 3
        print $4
        halt
other:  li $1, 0
        li $2, 1
        li $5, 4
        jmp L
""")


def test_a_chain_block_never_runs_through_a_label():
    decoded = decoded_program(_MERGE_INSIDE_A_RUN)
    assert decoded.block_lens[4] == 5 and decoded.chain_block_lens[4] == 0
    states = [_err_in(register=0, memory={0: ERR})]
    chained, reference = _both(_MERGE_INSIDE_A_RUN, states)
    assert chained == reference
    solutions, statistics, completed, _ = chained
    assert completed and len(solutions) == 1 and statistics[3] == 1


def test_a_popped_state_is_checked_before_its_block():
    """An initial state whose constraint map is unsatisfiable is pruned
    at its first step, block leader or not."""
    state = _err_in(register=0, memory={0: 1, 1: ERR})
    state.constraints = ConstraintMap({Location.memory(1): ConstraintSet()
                                       .add_all([Constraint(ComparisonOp.GT, 5),
                                                 Constraint(ComparisonOp.LT, 3)])})
    chained, reference = _both(_CLEARING_BLOCK, [state])
    assert chained == reference
    assert chained[1][:5] == (1, 1, 0, 0, 1)  # explored, expanded, pruned


def test_a_chain_that_ends_at_a_label():
    """The fall-through onto ``mid`` is a merge point: the chain stops
    there and the state is fingerprinted."""
    program = assemble("""
        bne $1, 0, over
        addi $2, $2, 1
        addi $2, $2, 1
mid:    print $1
        halt
over:   addi $2, $2, 2
        jmp mid
    """)
    chained, reference = _both(program, [_err_in()])
    assert chained == reference
    result, counters = _counters(program, [_err_in()])
    assert result.completed and len(result.solutions) == 2
    # The two branch successors, both arrivals at ``mid`` and both halted
    # states are fingerprinted; the rest are chain states.
    assert counters["search.fingerprints"] == 6


#: $1 holds err and is a load's base two steps in: the load forks over
#: memory, and cells 0 and 2 hold the same value (a collapsed sibling).
_DEFERRED_LOAD = assemble("""
        addi $2, $2, 1
        addi $2, $2, 1
        ldi $3, $1, 0
        print $3
        halt
""")


def test_a_memory_fork_at_the_end_of_a_chain_waits_for_its_own_pop():
    memory = {0: 4, 1: 7, 2: 4}
    for budget in range(1, 12):
        chained, reference = _both(_DEFERRED_LOAD,
                                   [_err_in(memory=memory)],
                                   max_states=budget)
        assert chained == reference, budget
    # Cut before the load's pop: the fork is never built, so no load
    # collapses and the symbolic step never runs.
    result, counters = _counters(_DEFERRED_LOAD, [_err_in(memory=memory)],
                                 max_states=2)
    assert result.statistics.deduplicated_states == 0
    assert counters["executor.steps"] == 2
    full, counters = _counters(_DEFERRED_LOAD, [_err_in(memory=memory)])
    assert full.statistics.deduplicated_states == 1
    assert counters["search.collapsed_loads"] == 1


def test_a_search_capped_before_a_memory_fork_never_builds_it():
    """The quick branch's halt meets the solution cap while the other
    branch's chain has reached the load through ``$1``: the load, and its
    collapsed sibling, belong to a pop that never comes."""
    program = assemble("""
        bne $1, 0, quick
        addi $2, $2, 1
        addi $2, $2, 1
        ldi $3, $1, 0
        print $3
        halt
quick:  halt
    """)
    states = [_err_in(memory={0: 4, 1: 7, 2: 4})]
    for trace in (False, True):
        chained, reference = _both(program, states, max_solutions=1,
                                   record_trace=trace)
        assert chained == reference
        assert chained[3] == "solution cap reached"
        assert chained[1][3] == 0  # no collapsed load counted as deduplicated


def test_an_exception_is_raised_at_its_own_pop():
    """``check 7`` names no detector: stepping it raises.  The chain runs
    into it ahead of time, so it must raise only where its pop comes."""
    program = assemble("""
        bne $1, 0, other
        addi $2, $2, 1
        addi $2, $2, 1
        addi $2, $2, 1
        check 7
        halt
other:  print $1
        halt
    """)
    detectors = DetectorSet.parse("det(1, $(2), >=, 0)")
    for budget in range(1, 10):
        for max_solutions in (1, 10):
            chained, reference = _both(program, [_err_in()],
                                       detectors=detectors,
                                       max_states=budget,
                                       max_solutions=max_solutions)
            assert chained == reference, (budget, max_solutions)
    raised = _view(BoundedModelChecker.search,
                   _checker(program, detectors), [_err_in()])
    assert raised[:2] == ("raised", MachineModelError)
    # The other branch's halt is the only solution the cap needs: the
    # search stops before the check's pop and raises nothing.
    capped = _view(BoundedModelChecker.search,
                   _checker(program, detectors, max_solutions=1),
                   [_err_in()])
    assert capped[3] == "solution cap reached"


def test_chains_run_under_trace_and_without_pruning():
    for caps in ({"record_trace": True}, {"prune_unsatisfiable": False},
                 {"deduplicate": False}):
        chained, reference = _both(_LINE, [_err_in()], **caps)
        assert chained == reference, caps
        result, counters = _counters(_LINE, [_err_in()], **caps)
        assert counters["search.chain_pops"] == 12
