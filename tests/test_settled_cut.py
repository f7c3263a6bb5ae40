"""A settled cut steps nothing: what a budget-cut search may and may not change.

Once ``explored + len(frontier) > max_states`` the last queued entry is
never popped, and neither is anything queued after it, so
``BoundedModelChecker.search`` steps no popped running state that holds
``err``, applies no chain result and queues nothing more.  The pops, and
every field they decide, must stay those of the loop that steps every
popped state: :func:`test_chain_search.merge_point_search` with
``cut=False``.  Only the counters of what the search built,
``deduplicated_states``, ``pruned_states`` and ``max_frontier``, may fall,
and a step past the cut that raised at the reference now raises nothing.
"""

from __future__ import annotations

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.constraints import (ComparisonOp, Constraint, ConstraintMap,
                               ConstraintSet, Location)
from repro.core import BoundedModelChecker
from repro.isa.parser import assemble
from repro.machine import initial_state
from repro.machine.exceptions import MachineModelError
from strategies import _SEARCH_STATES, _program, _sparse_labels
from test_chain_search import _checker, _err_in, _view, merge_point_search

#: Positions in ``_view``'s statistics tuple.
_IDENTICAL = (0, 1, 2)  # explored, expanded, terminal
_AT_MOST = (3, 4, 5)    # deduplicated, pruned, max_frontier


def _search_view(program, states, **caps):
    """The search's view and its ``search.cut_pops`` counter."""
    previous = obs.get()
    hub = obs.set_hub(obs.Telemetry())
    try:
        view = _view(BoundedModelChecker.search, _checker(program, **caps),
                     states)
        return view, hub.snapshot().counters.get("search.cut_pops", 0)
    finally:
        obs.set_hub(previous)


def _reference(program, states, cut, **caps):
    return _view(partial(merge_point_search, cut=cut),
                 _checker(program, **caps), states)


def _assert_only_built_counts_fall(view, reference):
    """*view* against the loop that steps every popped state."""
    if view[0] == "raised":
        assert view == reference
        return
    if reference[0] == "raised":
        assert view[3] == "state budget exhausted", view
        return
    solutions, statistics, completed, stop_reason = view
    assert solutions == reference[0]
    assert (completed, stop_reason) == reference[2:]
    for index in _IDENTICAL:
        assert statistics[index] == reference[1][index]
    for index in _AT_MOST:
        assert statistics[index] <= reference[1][index]


def test_the_pops_and_their_results_match_stepping_every_popped_state():
    settled = []

    @settings(max_examples=400, deadline=None)
    @given(program=st.one_of(_program(), _sparse_labels()),
           states=st.lists(_SEARCH_STATES, min_size=1, max_size=3),
           max_steps=st.integers(1, 300), max_states=st.integers(1, 60),
           max_solutions=st.integers(1, 50), deduplicate=st.booleans(),
           prune=st.booleans(), trace=st.booleans())
    def check(program, states, max_steps, max_states, max_solutions,
              deduplicate, prune, trace):
        caps = dict(max_steps=max_steps, max_states=max_states,
                    max_solutions=max_solutions, deduplicate=deduplicate,
                    prune_unsatisfiable=prune, record_trace=trace)
        view, cut_pops = _search_view(program, states, **caps)
        _assert_only_built_counts_fall(
            view, _reference(program, states, cut=False, **caps))
        settled.append(cut_pops)

    check()
    # The draw must reach searches that drop pops past a settled cut.
    assert sum(1 for cut_pops in settled if cut_pops) >= 20


# ------------------------------------------------------------ explicit cases

def _compare_all(program, states, **caps):
    """The search against both reference loops; returns the search's view
    and cut pops."""
    view, cut_pops = _search_view(program, states, **caps)
    assert view == _reference(program, states, cut=True, **caps)
    _assert_only_built_counts_fall(
        view, _reference(program, states, cut=False, **caps))
    return view, cut_pops


#: ``li`` overwrites the only err: every copy's successor is the same
#: err-free state, so all but the first are duplicates.
_OVERWRITE = assemble("""
        li $1, 5
        halt
""")


def test_a_budget_equal_to_the_queued_sum_is_not_settled():
    """At ``explored + len(frontier) == max_states`` the last queued entry
    is still popped, so the pop must be stepped: whether it queues a
    successor decides between "exhausted" and the budget."""
    # Three copies: the last two pops build only duplicates.
    states = [_err_in(), _err_in(), _err_in()]
    view, cut_pops = _compare_all(_OVERWRITE, states, max_states=4)
    assert (view[2], view[3]) == (True, "exhausted")
    assert view[1][:4] == (4, 3, 1, 2)  # explored, expanded, terminal, dups
    assert cut_pops == 0
    # One copy, one pop: its new successor is past the budget.
    view, _ = _compare_all(_OVERWRITE, [_err_in()], max_states=1)
    assert (view[2], view[3]) == (False, "state budget exhausted")


def test_a_pop_building_only_a_pruned_state_at_the_budget_is_not_settled():
    state = _err_in()
    state.constraints = ConstraintMap({Location.register(1): ConstraintSet()
                                       .add_all([Constraint(ComparisonOp.GT, 5),
                                                 Constraint(ComparisonOp.LT, 3)])})
    view, _ = _compare_all(assemble("addi $2, $2, 1\nhalt"), [state],
                           max_states=1)
    assert (view[2], view[3]) == (True, "exhausted")
    assert view[1][4] == 1  # pruned


#: Each err lineage chains to ``check 7``, which names no detector and
#: raises when it is stepped.
_RAISES = assemble("""
        addi $2, $2, 1
        addi $2, $2, 1
        check 7
        halt
""")


def test_a_pending_exception_past_the_cut_raises_nothing():
    """Both lineages run ahead to the ``check``; the first one's result
    applies at pop 5, when the second lineage's entry is queued behind it
    and can no longer be popped: it is dropped, where stepping every popped
    state raises there."""
    states = [_err_in(1), _err_in(3)]
    reference = _reference(_RAISES, states, cut=False, max_states=5)
    assert reference[:2] == ("raised", MachineModelError)
    view, cut_pops = _compare_all(_RAISES, states, max_states=5)
    assert view[3] == "state budget exhausted"
    assert view[1][0] == 5 and cut_pops == 1
    # One pop more and the cut is not settled there: it raises.
    raised, _ = _search_view(_RAISES, states, max_states=6)
    assert raised[:2] == ("raised", MachineModelError)


#: A load through err in $1 forks over every memory cell, plus the crash.
_LOAD = assemble("""
        ldi $3, $1, 0
        print $3
        halt
""")


def test_without_dedup_a_fork_is_queued_up_to_the_settling_successor():
    state = _err_in(memory={address: 10 + address for address in range(5)})
    reference = _reference(_LOAD, [state], cut=False, max_states=2,
                           deduplicate=False)
    view, cut_pops = _compare_all(_LOAD, [state], max_states=2,
                                  deduplicate=False)
    assert view[3] == "state budget exhausted"
    # Six successors; the second settles the cut and the rest are never
    # built into the frontier.
    assert reference[1][5] == 6 and view[1][5] == 2
    assert cut_pops == 0  # the one pop after the cut is a terminal crash


def test_a_solution_cap_reached_after_the_cut_settled():
    """The first pop's chain queues the entry that settles the cut; the
    second pop's err lineage is dropped, and the third, err-free, still
    runs its concrete tail to the solution that meets the cap."""
    program = assemble("addi $2, $2, 1\nhalt")
    states = [_err_in(1), _err_in(3), initial_state()]
    view, cut_pops = _compare_all(program, states, max_states=3,
                                  max_solutions=1)
    assert view[3] == "solution cap reached"
    assert view[1][:3] == (3, 2, 1)  # explored, expanded, terminal
    assert len(view[0]) == 1 and cut_pops == 1
