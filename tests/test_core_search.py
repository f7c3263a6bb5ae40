"""Tests for outcomes, queries and the bounded model checker."""

import pytest

from repro.constraints import Location
from repro.core import (BoundedModelChecker, OutcomeKind, SearchResultCache,
                        classify, crashed, default_expected_value, detected,
                        halted_normally, hung, incorrect_output,
                        output_contains_err, output_differs, output_equals,
                        printed_value, printed_value_other_than,
                        undetected_failure)
from repro.errors import Injection, prepare_injected_state
from repro.isa.values import ERR
from repro.machine import ExecutionConfig, Executor, MachineState, Status
from repro.machine.state import state_contains_err
from repro.programs import (factorial_workload, load_workload,
                            loop_counter_injection_pc)


def terminal_state(status, output=(), exception=None, detector_id=None):
    state = MachineState()
    for item in output:
        state.append_output(item)
    if status is Status.HALTED:
        state.halt()
    elif status is Status.EXCEPTION:
        state.throw(exception or "boom")
    elif status is Status.TIMEOUT:
        state.time_out("timed out")
    elif status is Status.DETECTED:
        state.detect(detector_id or 1, "detector fired")
    return state


class TestOutcomeClassification:
    def test_correct(self):
        state = terminal_state(Status.HALTED, output=[1])
        assert classify(state, golden_output=(1,)).kind is OutcomeKind.CORRECT

    def test_incorrect_output(self):
        state = terminal_state(Status.HALTED, output=[2])
        outcome = classify(state, golden_output=(1,))
        assert outcome.kind is OutcomeKind.INCORRECT_OUTPUT
        assert outcome.kind.is_failure()

    def test_err_output(self):
        state = terminal_state(Status.HALTED, output=[ERR])
        assert classify(state, golden_output=(1,)).kind is OutcomeKind.ERR_OUTPUT

    def test_crash_hang_detected(self):
        assert classify(terminal_state(Status.EXCEPTION)).kind is OutcomeKind.CRASH
        assert classify(terminal_state(Status.TIMEOUT)).kind is OutcomeKind.HANG
        outcome = classify(terminal_state(Status.DETECTED, detector_id=7))
        assert outcome.kind is OutcomeKind.DETECTED
        assert not outcome.kind.is_failure()

    def test_running_state_rejected(self):
        with pytest.raises(ValueError):
            classify(MachineState())

    def test_describe_mentions_output(self):
        outcome = classify(terminal_state(Status.HALTED, output=[5]), golden_output=(1,))
        assert "5" in outcome.describe()

    def test_default_expected_value_is_the_last_printed_int(self):
        assert default_expected_value(("Factorial = ", 120)) == 120
        assert default_expected_value((3, "x", 7, "y")) == 7
        assert default_expected_value(("no number",)) is None


class TestQueries:
    def test_primitive_queries(self):
        halted = terminal_state(Status.HALTED, output=[3])
        crashed_state = terminal_state(Status.EXCEPTION)
        err_state = terminal_state(Status.HALTED, output=[ERR])

        assert halted_normally()(halted)
        assert not halted_normally()(crashed_state)
        assert crashed()(crashed_state)
        assert hung()(terminal_state(Status.TIMEOUT))
        assert detected()(terminal_state(Status.DETECTED))
        assert output_contains_err()(err_state)
        assert printed_value(3)(halted)
        assert output_equals([3])(halted)
        assert output_differs([4])(halted)

    def test_combinators(self):
        state = terminal_state(Status.HALTED, output=[2])
        query = halted_normally() & output_differs([1])
        assert query(state)
        assert not (~query)(state)
        assert (crashed() | halted_normally())(state)
        assert "and" in query.description

    def test_incorrect_output_query(self):
        query = incorrect_output([1])
        assert query(terminal_state(Status.HALTED, output=[2]))
        assert not query(terminal_state(Status.HALTED, output=[1]))
        assert not query(terminal_state(Status.EXCEPTION, output=[2]))

    def test_undetected_failure_query(self):
        query = undetected_failure([1])
        assert query(terminal_state(Status.EXCEPTION))
        assert query(terminal_state(Status.HALTED, output=[9]))
        assert not query(terminal_state(Status.DETECTED))
        assert not query(terminal_state(Status.HALTED, output=[1]))

    def test_printed_value_other_than(self):
        query = printed_value_other_than(1)
        assert query(terminal_state(Status.HALTED, output=[2]))
        assert query(terminal_state(Status.HALTED, output=[ERR]))
        assert not query(terminal_state(Status.HALTED, output=[1]))
        assert not query(terminal_state(Status.EXCEPTION, output=[2]))
        allowed = printed_value_other_than(1, allowed=(0,))
        assert not allowed(terminal_state(Status.HALTED, output=[0]))


class TestBoundedModelChecker:
    def make_factorial_search(self, **checker_kwargs):
        workload = factorial_workload()
        executor = Executor(workload.program, workload.detectors,
                            ExecutionConfig(max_steps=200))
        checker = BoundedModelChecker(executor, **checker_kwargs)
        subi_pc = loop_counter_injection_pc(workload)
        injection = Injection(breakpoint_pc=subi_pc + 1,
                              target=Location.register(3))
        injected = prepare_injected_state(workload.program, injection,
                                          workload.initial_state())
        return checker, injected

    def test_search_finds_err_outputs(self):
        checker, injected = self.make_factorial_search(max_solutions=50,
                                                       max_states=50_000)
        result = checker.search_single(injected, output_contains_err())
        assert result.found
        assert all(sol.state.output_contains_err() for sol in result.solutions)
        assert result.statistics.explored_states > 0
        assert "solutions" in result.describe()

    def test_exhaustive_search_completes(self):
        checker, injected = self.make_factorial_search(max_solutions=1000,
                                                       max_states=100_000)
        result = checker.search_single(injected, output_contains_err())
        assert result.completed
        assert result.stop_reason == "exhausted"

    def test_solution_cap_stops_early(self):
        checker, injected = self.make_factorial_search(max_solutions=1,
                                                       max_states=100_000)
        result = checker.search_single(injected, printed_value_other_than(120))
        assert len(result.solutions) == 1
        assert not result.completed
        assert result.stop_reason == "solution cap reached"

    def test_state_budget_stops_early(self):
        checker, injected = self.make_factorial_search(max_solutions=1000,
                                                       max_states=3)
        result = checker.search_single(injected, output_contains_err())
        assert not result.completed
        assert result.stop_reason == "state budget exhausted"

    @staticmethod
    def _caller_view(state):
        return (state.fingerprint(), state.steps, state.status)

    def test_an_err_free_initial_state_is_left_to_the_caller(self):
        """The concretize handoff finishes err-free states in place; it
        must do so on the search's own copy, not on the caller's state."""
        campaign, query = load_workload("factorial").campaign(
            kind="err-output", fault_model="bitflip")
        for injection in campaign.plan_injections():
            injected = prepare_injected_state(
                campaign.program, injection, campaign.fresh_initial_state())
            if injected is not None:
                break
        assert injected.is_running and not state_contains_err(injected)
        before = self._caller_view(injected)
        executor = Executor(campaign.program, campaign.detectors,
                            campaign.execution_config)
        result = BoundedModelChecker(executor).search([injected], query)
        assert result.statistics.terminal_states == 1
        assert self._caller_view(injected) == before
        assert injected.is_running

    def test_an_err_carrying_initial_state_is_left_to_the_caller(self):
        checker, injected = self.make_factorial_search(max_solutions=50,
                                                       max_states=50_000)
        assert state_contains_err(injected)
        before = self._caller_view(injected)
        result = checker.search([injected, injected], output_contains_err())
        assert result.found
        assert self._caller_view(injected) == before

    def test_no_error_no_solutions_is_a_proof(self):
        workload = factorial_workload()
        executor = Executor(workload.program, workload.detectors,
                            ExecutionConfig(max_steps=200))
        checker = BoundedModelChecker(executor, max_solutions=10,
                                      max_states=10_000)
        result = checker.search_single(workload.initial_state(), crashed())
        assert result.completed and not result.found

    def test_factorial_outcomes_match_paper_fig2(self):
        """Injecting err into the loop counter after the k-th decrement must
        yield exactly the partial products the paper lists (Section 4.1)."""
        workload = factorial_workload()
        executor = Executor(workload.program, workload.detectors,
                            ExecutionConfig(max_steps=150))
        checker = BoundedModelChecker(executor, max_solutions=500,
                                      max_states=100_000)
        subi_pc = loop_counter_injection_pc(workload)
        printed = set()
        for occurrence in range(1, 6):
            injection = Injection(breakpoint_pc=subi_pc + 1,
                                  target=Location.register(3),
                                  occurrence=occurrence)
            injected = prepare_injected_state(workload.program, injection,
                                              workload.initial_state())
            if injected is None:
                continue
            result = checker.search_single(injected, halted_normally())
            for solution in result.solutions:
                values = solution.state.printed_integers()
                if values and not values[-1] is ERR:
                    printed.add(values[-1])
        assert {5, 20, 60, 120}.issubset(printed)

    def test_wall_clock_budget_uses_monotonic_clock(self, monkeypatch):
        """The search budget must be immune to wall-clock adjustments.

        A backwards `time.time` jump (NTP correction, DST, manual reset) must
        neither prematurely kill nor unbound a search, so the implementation
        has to read `time.monotonic`.  Sabotage `time.time` and check a
        tightly-budgeted search still terminates with the correct verdict.
        """
        import time as time_module

        def broken_time():
            raise AssertionError("search must not consult time.time()")

        monkeypatch.setattr(time_module, "time", broken_time)
        checker, injected = self.make_factorial_search(
            max_solutions=1000, max_states=100_000, wall_clock_seconds=60.0)
        result = checker.search_single(injected, output_contains_err())
        assert result.completed
        assert result.stop_reason == "exhausted"
        assert result.statistics.elapsed_seconds < 60.0

    def test_result_cache_hit_returns_identical_result(self):
        cache = SearchResultCache()
        checker, injected = self.make_factorial_search(
            max_solutions=50, max_states=50_000, result_cache=cache)
        first = checker.search_single(injected.copy(), output_contains_err())
        second = checker.search_single(injected.copy(), output_contains_err())
        assert cache.statistics.hits == 1
        assert cache.statistics.misses == 1
        assert cache.statistics.stores == 1
        assert second is first  # the memoised object itself
        assert len(cache) == 1

    def test_result_cache_distinguishes_queries_and_caps(self):
        cache = SearchResultCache()
        checker, injected = self.make_factorial_search(
            max_solutions=50, max_states=50_000, result_cache=cache)
        checker.search_single(injected.copy(), output_contains_err())
        checker.search_single(injected.copy(), halted_normally())
        checker.max_states = 40_000
        checker.search_single(injected.copy(), output_contains_err())
        assert cache.statistics.hits == 0
        assert len(cache) == 3

    def test_result_cache_distinguishes_executors(self):
        """Identical states under different executors must not cross-talk
        (the executor carries the program, detectors and config)."""
        cache = SearchResultCache()
        checker_a, injected_a = self.make_factorial_search(
            max_solutions=50, max_states=50_000, result_cache=cache)
        checker_b, injected_b = self.make_factorial_search(
            max_solutions=50, max_states=50_000, result_cache=cache)
        checker_a.search_single(injected_a.copy(), output_contains_err())
        checker_b.search_single(injected_b.copy(), output_contains_err())
        assert cache.statistics.hits == 0
        assert len(cache) == 2

    def test_result_cache_eviction_bound(self):
        cache = SearchResultCache(max_entries=1)
        checker, injected = self.make_factorial_search(
            max_solutions=50, max_states=50_000, result_cache=cache)
        checker.search_single(injected.copy(), output_contains_err())
        checker.search_single(injected.copy(), halted_normally())
        assert len(cache) == 1
        assert cache.statistics.evictions == 1

    def test_result_cache_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            SearchResultCache(max_entries=0)

    def test_result_cache_is_lru_not_fifo(self):
        """A hit must refresh recency: the hot key survives, the cold one
        is evicted (pure FIFO would evict the hot key instead)."""
        cache = SearchResultCache(max_entries=2)
        cache.store("hot", "result-hot")
        cache.store("cold", "result-cold")
        assert cache.get("hot") == "result-hot"   # refresh "hot"
        cache.store("new", "result-new")          # evicts "cold", not "hot"
        assert cache.get("hot") == "result-hot"
        assert cache.get("cold") is None
        assert cache.get("new") == "result-new"
        assert cache.statistics.evictions == 1

    def test_cache_statistics_describe_and_accumulate(self):
        from repro.core import CacheStatistics
        a = CacheStatistics(hits=3, misses=1, stores=1, evictions=0)
        b = CacheStatistics(hits=1, misses=1, stores=1, evictions=1)
        a.accumulate(b)
        assert (a.hits, a.misses, a.stores, a.evictions) == (4, 2, 2, 1)
        text = a.describe()
        assert "hits=4" in text and "hit_rate=66.7%" in text

    def test_concretize_option_gives_same_outcomes(self):
        workload = factorial_workload()
        executor = Executor(workload.program, workload.detectors,
                            ExecutionConfig(max_steps=150))
        subi_pc = loop_counter_injection_pc(workload)
        injection = Injection(breakpoint_pc=subi_pc + 1, target=Location.register(3))

        outputs = {}
        for concretize in (True, False):
            checker = BoundedModelChecker(executor, max_solutions=1000,
                                          max_states=100_000,
                                          concretize=concretize)
            injected = prepare_injected_state(workload.program, injection,
                                              workload.initial_state())
            result = checker.search_single(injected, halted_normally())
            outputs[concretize] = {sol.state.output_values()
                                   for sol in result.solutions}
        assert outputs[True] == outputs[False]


class TestSearchResultCacheLru:
    """Eviction-order and statistics-aggregation edge cases (PR 3)."""

    def test_eviction_follows_lru_order(self):
        cache = SearchResultCache(max_entries=3)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.store("c", 3)
        assert cache.get("a") == 1          # refresh: order is now b, c, a
        cache.store("d", 4)                 # evicts b (least recently used)
        assert cache.get("b") is None
        cache.store("e", 5)                 # evicts c, the next-coldest
        assert cache.get("c") is None
        assert [cache.get(key) for key in ("a", "d", "e")] == [1, 4, 5]
        assert cache.statistics.evictions == 2

    def test_max_entries_one_keeps_only_the_latest(self):
        cache = SearchResultCache(max_entries=1)
        cache.store("first", 1)
        cache.store("first", 10)            # overwrite, not an eviction
        assert cache.statistics.evictions == 0
        assert cache.get("first") == 10
        cache.store("second", 2)            # capacity 1: first must go
        assert len(cache) == 1
        assert cache.get("first") is None
        assert cache.get("second") == 2
        assert cache.statistics.evictions == 1

    def test_accumulate_aggregates_across_worker_snapshots(self):
        from repro.core import CacheStatistics
        snapshots = [
            ("worker-0", CacheStatistics(hits=5, misses=3, stores=3,
                                         evictions=1)),
            ("worker-1", CacheStatistics(hits=0, misses=4, stores=4,
                                         evictions=0)),
            ("worker-2", CacheStatistics(hits=7, misses=1, stores=1,
                                         evictions=2)),
        ]
        total = CacheStatistics()
        for _, stats in snapshots:
            total.accumulate(stats)
        assert (total.hits, total.misses) == (12, 8)
        assert (total.stores, total.evictions) == (8, 3)
        assert total.lookups == 20
        assert total.hit_rate == pytest.approx(0.6)
