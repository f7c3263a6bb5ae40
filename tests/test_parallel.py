"""Tests for the parallel campaign execution engine (repro.parallel)."""

import pickle

import pytest

from repro.core import (CampaignResult, SearchTask, SymbolicCampaign,
                        TaskCaps, TaskRunner, chunk_injections,
                        decompose_by_chunk, decompose_by_code_section,
                        default_chunk_size, output_contains_err,
                        printed_value_other_than, run_task)
from repro.constraints import Location
from repro.errors import Injection
from repro.machine import ExecutionConfig
from repro.core.search import SearchResultCache
from repro.parallel import (CacheSpec, CampaignSpec, ParallelConfig,
                            ParallelExecutionStrategy, QuerySpec,
                            run_campaign_parallel)
from repro.parallel.worker import initialize_worker, run_work_unit
from repro.programs import factorial_workload, sum_input_workload

WORKERS = 2


def make_campaign(workload, **kwargs):
    defaults = dict(max_solutions_per_injection=10,
                    max_states_per_injection=10_000)
    defaults.update(kwargs)
    return SymbolicCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        detectors=workload.detectors,
        execution_config=ExecutionConfig(max_steps=workload.recommended_max_steps),
        **defaults)


def result_keys(campaign_result):
    """The order-sensitive, timing-free projection used for equivalence."""
    return [(r.injection.label(), r.activated, r.completed,
             [s.state.output_values() for s in r.solutions],
             [s.state.status.value for s in r.solutions])
            for r in campaign_result.results]


class TestChunking:
    def sample(self, count):
        return [Injection(breakpoint_pc=pc, target=Location.register(1))
                for pc in range(count)]

    def test_empty_sweep_yields_no_chunks(self):
        assert chunk_injections([], 4) == []
        assert decompose_by_chunk([], 4) == []

    def test_chunk_larger_than_sweep(self):
        chunks = chunk_injections(self.sample(3), 100)
        assert len(chunks) == 1
        assert len(chunks[0]) == 3

    def test_exact_and_remainder_chunks(self):
        assert [len(c) for c in chunk_injections(self.sample(6), 2)] == [2, 2, 2]
        assert [len(c) for c in chunk_injections(self.sample(7), 3)] == [3, 3, 1]

    def test_chunks_preserve_order(self):
        injections = self.sample(5)
        flattened = [i for chunk in chunk_injections(injections, 2)
                     for i in chunk]
        assert flattened == injections

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_injections(self.sample(3), 0)

    def test_decompose_by_chunk_identifiers(self):
        tasks = decompose_by_chunk(self.sample(5), 2)
        assert [t.identifier for t in tasks] == [0, 1, 2]
        assert all("chunk" in t.description for t in tasks)

    def test_default_chunk_size_heuristic(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(1, 4) == 1
        assert default_chunk_size(100, 4) == 7   # ceil(100 / 16)
        assert default_chunk_size(100, 1) == 25  # ceil(100 / 4)


class TestSpecs:
    def test_query_spec_roundtrip(self):
        spec = QuerySpec.predefined("wrong-final-value", expected_value=120)
        rebuilt = pickle.loads(pickle.dumps(spec))
        assert rebuilt.build().description == spec.build().description

    def test_query_spec_factory(self):
        spec = QuerySpec.from_factory(printed_value_other_than, 120)
        assert pickle.loads(pickle.dumps(spec)).build().description == \
            printed_value_other_than(120).description

    def test_query_spec_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            QuerySpec()
        with pytest.raises(ValueError):
            QuerySpec(kind="crash", factory=output_contains_err)

    def test_cache_spec_builds_a_sized_local_cache(self):
        cache = pickle.loads(pickle.dumps(CacheSpec(max_entries=5))).build()
        assert isinstance(cache, SearchResultCache)
        assert cache.max_entries == 5
        assert CacheSpec().build().max_entries is None

    def test_campaign_spec_roundtrip(self):
        campaign = make_campaign(factorial_workload())
        spec = pickle.loads(pickle.dumps(CampaignSpec.from_campaign(campaign)))
        rebuilt = spec.build()
        assert rebuilt.input_values == campaign.input_values
        assert rebuilt.max_states_per_injection == campaign.max_states_per_injection
        assert len(rebuilt.enumerate_injections()) == \
            len(campaign.enumerate_injections())

    def test_rebuilt_campaign_gives_identical_injection_results(self):
        campaign = make_campaign(factorial_workload())
        rebuilt = CampaignSpec.from_campaign(campaign).build()
        query = output_contains_err()
        injection = campaign.enumerate_injections()[0]
        original = campaign.run_injection(injection, query)
        mirrored = rebuilt.run_injection(injection, query)
        assert original.activated == mirrored.activated
        assert [s.state.output_values() for s in original.solutions] == \
            [s.state.output_values() for s in mirrored.solutions]


class TestParallelCampaign:
    def test_parallel_matches_serial(self):
        campaign = make_campaign(sum_input_workload(count=2, values=(3, 4)))
        spec = QuerySpec.predefined("err-output")
        serial = campaign.run(spec.build())
        parallel = run_campaign_parallel(
            campaign, spec, config=ParallelConfig(workers=WORKERS, chunk_size=2))
        assert result_keys(serial) == result_keys(parallel)
        assert serial.query_description == parallel.query_description

    def test_single_worker_falls_back_to_serial(self):
        campaign = make_campaign(factorial_workload())
        spec = QuerySpec.predefined("err-output")
        injections = campaign.enumerate_injections()[:3]
        result = run_campaign_parallel(campaign, spec, injections=injections,
                                       config=ParallelConfig(workers=1))
        assert result.injections_run == 3

    def test_empty_sweep(self):
        campaign = make_campaign(factorial_workload())
        spec = QuerySpec.predefined("err-output")
        result = run_campaign_parallel(campaign, spec, injections=[],
                                       config=ParallelConfig(workers=WORKERS))
        assert result.injections_run == 0

    def test_progress_reports_monotonic_counts(self):
        campaign = make_campaign(factorial_workload())
        spec = QuerySpec.predefined("err-output")
        injections = campaign.enumerate_injections()[:6]
        seen = []
        run_campaign_parallel(
            campaign, spec, injections=injections,
            config=ParallelConfig(workers=WORKERS, chunk_size=2),
            progress=lambda done, total, last: seen.append((done, total)))
        assert [total for _done, total in seen] == [6, 6, 6]
        assert sorted(done for done, _total in seen) == [2, 4, 6]

    def test_strategy_plugs_into_campaign_run(self):
        campaign = make_campaign(factorial_workload())
        spec = QuerySpec.predefined("err-output")
        injections = campaign.enumerate_injections()[:4]
        strategy = ParallelExecutionStrategy(
            spec, ParallelConfig(workers=WORKERS, chunk_size=1))
        result = campaign.run(spec.build(), injections=injections,
                              strategy=strategy)
        assert result_keys(result) == \
            result_keys(campaign.run(spec.build(), injections=injections))

    def test_mismatched_query_is_rejected(self):
        campaign = make_campaign(factorial_workload())
        strategy = ParallelExecutionStrategy(
            QuerySpec.predefined("crash"), ParallelConfig(workers=WORKERS))
        with pytest.raises(ValueError):
            campaign.run(output_contains_err(),
                         injections=campaign.enumerate_injections()[:2],
                         strategy=strategy)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=0)
        with pytest.raises(ValueError):
            ParallelConfig(workers=2, chunk_size=0)


class TestParallelTasks:
    def test_parallel_task_report_matches_serial(self):
        campaign = make_campaign(factorial_workload(),
                                 max_solutions_per_injection=5,
                                 max_states_per_injection=5_000)
        spec = QuerySpec.predefined("err-output")
        tasks = decompose_by_code_section(campaign.enumerate_injections(),
                                          num_tasks=4)
        runner = TaskRunner(campaign, max_errors_per_task=5)
        serial = runner.run(tasks, spec.build())
        parallel = runner.run(tasks, spec.build(),
                              strategy=ParallelExecutionStrategy(
                                  spec, ParallelConfig(workers=WORKERS)))
        assert parallel.total_tasks == serial.total_tasks
        assert parallel.completed_tasks == serial.completed_tasks
        assert parallel.tasks_with_errors == serial.tasks_with_errors
        assert parallel.total_errors_found == serial.total_errors_found
        assert [t.task.identifier for t in parallel.task_results] == \
            [t.task.identifier for t in serial.task_results]
        assert [len(t.results) for t in parallel.task_results] == \
            [len(t.results) for t in serial.task_results]

    def test_task_strategy_progress(self):
        campaign = make_campaign(factorial_workload(),
                                 max_solutions_per_injection=5,
                                 max_states_per_injection=5_000)
        spec = QuerySpec.predefined("err-output")
        tasks = decompose_by_code_section(campaign.enumerate_injections(),
                                          num_tasks=3)
        runner = TaskRunner(campaign, max_errors_per_task=5)
        seen = []
        runner.run(tasks, spec.build(),
                   strategy=ParallelExecutionStrategy(
                       spec, ParallelConfig(workers=WORKERS)),
                   progress=lambda done, total, last: seen.append((done, total)))
        assert [done for done, _ in seen] == [1, 2, 3]
        assert all(total == 3 for _, total in seen)

    def test_work_unit_ships_back_results_not_injections(self):
        """A worker replies with the task outcome — the result list plus two
        scalars — and never echoes the task it was sent."""
        campaign = make_campaign(factorial_workload(),
                                 max_solutions_per_injection=5,
                                 max_states_per_injection=5_000)
        spec = QuerySpec.predefined("err-output")
        chunk = tuple(campaign.enumerate_injections()[:3])
        with ParallelConfig(workers=1).context().Pool(
                processes=1, initializer=initialize_worker,
                initargs=(CampaignSpec.from_campaign(campaign),
                          spec)) as pool:
            index, outcome, _snapshot = pool.apply(
                run_work_unit, ((7, chunk, TaskCaps(max_errors=1)),))
        assert index == 7
        results, elapsed, completed = outcome
        assert isinstance(elapsed, float) and isinstance(completed, bool)
        assert [r.injection for r in results] == list(chunk[:len(results)])
        assert not any(isinstance(part, SearchTask) for part in outcome)
        serial, _, serial_completed = run_task(
            campaign, chunk, spec.build(), caps=TaskCaps(max_errors=1))
        assert result_keys(CampaignResult("", results=results)) \
            == result_keys(CampaignResult("", results=serial))
        assert completed == serial_completed

    def test_single_task_falls_back_to_serial(self):
        campaign = make_campaign(factorial_workload(),
                                 max_solutions_per_injection=5,
                                 max_states_per_injection=5_000)
        spec = QuerySpec.predefined("err-output")
        tasks = decompose_by_code_section(campaign.enumerate_injections(),
                                          num_tasks=1)
        runner = TaskRunner(campaign, max_errors_per_task=5)
        report = runner.run(tasks, spec.build(),
                            strategy=ParallelExecutionStrategy(
                                spec, ParallelConfig(workers=WORKERS)))
        assert report.total_tasks == 1
