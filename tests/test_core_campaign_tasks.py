"""Tests for symbolic campaigns, task decomposition and witnesses."""

import pytest

from repro.core import (SerialExecutionStrategy, SymbolicCampaign, TaskCaps,
                        TaskRunner, decompose_by_code_section,
                        decompose_by_injection, output_contains_err,
                        printed_value_other_than, run_task,
                        witnesses_from_campaign)
from repro.errors import Injection
from repro.constraints import Location
from repro.machine import ExecutionConfig
from repro.programs import (factorial_workload,
                            factorial_with_detectors_workload,
                            loop_counter_injection_pc, sum_input_workload)


def make_campaign(workload, **kwargs):
    defaults = dict(max_solutions_per_injection=20,
                    max_states_per_injection=20_000)
    defaults.update(kwargs)
    return SymbolicCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        detectors=workload.detectors,
        execution_config=ExecutionConfig(max_steps=workload.recommended_max_steps),
        **defaults)


class TestSymbolicCampaign:
    def test_enumerate_injections_covers_program(self):
        workload = factorial_workload()
        campaign = make_campaign(workload)
        injections = campaign.enumerate_injections()
        assert injections
        assert all(0 <= i.breakpoint_pc < len(workload.program) for i in injections)

    def test_single_injection_result(self):
        workload = factorial_workload()
        campaign = make_campaign(workload)
        subi_pc = loop_counter_injection_pc(workload)
        injection = Injection(breakpoint_pc=subi_pc + 1, target=Location.register(3))
        result = campaign.run_injection(injection, output_contains_err())
        assert result.activated
        assert result.found_solutions

    def test_unactivated_injection(self):
        workload = factorial_workload()
        campaign = make_campaign(workload)
        # The halt instruction is at the end; a breakpoint past it with
        # occurrence 2 can never be reached twice.
        injection = Injection(breakpoint_pc=0, target=Location.register(2),
                              occurrence=2)
        result = campaign.run_injection(injection, output_contains_err())
        assert not result.activated
        assert not result.found_solutions
        assert result.completed

    def test_full_campaign_on_small_program(self):
        workload = sum_input_workload(count=2, values=(3, 4))
        campaign = make_campaign(workload, max_solutions_per_injection=5,
                                 max_states_per_injection=5_000)
        golden = workload.golden_output()
        query = printed_value_other_than(golden[-1])
        result = campaign.run(query)
        assert result.injections_run == len(campaign.enumerate_injections())
        assert result.injections_activated > 0
        assert result.total_solutions >= result.injections_with_solutions
        assert "injections run" in result.describe()
        # classification against the golden output never yields "correct"
        for _injection, outcome in result.outcomes(golden):
            assert outcome.kind.value != "correct"

    def test_detectors_catch_some_errors(self):
        """For the Figure 3 program, the same loop-counter error that slips
        through the unprotected program is caught by detector 2 on at least
        one execution path (Section 4.2)."""
        from repro.core import detected

        protected = factorial_with_detectors_workload()
        campaign = make_campaign(protected, max_solutions_per_injection=50,
                                 max_states_per_injection=30_000)
        subi_pc = next(i for i, ins in enumerate(protected.program.code)
                       if ins.opcode == "subi")
        injections = [Injection(breakpoint_pc=subi_pc + 1,
                                target=Location.register(3))]
        detected_result = campaign.run(detected(), injections=injections)
        assert detected_result.total_solutions > 0
        # ... but not every path is caught: some errors still evade detection.
        missed_result = campaign.run(output_contains_err(), injections=injections)
        assert missed_result.total_solutions > 0

    def test_progress_callback(self):
        workload = factorial_workload()
        campaign = make_campaign(workload)
        injections = campaign.enumerate_injections()[:3]
        seen = []
        campaign.run(output_contains_err(), injections=injections,
                     progress=lambda done, total, result: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestTaskDecomposition:
    def sample_injections(self, count=10):
        return [Injection(breakpoint_pc=pc, target=Location.register(1))
                for pc in range(count)]

    def test_decompose_by_code_section_partitions_everything(self):
        injections = self.sample_injections(10)
        tasks = decompose_by_code_section(injections, num_tasks=3)
        assert len(tasks) == 3
        flattened = [i for task in tasks for i in task.injections]
        assert sorted(i.breakpoint_pc for i in flattened) == list(range(10))
        # contiguous sections
        for task in tasks:
            pcs = [i.breakpoint_pc for i in task.injections]
            assert pcs == sorted(pcs)

    def test_more_tasks_than_injections(self):
        tasks = decompose_by_code_section(self.sample_injections(2), num_tasks=10)
        assert len(tasks) == 2

    def test_invalid_task_count(self):
        with pytest.raises(ValueError):
            decompose_by_code_section(self.sample_injections(2), num_tasks=0)

    def test_decompose_by_injection(self):
        tasks = decompose_by_injection(self.sample_injections(4))
        assert len(tasks) == 4
        assert all(len(task) == 1 for task in tasks)

    def test_empty_campaign_decomposes_to_no_tasks(self):
        assert decompose_by_code_section([], num_tasks=5) == []
        assert decompose_by_injection([]) == []

    def test_empty_campaign_report_is_all_zero(self):
        workload = factorial_workload()
        campaign = make_campaign(workload)
        runner = TaskRunner(campaign)
        report = runner.run([], output_contains_err())
        assert report.total_tasks == 0
        assert report.completed_tasks == 0
        assert report.total_errors_found == 0
        assert report.average_completion_seconds() == 0.0
        assert report.max_completion_seconds() == 0.0

    def test_empty_campaign_run_produces_empty_result(self):
        workload = factorial_workload()
        campaign = make_campaign(workload)
        result = campaign.run(output_contains_err(), injections=[])
        assert result.injections_run == 0
        assert result.total_solutions == 0
        assert result.solutions() == []


class ChunkedSerialStrategy(SerialExecutionStrategy):
    """The serial backend, sweeping in tasks of a fixed size."""

    def __init__(self, chunk_size):
        super().__init__()
        self.chunk_size = chunk_size

    def sweep_chunk_size(self, total):
        return self.chunk_size


class CapsRecordingStrategy(SerialExecutionStrategy):
    """The serial backend, noting the caps each batch of tasks ran under."""

    def __init__(self):
        super().__init__()
        self.seen_caps = []

    def run_tasks(self, campaign, tasks, query, caps=None):
        self.seen_caps.append(caps)
        return super().run_tasks(campaign, tasks, query, caps)


class TestSweepAsTasks:
    """A sweep runs as uncapped tasks through the backend's task loop."""

    def sweep_fixture(self, max_injections=8):
        workload = factorial_workload()
        campaign = make_campaign(workload, max_solutions_per_injection=10,
                                 max_states_per_injection=10_000)
        injections = campaign.enumerate_injections()[:max_injections]
        return campaign, injections

    @staticmethod
    def keys(results):
        return [(r.injection.label(), r.activated, r.completed,
                 [s.state.output_values() for s in r.solutions])
                for r in results]

    def test_chunked_sweep_matches_per_injection_sweep(self):
        campaign, injections = self.sweep_fixture()
        query = output_contains_err()
        direct = campaign.run(query, injections=injections)
        swept = campaign.run(query, injections=injections,
                             strategy=ChunkedSerialStrategy(3))
        assert self.keys(swept.results) == self.keys(direct.results)
        assert swept.injections_run == direct.injections_run

    def test_results_are_emitted_incrementally_per_task(self):
        campaign, injections = self.sweep_fixture(max_injections=6)
        strategy = ChunkedSerialStrategy(2)
        emitted = []
        strategy.result_sink = lambda injection, result: \
            emitted.append(injection.label())
        progress = []
        campaign.run(output_contains_err(), injections=injections,
                     progress=lambda done, total, last:
                     progress.append((done, total, len(emitted))),
                     strategy=strategy)
        assert emitted == [i.label() for i in injections]
        assert progress == [(2, 6, 2), (4, 6, 4), (6, 6, 6)]

    def test_empty_sweep(self):
        campaign, _ = self.sweep_fixture()
        strategy = SerialExecutionStrategy()
        assert strategy.run(campaign, [], output_contains_err()) == []

    def test_sweep_runs_uncapped(self):
        campaign, injections = self.sweep_fixture()
        strategy = CapsRecordingStrategy()
        result = campaign.run(output_contains_err(), injections=injections,
                              strategy=strategy)
        assert strategy.seen_caps == [None]
        assert result.injections_run == len(injections)


class TestRunTask:
    """The one work unit every backend runs: a task's injections in order,
    stopped by its caps."""

    def task_fixture(self, **kwargs):
        campaign = make_campaign(factorial_workload(),
                                 max_solutions_per_injection=5,
                                 max_states_per_injection=5_000, **kwargs)
        return campaign, campaign.enumerate_injections()

    def test_uncapped_task_runs_every_injection(self):
        campaign, injections = self.task_fixture()
        results, elapsed, completed = run_task(campaign, injections,
                                               output_contains_err())
        assert [r.injection for r in results] == injections
        assert completed
        assert elapsed >= 0.0

    def test_error_cap_stops_after_the_capping_injection(self):
        campaign, injections = self.task_fixture()
        query = output_contains_err()
        uncapped, _, _ = run_task(campaign, injections, query)
        found, stop = 0, len(uncapped)
        for index, result in enumerate(uncapped):
            found += len(result.solutions)
            if found >= 3:
                stop = index + 1
                break
        # The cap must bite before the end of the sweep to mean anything.
        assert stop < len(injections)
        results, _, completed = run_task(campaign, injections, query,
                                         caps=TaskCaps(max_errors=3))
        assert [r.injection for r in results] == injections[:stop]
        assert completed, "reaching the error cap completes a task"

    def test_wall_clock_cap_marks_task_incomplete(self):
        campaign, injections = self.task_fixture()
        results, _, completed = run_task(
            campaign, injections, output_contains_err(),
            caps=TaskCaps(max_errors=10_000, wall_clock=1e-9))
        assert results == []
        assert not completed

    def test_exhausted_search_without_solution_marks_task_incomplete(self):
        campaign = make_campaign(factorial_workload(),
                                 max_solutions_per_injection=5,
                                 max_states_per_injection=3)
        injections = campaign.enumerate_injections()
        results, _, completed = run_task(campaign, injections,
                                         output_contains_err())
        assert len(results) == len(injections)
        assert any(not r.completed and not r.found_solutions
                   for r in results)
        assert not completed

    def test_empty_task_is_complete(self):
        campaign, _ = self.task_fixture()
        results, _, completed = run_task(campaign, [], output_contains_err(),
                                         caps=TaskCaps(max_errors=1))
        assert results == []
        assert completed

    def test_injections_run_through_the_campaign_instance(self, monkeypatch):
        """A run_injection patched on the class sees every experiment."""
        campaign, injections = self.task_fixture()
        seen = []
        original = SymbolicCampaign.run_injection

        def counting(self, injection, query, result_cache=None):
            seen.append(injection)
            return original(self, injection, query, result_cache=result_cache)

        monkeypatch.setattr(SymbolicCampaign, "run_injection", counting)
        results, _, _ = run_task(campaign, injections[:4],
                                 output_contains_err())
        assert seen == injections[:4]
        assert len(results) == 4


class TestTaskRunner:
    def test_task_report_statistics(self):
        workload = factorial_workload()
        campaign = make_campaign(workload, max_solutions_per_injection=5,
                                 max_states_per_injection=5_000)
        injections = campaign.enumerate_injections()
        tasks = decompose_by_code_section(injections, num_tasks=4)
        runner = TaskRunner(campaign, max_errors_per_task=5)
        report = runner.run(tasks, output_contains_err())
        assert report.total_tasks == 4
        assert report.completed_tasks + report.incomplete_tasks == 4
        assert report.tasks_with_errors + report.tasks_without_errors \
            <= report.completed_tasks
        assert report.total_errors_found >= report.tasks_with_errors
        assert report.average_completion_seconds() >= 0.0
        assert "search tasks" in report.describe()

    def test_error_cap_limits_task(self):
        workload = factorial_workload()
        campaign = make_campaign(workload, max_solutions_per_injection=5,
                                 max_states_per_injection=5_000)
        injections = campaign.enumerate_injections()
        tasks = decompose_by_code_section(injections, num_tasks=1)
        runner = TaskRunner(campaign, max_errors_per_task=1)
        report = runner.run(tasks, output_contains_err())
        task_result = report.task_results[0]
        # the task stops sweeping soon after the first errors are found
        assert len(task_result.results) < len(injections)

    def test_wall_clock_cap_marks_incomplete(self):
        workload = factorial_workload()
        campaign = make_campaign(workload)
        injections = campaign.enumerate_injections()
        tasks = decompose_by_code_section(injections, num_tasks=1)
        runner = TaskRunner(campaign, max_errors_per_task=10_000,
                            wall_clock_per_task=1e-9)
        report = runner.run(tasks, output_contains_err())
        assert report.incomplete_tasks == 1

    def test_runner_hands_its_caps_to_the_strategy(self):
        campaign = make_campaign(factorial_workload())
        tasks = decompose_by_code_section(campaign.enumerate_injections(),
                                          num_tasks=2)
        strategy = CapsRecordingStrategy()
        TaskRunner(campaign, max_errors_per_task=4,
                   wall_clock_per_task=60.0).run(
            tasks, output_contains_err(), strategy=strategy)
        assert strategy.seen_caps == [TaskCaps(max_errors=4, wall_clock=60.0)]

    @pytest.mark.parametrize("caps", [
        {"max_errors_per_task": 0}, {"max_errors_per_task": -3},
        {"wall_clock_per_task": 0.0}, {"wall_clock_per_task": -1.0}],
        ids=["errors-zero", "errors-negative", "wall-clock-zero",
             "wall-clock-negative"])
    def test_non_positive_caps_are_rejected(self, caps):
        """A zero or negative cap would silently skip every injection."""
        campaign = make_campaign(factorial_workload())
        with pytest.raises(ValueError, match="task caps must be positive"):
            TaskRunner(campaign, **caps)

    @pytest.mark.parametrize("caps", [
        {"max_errors_per_task": 1}, {"wall_clock_per_task": 1e-9}],
        ids=["errors-one", "wall-clock-tiny"])
    def test_smallest_positive_caps_are_accepted(self, caps):
        campaign = make_campaign(factorial_workload())
        runner = TaskRunner(campaign, **caps)
        for name, value in caps.items():
            assert getattr(runner, name) == value


class TestWitnesses:
    def test_witness_rendering(self):
        workload = factorial_workload()
        campaign = make_campaign(workload)
        subi_pc = loop_counter_injection_pc(workload)
        injections = [Injection(breakpoint_pc=subi_pc + 1,
                                target=Location.register(3))]
        result = campaign.run(output_contains_err(), injections=injections)
        witnesses = witnesses_from_campaign(workload.program, result,
                                            golden_output=workload.golden_output())
        assert witnesses
        text = witnesses[0].render()
        assert "injection" in text
        assert "outcome" in text
        assert witnesses[0].outcome.kind.value in text
