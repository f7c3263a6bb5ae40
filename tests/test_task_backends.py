"""Capped search tasks on every backend (paper Section 6.1).

A task is a chunk of injections with two optional caps, and every backend
runs it through the same work unit — in-process or in a broker worker.  A
capped task campaign must therefore report the same tasks, results,
completion and error counts wherever its tasks ran; only timing may differ.
"""

import pytest

from repro.core import (SerialExecutionStrategy, SymbolicCampaign,
                        TaskRunner, decompose_by_code_section)
from repro.distributed import DistributedConfig, DistributedExecutionStrategy
from repro.machine import ExecutionConfig
from repro.parallel import QuerySpec
from repro.programs import factorial_workload

BACKENDS = ("serial", "local-workers", "tcp-broker")


def factorial_tasks():
    workload = factorial_workload()
    campaign = SymbolicCampaign(
        workload.program,
        input_values=workload.default_input,
        execution_config=ExecutionConfig(
            max_steps=workload.recommended_max_steps),
        max_solutions_per_injection=5,
        max_states_per_injection=5_000)
    tasks = decompose_by_code_section(campaign.enumerate_injections(),
                                      num_tasks=4)
    query_spec = QuerySpec.predefined("err-output",
                                      golden_output=workload.golden_output())
    return campaign, tasks, query_spec


def report_keys(report):
    """The timing-free projection of a task report."""
    return [(task_result.task.identifier, task_result.completed,
             task_result.errors_found,
             [(result.injection.label(), result.activated, result.completed,
               [solution.state.output_values()
                for solution in result.solutions])
              for result in task_result.results])
            for task_result in report.task_results]


def make_strategy(backend, query_spec, server):
    if backend == "serial":
        return SerialExecutionStrategy()
    # local-workers is `repro analyze --workers 2`: a private broker.
    queue = None if backend == "local-workers" else server.url
    return DistributedExecutionStrategy(
        query_spec, DistributedConfig(workers=2, queue_dir=queue,
                                      poll_interval=0.01,
                                      wall_clock_timeout=300.0))


@pytest.mark.parametrize("backend", BACKENDS)
def test_capped_tasks_report_identically_on_every_backend(backend, server):
    campaign, tasks, query_spec = factorial_tasks()
    runner = TaskRunner(campaign, max_errors_per_task=1)
    serial = runner.run(tasks, query_spec.build())
    # The error cap must cut tasks short, or equality would not show that
    # remote workers honour it.
    assert any(len(task_result.results) < len(task_result.task)
               for task_result in serial.task_results)

    strategy = make_strategy(backend, query_spec, server)
    progress = []
    report = runner.run(tasks, query_spec.build(), strategy=strategy,
                        progress=lambda done, total, _result:
                        progress.append((done, total)))
    assert report_keys(report) == report_keys(serial)
    assert progress == [(done, len(tasks))
                        for done in range(1, len(tasks) + 1)]

    empty = runner.run([], query_spec.build(), strategy=strategy)
    assert empty.total_tasks == 0
    if backend != "serial":
        assert strategy.cache_statistics is not None


@pytest.mark.parametrize("backend", BACKENDS)
def test_wall_clock_cap_marks_every_task_incomplete_on_every_backend(
        backend, server):
    campaign, tasks, query_spec = factorial_tasks()
    runner = TaskRunner(campaign, max_errors_per_task=10_000,
                        wall_clock_per_task=1e-9)
    strategy = make_strategy(backend, query_spec, server)
    report = runner.run(tasks, query_spec.build(), strategy=strategy)
    assert [t.task.identifier for t in report.task_results] \
        == [task.identifier for task in tasks]
    assert report.incomplete_tasks == len(tasks)
    assert all(t.results == [] for t in report.task_results)


@pytest.mark.parametrize("backend", BACKENDS)
def test_uncapped_sweep_matches_serial_on_every_backend(backend, server):
    """A sweep is the same loop with no caps: every injection runs, each
    result is emitted once, and the merge restores sweep order."""
    campaign, _, query_spec = factorial_tasks()
    injections = campaign.enumerate_injections()
    serial = campaign.run(query_spec.build(), injections=injections)

    strategy = make_strategy(backend, query_spec, server)
    emitted = []
    strategy.result_sink = lambda injection, result: \
        emitted.append(injection.label())
    progress = []
    swept = campaign.run(query_spec.build(), injections=injections,
                         strategy=strategy,
                         progress=lambda done, total, _last:
                         progress.append((done, total)))
    labels = [injection.label() for injection in injections]
    assert [r.injection.label() for r in swept.results] == labels
    assert [len(r.solutions) for r in swept.results] \
        == [len(r.solutions) for r in serial.results]
    assert sorted(emitted) == sorted(labels)
    assert progress[-1] == (len(injections), len(injections))


def test_sweep_chunk_size_follows_each_backend():
    _, _, query_spec = factorial_tasks()
    assert SerialExecutionStrategy().sweep_chunk_size(100) == 1
    assert DistributedExecutionStrategy(
        query_spec, DistributedConfig(chunk_size=5)
    ).sweep_chunk_size(100) == 5
    # Without an explicit size, a few chunks per worker.
    assert DistributedExecutionStrategy(
        query_spec, DistributedConfig(workers=4)
    ).sweep_chunk_size(100) == 7
