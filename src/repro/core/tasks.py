"""Search-task decomposition (paper Section 6.1, "Running Time").

The paper splits the overall search command into many smaller searches, each
sweeping a particular section of the program code, and runs them as
independent tasks on a cluster — 150 tasks for tcas, 312 for replace — with
per-task caps (at most 10 errors found, at most 30 minutes of wall-clock).
The aggregate campaign then reports how many tasks completed, how many found
errors, and the average completion times, which is exactly the data reported
in Sections 6.2 and 6.4.

This module reproduces the decomposition and the aggregate statistics.  A
task is a chunk of injections with two optional caps, so any backend's
:class:`~repro.core.campaign.ExecutionStrategy` runs it: in-process by
default, or in broker worker processes, with the caps travelling
inside each work unit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors.injector import Injection
from .campaign import (ExecutionStrategy, InjectionResult, SearchTask,
                       SerialExecutionStrategy, SymbolicCampaign, TaskCaps)
from .queries import SearchQuery


@dataclass
class TaskResult:
    """Result of running one search task under its caps."""

    task: SearchTask
    results: List[InjectionResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    completed: bool = True

    @property
    def errors_found(self) -> int:
        return sum(len(result.solutions) for result in self.results)

    @property
    def found_errors(self) -> bool:
        return self.errors_found > 0


@dataclass
class TaskCampaignReport:
    """Aggregate statistics over every task — the Section 6.2/6.4 numbers."""

    task_results: List[TaskResult] = field(default_factory=list)
    query_description: str = ""
    elapsed_seconds: float = 0.0

    @property
    def total_tasks(self) -> int:
        return len(self.task_results)

    @property
    def completed_tasks(self) -> int:
        return sum(1 for result in self.task_results if result.completed)

    @property
    def incomplete_tasks(self) -> int:
        return self.total_tasks - self.completed_tasks

    @property
    def tasks_with_errors(self) -> int:
        return sum(1 for result in self.task_results
                   if result.completed and result.found_errors)

    @property
    def tasks_without_errors(self) -> int:
        return sum(1 for result in self.task_results
                   if result.completed and not result.found_errors)

    @property
    def total_errors_found(self) -> int:
        return sum(result.errors_found for result in self.task_results)

    def average_completion_seconds(self, with_errors: Optional[bool] = None) -> float:
        relevant = [result for result in self.task_results if result.completed]
        if with_errors is True:
            relevant = [result for result in relevant if result.found_errors]
        elif with_errors is False:
            relevant = [result for result in relevant if not result.found_errors]
        if not relevant:
            return 0.0
        return sum(result.elapsed_seconds for result in relevant) / len(relevant)

    def max_completion_seconds(self, with_errors: Optional[bool] = None) -> float:
        relevant = [result for result in self.task_results if result.completed]
        if with_errors is True:
            relevant = [result for result in relevant if result.found_errors]
        elif with_errors is False:
            relevant = [result for result in relevant if not result.found_errors]
        return max((result.elapsed_seconds for result in relevant), default=0.0)

    def solutions(self) -> List[Tuple[Injection, object]]:
        found = []
        for task_result in self.task_results:
            for injection_result in task_result.results:
                for solution in injection_result.solutions:
                    found.append((injection_result.injection, solution))
        return found

    def describe(self) -> str:
        lines = [
            f"query                        : {self.query_description}",
            f"search tasks                 : {self.total_tasks}",
            f"tasks completed              : {self.completed_tasks}",
            f"tasks not completed          : {self.incomplete_tasks}",
            f"completed, no errors found   : {self.tasks_without_errors}",
            f"completed, errors found      : {self.tasks_with_errors}",
            f"total errors found           : {self.total_errors_found}",
            f"avg completion (no errors)   : "
            f"{self.average_completion_seconds(with_errors=False):.3f}s",
            f"avg completion (with errors) : "
            f"{self.average_completion_seconds(with_errors=True):.3f}s",
            f"max completion (with errors) : "
            f"{self.max_completion_seconds(with_errors=True):.3f}s",
            f"total wall clock             : {self.elapsed_seconds:.3f}s",
        ]
        return "\n".join(lines)


def decompose_by_code_section(injections: Sequence[Injection],
                              num_tasks: int) -> List[SearchTask]:
    """Split a sweep into *num_tasks* tasks, each covering a code section.

    Injections are grouped by breakpoint address so that each task sweeps a
    contiguous section of the program (the paper's decomposition), keeping
    tasks independent and roughly equal in size.
    """
    if num_tasks <= 0:
        raise ValueError(f"num_tasks must be positive, got {num_tasks}")
    ordered = sorted(injections, key=lambda injection: (injection.breakpoint_pc,
                                                        repr(injection.target)))
    num_tasks = min(num_tasks, max(1, len(ordered)))
    tasks: List[SearchTask] = []
    base, remainder = divmod(len(ordered), num_tasks)
    start = 0
    for identifier in range(num_tasks):
        size = base + (1 if identifier < remainder else 0)
        chunk = tuple(ordered[start:start + size])
        start += size
        if not chunk:
            continue
        first_pc = chunk[0].breakpoint_pc
        last_pc = chunk[-1].breakpoint_pc
        tasks.append(SearchTask(
            identifier=identifier,
            injections=chunk,
            description=f"code section [{first_pc}, {last_pc}]"))
    return tasks


def decompose_by_injection(injections: Sequence[Injection]) -> List[SearchTask]:
    """One task per injection (the finest decomposition)."""
    return [SearchTask(identifier=index, injections=(injection,),
                       description=injection.label())
            for index, injection in enumerate(injections)]


def default_chunk_size(total_injections: int, workers: int,
                       chunks_per_worker: int = 4) -> int:
    """Heuristic chunk size: a few chunks per worker for load balancing."""
    if total_injections <= 0:
        return 1
    workers = max(1, workers)
    target_chunks = workers * max(1, chunks_per_worker)
    return max(1, -(-total_injections // target_chunks))


class TaskRunner:
    """Run search tasks under per-task caps and aggregate the statistics."""

    def __init__(self, campaign: SymbolicCampaign,
                 max_errors_per_task: int = 10,
                 wall_clock_per_task: Optional[float] = None) -> None:
        if max_errors_per_task < 1 or (wall_clock_per_task is not None
                                       and wall_clock_per_task <= 0):
            raise ValueError(f"task caps must be positive, got "
                             f"max_errors_per_task={max_errors_per_task}, "
                             f"wall_clock_per_task={wall_clock_per_task}")
        self.campaign = campaign
        self.max_errors_per_task = max_errors_per_task
        self.wall_clock_per_task = wall_clock_per_task

    def run(self, tasks: Sequence[SearchTask], query: SearchQuery,
            progress: Optional[Callable[[int, int, TaskResult], None]] = None,
            strategy: Optional[ExecutionStrategy] = None,
            ) -> TaskCampaignReport:
        """Run *tasks* through *strategy* (default: serial, in-process)."""
        report = TaskCampaignReport(query_description=query.description)
        overall_start = time.monotonic()
        strategy = strategy or SerialExecutionStrategy()
        tasks = list(tasks)
        caps = TaskCaps(self.max_errors_per_task, self.wall_clock_per_task)
        merged: Dict[int, TaskResult] = {}
        for index, (results, elapsed, completed) in strategy.run_tasks(
                self.campaign, tasks, query, caps):
            merged[index] = TaskResult(task=tasks[index], results=results,
                                       elapsed_seconds=elapsed,
                                       completed=completed)
            if progress is not None:
                progress(len(merged), len(tasks), merged[index])
        report.task_results = [merged[index] for index in sorted(merged)]
        report.elapsed_seconds = time.monotonic() - overall_start
        return report
