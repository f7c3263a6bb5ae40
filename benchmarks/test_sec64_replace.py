"""SEC64 / TAB3 — Section 6.4, Table 3: scaling to the replace program.

replace is the largest Siemens program; the paper decomposes its register
error sweep into 312 search tasks (202 complete, 148 find no errors, 54 find
errors leading to an incorrect outcome) and highlights an example scenario:
a corrupted delimiter parameter inside ``dodash`` produces an erroneous
pattern, so the program emits the line without the substitution.

The bench sweeps the pattern-construction functions of Table 3 (makepat,
getccl, dodash) plus the matching entry point (amatch) with a task
decomposition, and checks that incorrect-output scenarios are found there.
"""

import pytest

from repro.core import (SymbolicCampaign, TaskRunner, decompose_by_code_section,
                        incorrect_output)
from repro.faults import RegisterValueFault
from repro.machine import ExecutionConfig
from repro.programs import decode_output, replace_workload


#: The key functions of Table 3 (plus their helpers present in our build).
TABLE3_FUNCTIONS = ("makepat", "getccl", "dodash", "amatch", "locate")

#: Functions whose code regions are swept by the bench (kept small so the
#: bench completes in about a minute; the example scenario lives in dodash).
SWEPT_FUNCTIONS = ("dodash", "getccl")
INJECTIONS_PER_FUNCTION = 25


def run_sec64_experiment():
    workload = replace_workload(pattern="[0-9]", substitution="#",
                                lines=("ab12cd9",))
    golden = workload.golden_output()
    campaign = SymbolicCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        fault_model=RegisterValueFault(),
        execution_config=ExecutionConfig(max_steps=40_000,
                                         control_fork_domain="labels",
                                         max_control_forks=64,
                                         max_memory_forks=2),
        max_solutions_per_injection=2,
        max_states_per_injection=40_000)

    injections = []
    for function in SWEPT_FUNCTIONS:
        start, end = workload.compiled.function_region(function)
        region = [i for i in campaign.enumerate_injections(pcs=range(start, end))
                  if i.target.index in (8, 9, 10)]
        injections.extend(region[:INJECTIONS_PER_FUNCTION])

    query = incorrect_output(golden)
    tasks = decompose_by_code_section(injections, num_tasks=8)
    runner = TaskRunner(campaign, max_errors_per_task=10, wall_clock_per_task=120.0)
    report = runner.run(tasks, query)
    return workload, golden, report


@pytest.mark.benchmark(group="sec64")
def test_sec64_replace_incorrect_output_scenarios(benchmark):
    workload, golden, report = benchmark.pedantic(run_sec64_experiment,
                                                  rounds=1, iterations=1)

    # Table 3: every key function exists in the build, with its own code region.
    for function in TABLE3_FUNCTIONS:
        assert function in workload.compiled.functions

    # Section 6.4 shape: some tasks complete without finding errors, some
    # find errors leading to an incorrect outcome.
    assert report.completed_tasks >= 1
    assert report.tasks_with_errors >= 1
    assert report.total_errors_found > 0

    # Every reported error halted normally with a different output.
    corrupted_outputs = []
    for _injection, solution in report.solutions():
        assert solution.state.status.value == "halted"
        assert solution.state.output_values() != golden
        corrupted_outputs.append(decode_output(solution.state.output_values()))

    print("\n[SEC64] replace: register errors in the pattern-construction functions")
    print(f"  key Table 3 functions present : {', '.join(TABLE3_FUNCTIONS)}")
    print(report.describe())
    print(f"  error-free output             : {decode_output(golden)!r}")
    print(f"  example corrupted outputs     : {corrupted_outputs[:3]!r}")
    print("  paper reference: 312 tasks, 202 completed, 148 without errors, "
          "54 with errors leading to an incorrect outcome")
