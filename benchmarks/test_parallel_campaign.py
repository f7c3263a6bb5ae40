"""PAR — Section 6.1: parallel campaign execution (cluster tasks on a pool).

The paper distributes its search tasks over a cluster; the parallel runner
reproduces that execution model with a worker pool on one host.  These
benches check the two properties that make the runner usable as a drop-in
replacement for the serial sweep:

* determinism — a parallel campaign returns a ``CampaignResult`` with
  exactly the same per-injection results (solutions, outcome classification,
  ordering) as the serial run, on the tcas and replace programs the paper
  evaluates;
* scaling — sharding the factorial sweep over 4 workers beats the serial
  sweep (asserted only when the host actually has 4 cores; the measurement
  is always printed).
"""

import multiprocessing
import os
import time

import pytest

from repro.core import SymbolicCampaign, classify
from repro.faults import RegisterValueFault
from repro.machine import ExecutionConfig
from repro.parallel import ParallelConfig, QuerySpec, run_campaign_parallel
from repro.programs import factorial_workload, replace_workload, tcas_workload


def equivalence_key(campaign_result, golden):
    """Timing-free projection: per-injection solutions + outcome kinds."""
    key = []
    for result in campaign_result.results:
        solutions = [(s.state.output_values(), s.state.status.value,
                      classify(s.state, golden).kind.value)
                     for s in result.solutions]
        key.append((result.injection.label(), result.activated,
                    result.completed, solutions))
    return key


def tcas_campaign():
    workload = tcas_workload()
    campaign = SymbolicCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        fault_model=RegisterValueFault(),
        execution_config=ExecutionConfig(max_steps=3_000,
                                         control_fork_domain="labels",
                                         max_control_forks=2_048,
                                         max_memory_forks=4),
        max_solutions_per_injection=10,
        max_states_per_injection=20_000)
    start, end = workload.compiled.function_region("Non_Crossing_Biased_Climb")
    injections = [i for i in campaign.enumerate_injections(pcs=range(start, end))
                  if i.target.index in (31, 2)][:10]
    spec = QuerySpec.predefined("wrong-final-value", expected_value=1)
    return workload, campaign, injections, spec


def replace_campaign():
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
    start, end = workload.compiled.function_region("dodash")
    injections = [i for i in campaign.enumerate_injections(pcs=range(start, end))
                  if i.target.index in (8, 9, 10)][:8]
    spec = QuerySpec.predefined("incorrect-output", golden_output=golden)
    return workload, campaign, injections, spec


@pytest.mark.benchmark(group="parallel")
@pytest.mark.parametrize("make_campaign", [tcas_campaign, replace_campaign],
                         ids=["tcas", "replace"])
def test_parallel_matches_serial_on_paper_benchmarks(benchmark, make_campaign):
    workload, campaign, injections, spec = make_campaign()
    golden = workload.golden_output()
    query = spec.build()

    serial = campaign.run(query, injections=injections)
    parallel = benchmark.pedantic(
        run_campaign_parallel, rounds=1, iterations=1,
        args=(campaign, spec),
        kwargs=dict(injections=injections,
                    config=ParallelConfig(workers=4, chunk_size=2)))

    assert equivalence_key(parallel, golden) == equivalence_key(serial, golden)
    assert parallel.injections_run == len(injections)
    print(f"\n[PAR] {workload.name}: {len(injections)} injections, "
          f"serial {serial.elapsed_seconds:.2f}s vs "
          f"4 workers {parallel.elapsed_seconds:.2f}s; "
          f"{parallel.total_solutions} solutions, identical to serial")


def factorial_sweep():
    """A sweep heavy enough to measure scaling: every register injection of
    the factorial kernel at several loop iterations (dynamic occurrences)."""
    workload = factorial_workload(default_input=40)
    campaign = SymbolicCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        detectors=workload.detectors,
        execution_config=ExecutionConfig(max_steps=2_000),
        max_solutions_per_injection=50,
        max_states_per_injection=20_000)
    injections = []
    for occurrence in range(1, 40, 2):
        for base in campaign.enumerate_injections():
            injections.append(type(base)(breakpoint_pc=base.breakpoint_pc,
                                         target=base.target,
                                         occurrence=occurrence,
                                         description=base.description))
    spec = QuerySpec.predefined("err-output")
    return workload, campaign, injections, spec


@pytest.mark.benchmark(group="parallel")
def test_parallel_scaling_on_factorial_sweep(benchmark):
    workload, campaign, injections, spec = factorial_sweep()
    golden = workload.golden_output()
    query = spec.build()

    start = time.perf_counter()
    serial = campaign.run(query, injections=injections)
    serial_seconds = time.perf_counter() - start

    parallel = benchmark.pedantic(
        run_campaign_parallel, rounds=1, iterations=1,
        args=(campaign, spec),
        kwargs=dict(injections=injections, config=ParallelConfig(workers=4)))
    parallel_seconds = parallel.elapsed_seconds

    assert equivalence_key(parallel, golden) == equivalence_key(serial, golden)

    cores = multiprocessing.cpu_count()
    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    print(f"\n[PAR] factorial sweep: {len(injections)} injections on {cores} cores")
    print(f"  serial     : {serial_seconds:.2f}s")
    print(f"  4 workers  : {parallel_seconds:.2f}s  (speedup {speedup:.2f}x)")
    # REPRO_SKIP_SCALING_ASSERT opts out of the timing assertion (not the
    # equivalence check above) on hosts where wall-clock measurements are
    # unreliable — e.g. heavily oversubscribed shared runners.
    if cores < 4:
        print(f"  (speedup assertion skipped: only {cores} core(s) available)")
    elif os.environ.get("REPRO_SKIP_SCALING_ASSERT"):
        print("  (speedup assertion skipped: REPRO_SKIP_SCALING_ASSERT set)")
    else:
        assert speedup > 1.5, (
            f"expected >1.5x speedup at 4 workers on {cores} cores, "
            f"got {speedup:.2f}x")
