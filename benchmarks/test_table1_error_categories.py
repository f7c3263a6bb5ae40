"""TAB1 — Table 1: computation-error categories and how they are modelled.

For every row of Table 1 (instruction decoder, address/data bus, functional
unit, instruction fetch) plus the basic register/memory/control-flow rows,
this bench enumerates the injections of the fault model that plans the row
on small kernels, symbolically explores a sample of them and confirms the
modelled manifestation:

* decode / bus / functional-unit errors surface as ``err`` in the source or
  destination registers and can corrupt the output,
* fetch errors (corrupted PC) either land on an arbitrary valid code location
  or raise an illegal-instruction exception.
"""

import pytest

from repro.core import SymbolicCampaign, crashed, undetected_failure
from repro.faults import fault_model
from repro.machine import ExecutionConfig
from repro.programs import (call_max_workload, memory_walk_workload,
                            sum_input_workload)


#: Table 1's rows and the registered fault model each one is planned by.
CATEGORIES = {"register": "register", "memory": "memory", "bus": "operand",
              "functional-unit": "functional-unit", "decode": "decode",
              "fetch": "fetch", "control-flow": "control"}


def run_category_sweeps():
    workloads = [sum_input_workload(), memory_walk_workload(), call_max_workload()]
    rows = []
    for category, model_name in CATEGORIES.items():
        model = fault_model(model_name)
        injections_total = 0
        failures = 0
        crashes = 0
        for workload in workloads:
            golden = workload.golden_output()
            campaign = SymbolicCampaign(
                workload.program,
                input_values=workload.default_input,
                memory=workload.data_segment,
                fault_model=model,
                execution_config=ExecutionConfig(
                    max_steps=workload.recommended_max_steps,
                    control_fork_domain="labels"),
                max_solutions_per_injection=5,
                max_states_per_injection=8_000)
            injections = campaign.enumerate_injections()[:20]
            injections_total += len(injections)
            failures += campaign.run(undetected_failure(golden),
                                     injections=injections).total_solutions
            crashes += campaign.run(crashed(),
                                    injections=injections).total_solutions
        rows.append((category, injections_total, failures, crashes))
    return rows


@pytest.mark.benchmark(group="table1")
def test_table1_category_coverage(benchmark):
    rows = benchmark.pedantic(run_category_sweeps, rounds=1, iterations=1)

    by_category = {row[0]: row for row in rows}
    # Every category of Table 1 is expressible and enumerable.
    assert set(by_category) == set(CATEGORIES)
    # Every category produces at least one injection on the kernels, and each
    # manifests as an undetected failure somewhere (the kernels carry no
    # detectors, so activated errors must surface as failures or be benign).
    for category, injections_total, failures, crashes in rows:
        assert injections_total > 0, category
        assert failures > 0, category
    # Fetch/control-flow errors must include crash manifestations
    # (illegal-instruction exceptions), as modelled in Table 1.
    assert by_category["fetch"][3] > 0
    assert by_category["control-flow"][3] > 0

    print("\n[TAB1] error-category coverage over three kernels "
          "(20 injections per kernel per category)")
    print(f"  {'category':<16} {'injections':>10} {'failure states':>15} "
          f"{'crash states':>13}")
    for category, injections_total, failures, crashes in rows:
        print(f"  {category:<16} {injections_total:>10} {failures:>15} {crashes:>13}")
