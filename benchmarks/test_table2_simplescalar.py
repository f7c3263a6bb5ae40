"""TAB2 — Table 2 / Section 6.3: concrete fault-injection outcomes on tcas.

The paper's SimpleScalar campaign injects three extreme values and three
random values into the source/destination registers of every instruction of
tcas (6253 and later 41082 faults) and reports the outcome distribution:
~54-56% still print the correct advisory 1, ~40-43% crash, a few percent
print 0 or something else, under 1% hang — and *no* injection ever produces
the catastrophic advisory 2.

Running every instruction of our tcas build would take hours in pure Python,
so the bench sweeps an evenly-spaced sample of instructions (the value policy
per injection is identical to the paper's).  The shape assertions are the
ones that matter: outcome 2 never occurs, the correct advisory dominates and
crashes are the second-largest bucket.
"""

import pytest

from repro.concrete import (ValuePolicy, concrete_distribution,
                            printed_value_labeler)
from repro.core import SymbolicCampaign
from repro.machine import ExecutionConfig
from repro.programs import tcas_workload


SAMPLE_EVERY = 6   # sweep every 6th instruction of tcas


def run_concrete_tcas_campaign():
    workload = tcas_workload()
    campaign = SymbolicCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        execution_config=ExecutionConfig(max_steps=10_000))
    pcs = range(0, len(workload.program), SAMPLE_EVERY)
    specs = ValuePolicy().expand(campaign.enumerate_injections(pcs=pcs))
    return concrete_distribution(
        campaign, specs, printed_value_labeler(expected_values=(0, 1, 2)))


@pytest.mark.benchmark(group="table2")
def test_table2_concrete_fault_injection_distribution(benchmark):
    distribution = benchmark.pedantic(run_concrete_tcas_campaign, rounds=1,
                                      iterations=1)

    assert distribution.total > 500

    # Paper shape: the catastrophic advisory (2) is never produced by
    # value-based injection.
    assert distribution.count("2") == 0
    # The correct advisory (1) is the most common outcome.
    assert distribution.count("1") == max(distribution.counts.values())
    # Crashes are a substantial fraction (paper: ~40%), larger than the
    # "other" and "hang" buckets.
    assert distribution.percentage("crash") > 10.0
    assert distribution.count("crash") >= distribution.count("other")
    assert distribution.count("crash") >= distribution.count("hang")

    print("\n[TAB2] concrete register fault injection on tcas "
          f"(sampled every {SAMPLE_EVERY}th instruction; "
          "paper: 6253 and 41082 faults)")
    print(distribution.format_table(
        title="  Program outcome distribution (this reproduction)"))
    print("  paper reference (6253 faults): 0=1.86%  1=53.7%  2=0%  "
          "other=0.5%  crash=43.4%  hang=0.4%")
