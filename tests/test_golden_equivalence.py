"""End-to-end equivalence of campaigns against pre-refactor golden results.

``tests/golden/campaign_equivalence.json`` was produced by the seed code
(before the copy-on-write state refactor) on the tcas and replace
subsets the campaign benchmarks exercise.  The refactor promises a
byte-identical ``CampaignResult`` — same injections, activation flags,
completion flags, and per-solution outputs/statuses/depths/outcomes in the
same order — for the serial sweep AND the 2-worker distributed sweep.

The golden file predates the fault-model registry: its injection labels
lack the ``[register] `` tag a :class:`RegisterValueFault` spec carries,
and :func:`golden_results` adds it.  Every other field compares exactly.
"""

import json
from pathlib import Path

import pytest

from repro.core import SymbolicCampaign, classify
from repro.faults import RegisterValueFault
from repro.isa.values import is_err
from repro.machine import ExecutionConfig
from repro.distributed import DistributedConfig, run_campaign_distributed
from repro.parallel import QuerySpec
from repro.programs import replace_workload, tcas_workload

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "campaign_equivalence.json"


def _render_value(value):
    return "err" if is_err(value) else value


def equivalence_key(campaign_result, golden):
    """The JSON-comparable projection stored in the golden file."""
    key = []
    for result in campaign_result.results:
        solutions = [{"output": [_render_value(v) for v in s.state.output_values()],
                      "status": s.state.status.value,
                      "depth": s.depth,
                      "outcome": classify(s.state, golden).kind.value}
                     for s in result.solutions]
        key.append({"injection": result.injection.label(),
                    "activated": result.activated,
                    "completed": result.completed,
                    "solutions": solutions})
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


@pytest.fixture(scope="module")
def golden_data():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def golden_results(golden_data, name):
    """The recorded results, with each label tagged by its fault model."""
    return [dict(entry, injection="[register] " + entry["injection"])
            for entry in golden_data[name]["results"]]


@pytest.mark.parametrize("name,make_campaign",
                         [("tcas", tcas_campaign), ("replace", replace_campaign)])
def test_serial_campaign_matches_pre_refactor_golden(name, make_campaign,
                                                     golden_data):
    workload, campaign, injections, spec = make_campaign()
    golden = workload.golden_output()
    assert [_render_value(v) for v in golden] == golden_data[name]["golden_output"]
    assert len(injections) == golden_data[name]["injections"]
    result = campaign.run(spec.build(), injections=injections)
    assert equivalence_key(result, golden) == golden_results(golden_data, name)


@pytest.mark.parametrize("name,make_campaign",
                         [("tcas", tcas_campaign), ("replace", replace_campaign)])
def test_two_worker_campaign_matches_pre_refactor_golden(name, make_campaign,
                                                         golden_data):
    workload, campaign, injections, spec = make_campaign()
    golden = workload.golden_output()
    result = run_campaign_distributed(
        campaign, spec, injections=injections,
        config=DistributedConfig(workers=2, chunk_size=2,
                                 wall_clock_timeout=600.0))
    assert equivalence_key(result, golden) == golden_results(golden_data, name)
