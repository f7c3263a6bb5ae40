"""Tests for concrete fault injection through the symbolic campaign's one
injection engine: single concrete faults, the Table 2 value campaign, and
equivalence with results recorded from the former concrete simulator."""

import json
from pathlib import Path

import pytest

from repro.concrete import (INT32_MAX, INT32_MIN, OutcomeDistribution,
                            ValuePolicy, concrete_distribution,
                            concrete_terminal, printed_value_labeler,
                            run_parity_study, tcas_outcome_labels)
from repro.constraints import Location
from repro.core import SymbolicCampaign
from repro.errors import Injection
from repro.faults import FAULT_MODELS, FaultSpec
from repro.machine import ExecutionConfig, Status
from repro.programs import (factorial_workload, load_workload,
                            sum_input_workload, tcas_workload)

GOLDEN_PATH = (Path(__file__).resolve().parent / "golden"
               / "concrete_equivalence.json")


def concrete_campaign(workload, max_steps=20_000):
    return SymbolicCampaign(
        workload.program, input_values=workload.default_input,
        memory=workload.data_segment, detectors=workload.detectors,
        execution_config=ExecutionConfig(max_steps=max_steps))


def opcode_pc(workload, opcode):
    return next(i for i, ins in enumerate(workload.program.code)
                if ins.opcode == opcode)


class TestConcreteTerminal:
    def test_golden_output_raises_on_crash(self):
        with pytest.raises(RuntimeError):
            factorial_workload().golden_output(())  # no input -> read crashes

    def test_injection_changes_output(self):
        workload = factorial_workload()
        # corrupt the loop counter ($3) right before the first multiplication
        spec = FaultSpec(breakpoint_pc=opcode_pc(workload, "mult"),
                         target=Location.register(3), value=2)
        state = concrete_terminal(concrete_campaign(workload), spec)
        assert state.status is Status.HALTED
        assert state.output_values() == ("Factorial = ", 2)

    def test_injection_can_cause_hang(self):
        workload = factorial_workload()
        # making the counter huge turns the loop into (effectively) a hang
        spec = FaultSpec(breakpoint_pc=opcode_pc(workload, "subi"),
                         target=Location.register(3), value=INT32_MAX)
        state = concrete_terminal(concrete_campaign(workload, max_steps=300),
                                  spec)
        assert state.status is Status.TIMEOUT

    def test_unactivated_injection_reported(self):
        workload = factorial_workload()
        spec = FaultSpec(breakpoint_pc=5, target=Location.register(1),
                         occurrence=100, value=1)
        assert concrete_terminal(concrete_campaign(workload), spec) is None

    def test_a_symbolic_fault_is_refused(self):
        """An ``err`` in the loop counter forks into many terminal states;
        a concrete run must end in exactly one."""
        workload = factorial_workload()
        injection = Injection(breakpoint_pc=opcode_pc(workload, "subi"),
                              target=Location.register(3))
        with pytest.raises(RuntimeError, match="exactly one terminal state"):
            concrete_terminal(concrete_campaign(workload, max_steps=300),
                              injection)


class TestValuePolicy:
    def test_default_values_include_extremes(self):
        policy = ValuePolicy()
        injection = Injection(breakpoint_pc=3, target=Location.register(2))
        values = policy.values_for(injection)
        assert values[:3] == [0, INT32_MAX, INT32_MIN]
        assert len(values) == 6

    def test_values_are_deterministic_per_injection(self):
        policy = ValuePolicy()
        injection = Injection(breakpoint_pc=3, target=Location.register(2))
        assert policy.values_for(injection) == policy.values_for(injection)

    def test_different_injections_get_different_random_values(self):
        policy = ValuePolicy()
        a = policy.values_for(Injection(breakpoint_pc=3, target=Location.register(2)))
        b = policy.values_for(Injection(breakpoint_pc=4, target=Location.register(2)))
        assert a[3:] != b[3:]

    def test_expand_yields_one_spec_per_site_and_value_in_order(self):
        policy = ValuePolicy()
        sites = [FaultSpec(breakpoint_pc=pc, target=Location.register(2))
                 for pc in (3, 4)]
        specs = policy.expand(sites)
        assert [(spec.breakpoint_pc, spec.value) for spec in specs] == [
            (site.breakpoint_pc, value) for site in sites
            for value in policy.values_for(site)]


class TestOutcomeDistribution:
    def test_record_and_percentages(self):
        distribution = OutcomeDistribution(labels=tcas_outcome_labels())
        for label in ["1", "1", "crash", "0"]:
            distribution.record(label)
        assert distribution.total == 4
        assert distribution.count("1") == 2
        assert distribution.percentage("1") == 50.0
        assert distribution.percentage("2") == 0.0
        table = distribution.format_table()
        assert "crash" in table and "50.00%" in table

    def test_merge(self):
        a = OutcomeDistribution(labels=("x", "y"))
        b = OutcomeDistribution(labels=("x", "y"))
        a.record("x")
        b.record("y")
        b.skipped = 2
        merged = a.merge(b)
        assert merged.total == 2
        assert merged.count("x") == 1 and merged.count("y") == 1
        assert merged.skipped == 2

    def test_labeler(self):
        from repro.machine import MachineState
        labeler = printed_value_labeler(expected_values=(0, 1, 2))

        state = MachineState()
        state.append_output(1)
        state.halt()
        assert labeler(state) == "1"

        crash = MachineState()
        crash.throw("illegal address")
        assert labeler(crash) == "crash"

        hang = MachineState()
        hang.time_out("timed out")
        assert labeler(hang) == "hang"

        weird = MachineState()
        weird.append_output(77)
        weird.halt()
        assert labeler(weird) == "other"

        empty = MachineState()
        empty.halt()
        assert labeler(empty) == "other"


class TestConcreteDistribution:
    def test_each_experiment_injects_its_policy_value(self):
        """The campaign corrupts with the policy's values, not with the
        spec's own ``err``: the loop counter set to 2 or 3 before the first
        multiplication prints 2 or 6."""
        workload = factorial_workload()
        campaign = concrete_campaign(workload)
        site = FaultSpec(breakpoint_pc=opcode_pc(workload, "mult"),
                         target=Location.register(3))
        specs = ValuePolicy(extreme_values=(2, 3), random_values=0).expand(
            [site])
        labeler = printed_value_labeler(expected_values=(2, 6))
        assert [(spec.value, labeler(concrete_terminal(campaign, spec)))
                for spec in specs] == [(2, "2"), (3, "6")]
        distribution = concrete_distribution(
            campaign, specs, labeler,
            ("2", "6", "other", "crash", "hang", "detected"))
        assert (distribution.count("2"), distribution.count("6")) == (1, 1)

    def test_small_campaign_distribution(self):
        workload = sum_input_workload(count=2, values=(3, 4))
        golden = workload.golden_output()
        campaign = concrete_campaign(workload, max_steps=2_000)
        specs = ValuePolicy().expand(campaign.enumerate_injections())
        distribution = concrete_distribution(
            campaign, specs,
            labeler=printed_value_labeler(expected_values=(golden[-1],)),
            outcome_labels=(str(golden[-1]), "other", "crash", "hang",
                            "detected"))
        assert distribution.total > 0
        assert distribution.total + distribution.skipped == len(specs)
        # the correct answer still shows up for some (benign) injections
        assert distribution.count(str(golden[-1])) > 0

    def test_tcas_campaign_subset_matches_table2_shape(self):
        """A small slice of the Table 2 campaign: outcome `2` (the wrong
        advisory) must never be produced by concrete injections, while crashes
        and correct outputs both occur."""
        workload = tcas_workload()
        campaign = concrete_campaign(workload, max_steps=5_000)
        specs = ValuePolicy().expand(campaign.enumerate_injections()[:40])
        distribution = concrete_distribution(
            campaign, specs, printed_value_labeler(expected_values=(0, 1, 2)))
        assert distribution.count("2") == 0
        assert distribution.count("1") > 0
        assert distribution.total > 100


# ------------------------------------------- equivalence with recorded runs


def _recorded():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


RECORDED = _recorded()


@pytest.mark.parametrize("recorded", RECORDED["value_campaigns"],
                         ids=lambda entry: entry["workload"])
def test_value_campaign_matches_the_recorded_simulator(recorded):
    """Every (site, value) experiment activates and labels exactly as the
    former standalone concrete simulator recorded it."""
    workload = load_workload(recorded["workload"])
    campaign = concrete_campaign(workload, max_steps=recorded["max_steps"])
    pcs = (range(0, len(workload.program), recorded["pcs_every"])
           if recorded["pcs_every"] else None)
    sites = campaign.enumerate_injections(pcs=pcs)[:recorded["sites"]]
    labeler = printed_value_labeler(tuple(recorded["expected_values"]))
    experiments = []
    for site in sites:
        for spec in ValuePolicy().expand([site]):
            state = concrete_terminal(campaign, spec)
            experiments.append([site.label(), spec.value, state is not None,
                                None if state is None else labeler(state)])
    assert experiments == recorded["experiments"]


@pytest.mark.parametrize("recorded", RECORDED["parity"],
                         ids=lambda entry: f"{entry['workload']}-"
                                           f"{entry['fault_model']}")
def test_parity_table_matches_the_recorded_study(recorded):
    workload = load_workload(recorded["workload"])
    injections = FAULT_MODELS[recorded["fault_model"]].plan(
        workload.program, memory=workload.data_segment,
        sample=recorded["sample"], seed=recorded["seed"])
    report = run_parity_study(
        workload.program, injections, workload.golden_output(),
        input_values=workload.default_input, memory=workload.data_segment,
        detectors=workload.detectors, max_states=recorded["max_states"],
        max_steps=recorded["max_steps"])
    assert report.format_table().splitlines() == recorded["table"]
