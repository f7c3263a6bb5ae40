"""Tests for the SimpleScalar-substitute concrete simulator and its campaign."""

import pytest

from repro.concrete import (ConcreteCampaign, ConcreteSimulator, INT32_MAX, INT32_MIN,
                            OutcomeDistribution, ValuePolicy, printed_value_labeler,
                            tcas_outcome_labels)
from repro.constraints import Location
from repro.errors import Injection
from repro.faults import FaultSpec
from repro.machine import Status
from repro.programs import factorial_workload, sum_input_workload, tcas_workload


class TestConcreteSimulator:
    def test_fault_free_run(self):
        workload = factorial_workload()
        simulator = ConcreteSimulator(workload.program)
        run = simulator.run(workload.default_input)
        assert run.state.status is Status.HALTED
        assert run.output == ("Factorial = ", 120)
        assert simulator.golden_output(workload.default_input) == run.output

    def test_golden_output_raises_on_crash(self):
        workload = factorial_workload()
        simulator = ConcreteSimulator(workload.program)
        with pytest.raises(RuntimeError):
            simulator.golden_output(())  # no input -> read crashes

    def test_injection_changes_output(self):
        workload = factorial_workload()
        simulator = ConcreteSimulator(workload.program)
        # corrupt the loop counter ($3) right before the first multiplication
        mult_pc = next(i for i, ins in enumerate(workload.program.code)
                       if ins.opcode == "mult")
        spec = FaultSpec(breakpoint_pc=mult_pc, target=Location.register(3),
                         value=2)
        run = simulator.run_with_spec(spec, workload.default_input)
        assert run.activated
        assert run.state.status is Status.HALTED
        assert run.output == ("Factorial = ", 2)

    def test_injection_can_cause_hang(self):
        workload = factorial_workload()
        simulator = ConcreteSimulator(workload.program, max_steps=300)
        subi_pc = next(i for i, ins in enumerate(workload.program.code)
                       if ins.opcode == "subi")
        # making the counter huge turns the loop into (effectively) a hang
        spec = FaultSpec(breakpoint_pc=subi_pc, target=Location.register(3),
                         value=INT32_MAX)
        run = simulator.run_with_spec(spec, workload.default_input)
        assert run.state.status is Status.TIMEOUT

    def test_unactivated_injection_reported(self):
        workload = factorial_workload()
        simulator = ConcreteSimulator(workload.program)
        spec = FaultSpec(breakpoint_pc=5, target=Location.register(1),
                         occurrence=100, value=1)
        run = simulator.run_with_spec(spec, workload.default_input)
        assert not run.activated


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
        merged = a.merge(b)
        assert merged.total == 2
        assert merged.count("x") == 1 and merged.count("y") == 1

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


class TestConcreteCampaign:
    def test_each_experiment_injects_its_policy_value(self):
        """The campaign corrupts with the policy's values, not with the
        spec's own ``err``: the loop counter set to 2 or 3 before the first
        multiplication prints 2 or 6."""
        workload = factorial_workload()
        mult_pc = next(i for i, ins in enumerate(workload.program.code)
                       if ins.opcode == "mult")
        campaign = ConcreteCampaign(
            workload.program, input_values=workload.default_input,
            value_policy=ValuePolicy(extreme_values=(2, 3), random_values=0),
            labeler=printed_value_labeler(expected_values=(2, 6)),
            outcome_labels=("2", "6", "other", "crash", "hang", "detected"))
        spec = FaultSpec(breakpoint_pc=mult_pc, target=Location.register(3))
        result = campaign.run(injections=[spec])
        assert [(e.value, e.label) for e in result.experiments] == [
            (2, "2"), (3, "6")]
        assert all(e.injection is spec for e in result.experiments)

    def test_small_campaign_distribution(self):
        workload = sum_input_workload(count=2, values=(3, 4))
        golden = workload.golden_output()
        campaign = ConcreteCampaign(
            workload.program,
            input_values=workload.default_input,
            labeler=printed_value_labeler(expected_values=(golden[-1],)),
            outcome_labels=(str(golden[-1]), "other", "crash", "hang", "detected"),
            max_steps=2_000)
        result = campaign.run()
        assert result.total_faults > 0
        assert result.total_faults + result.skipped == campaign.planned_experiments()
        # the correct answer still shows up for some (benign) injections
        assert result.distribution.count(str(golden[-1])) > 0
        assert "total faults" in result.describe()

    def test_max_experiments_cap(self):
        workload = sum_input_workload(count=2, values=(3, 4))
        campaign = ConcreteCampaign(workload.program,
                                    input_values=workload.default_input,
                                    max_steps=2_000)
        result = campaign.run(max_experiments=5)
        assert result.total_faults + result.skipped <= 5

    def test_tcas_campaign_subset_matches_table2_shape(self):
        """A small slice of the Table 2 campaign: outcome `2` (the wrong
        advisory) must never be produced by concrete injections, while crashes
        and correct outputs both occur."""
        workload = tcas_workload()
        campaign = ConcreteCampaign(
            workload.program,
            input_values=workload.default_input,
            memory=workload.data_segment,
            labeler=printed_value_labeler(expected_values=(0, 1, 2)),
            max_steps=5_000)
        injections = campaign.enumerate_injections()[:40]
        result = campaign.run(injections=injections)
        assert result.distribution.count("2") == 0
        assert result.distribution.count("1") > 0
        assert result.total_faults > 100
