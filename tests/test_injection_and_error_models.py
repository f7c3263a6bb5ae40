"""Tests for the error-injection sub-model and the Table 1 fault models."""

import pytest

from repro.constraints import Location
from repro.errors import Injection, prepare_injected_state, registers_used_at
from repro.faults import FAULT_MODELS, FaultSpec, MemoryCellFault, fault_model
from repro.isa.parser import assemble
from repro.isa.values import ERR, is_err
from repro.machine import initial_state, state_contains_err
from repro.machine.executor import apply_fault_set
from repro.programs import call_max_workload, factorial_workload, load_workload


PROGRAM = assemble("""
        read $1
        li $2 500
        sti $1 $2 0
        ldi $3 $2 0
        add $4 $3 $1
        beq $4 0 skip
        print $4
skip:   halt
""")


def corrupt(state, target, value=ERR):
    """Write *value* into *target* through the one fault write path."""
    apply_fault_set(state, (FaultSpec(breakpoint_pc=0, target=target,
                                      value=value),))


class TestApplyCorruption:
    def test_register_corruption(self):
        state = initial_state()
        corrupt(state, Location.register(5))
        assert is_err(state.read_register(5))

    def test_zero_register_cannot_be_corrupted(self):
        state = initial_state()
        corrupt(state, Location.register(0))
        assert state.read_register(0) == 0

    def test_memory_corruption(self):
        state = initial_state(memory={100: 3})
        corrupt(state, Location.memory(100))
        assert is_err(state.read_memory(100))

    def test_pc_corruption(self):
        state = initial_state()
        corrupt(state, Location.pc())
        assert is_err(state.pc)

    def test_concrete_value_corruption(self):
        state = initial_state()
        corrupt(state, Location.register(5), 12345)
        assert state.read_register(5) == 12345


class TestRegistersUsedAt:
    def test_reads_writes_used(self):
        # add $4 $3 $1 at address 4
        assert registers_used_at(PROGRAM, 4, "reads") == (3, 1)
        assert registers_used_at(PROGRAM, 4, "writes") == (4,)
        assert registers_used_at(PROGRAM, 4, "used") == (3, 1, 4)

    def test_zero_register_excluded(self):
        # beq $4 0 skip reads $4 only; add uses no $0 here, but check halt
        assert registers_used_at(PROGRAM, 7, "used") == ()

    def test_all_policy_covers_every_register(self):
        assert len(registers_used_at(PROGRAM, 0, "all")) == 31  # excludes $0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            registers_used_at(PROGRAM, 0, "everything")

    def test_out_of_range_pc(self):
        assert registers_used_at(PROGRAM, 999) == ()


class TestInjectionPoints:
    def test_register_model_follows_usage(self):
        injections = FAULT_MODELS["register"].enumerate(PROGRAM)
        by_pc = {}
        for injection in injections:
            by_pc.setdefault(injection.breakpoint_pc, []).append(injection.target.index)
        assert by_pc[4] == [3, 1, 4]
        assert 7 not in by_pc          # halt uses no registers

    def test_restricted_sweep(self):
        injections = FAULT_MODELS["register"].enumerate(PROGRAM, pcs=[4])
        assert {i.breakpoint_pc for i in injections} == {4}

    def test_injection_label_is_informative(self):
        injection = Injection(breakpoint_pc=4, target=Location.register(3),
                              description="example")
        assert "pc=4" in injection.label() and "example" in injection.label()


class TestPrepareInjectedState:
    def test_injects_at_breakpoint(self):
        workload = factorial_workload()
        injection = Injection(breakpoint_pc=4, target=Location.register(3))
        state = prepare_injected_state(workload.program, injection,
                                       workload.initial_state())
        assert state is not None
        assert state.pc == 4
        assert is_err(state.read_register(3))

    def test_a_fault_spec_injects_its_own_value(self):
        """A concrete FaultSpec value reaches the injected state: the
        prefix applies the spec itself, not a separate value argument that
        defaults to ``err``."""
        workload = factorial_workload()
        spec = FaultSpec(breakpoint_pc=4, target=Location.register(3),
                         value=7)
        state = prepare_injected_state(workload.program, spec,
                                       workload.initial_state())
        assert state.pc == 4 and state.read_register(3) == 7
        assert not state_contains_err(state)

    def test_unreachable_breakpoint_returns_none(self):
        program = assemble("halt\nnop\n")
        injection = Injection(breakpoint_pc=1, target=Location.register(1))
        assert prepare_injected_state(program, injection, initial_state()) is None

    def test_occurrence_selects_later_iteration(self):
        workload = factorial_workload()
        subi_pc = next(i for i, ins in enumerate(workload.program.code)
                       if ins.opcode == "subi")
        first = prepare_injected_state(
            workload.program,
            Injection(breakpoint_pc=subi_pc, target=Location.register(3)),
            workload.initial_state())
        third = prepare_injected_state(
            workload.program,
            Injection(breakpoint_pc=subi_pc, target=Location.register(3), occurrence=3),
            workload.initial_state())
        assert first.steps < third.steps


#: Table 1's rows and the registered model each one is planned by.
TABLE1_MODELS = {"register": "register", "memory": "memory", "bus": "operand",
                 "functional-unit": "functional-unit", "decode": "decode",
                 "fetch": "fetch", "control-flow": "control"}


def _enumerate(name, program, **kwargs):
    return FAULT_MODELS[name].enumerate(program, **kwargs)


class TestTable1Models:
    def test_bus_row_targets_sources_only(self):
        injections = _enumerate("operand", PROGRAM, pcs=[4])
        assert {i.target.index for i in injections} == {3, 1}

    def test_functional_unit_targets_destination_after_instruction(self):
        injections = _enumerate("functional-unit", PROGRAM, pcs=[4])
        assert all(i.breakpoint_pc == 5 for i in injections)
        assert {i.target.index for i in injections} == {4}

    def test_decode_error_covers_instructions_without_destinations(self):
        injections = _enumerate("decode", PROGRAM, pcs=[2])  # sti has no dest
        assert {i.target.index for i in injections} == {1, 2}

    def test_fetch_error_targets_pc_everywhere(self):
        injections = _enumerate("fetch", PROGRAM)
        assert [i.breakpoint_pc for i in injections] == list(range(len(PROGRAM)))
        assert all(i.target.kind == Location.PC for i in injections)

    def test_control_flow_error_only_at_transfers(self):
        injections = _enumerate("control", PROGRAM)
        assert {i.breakpoint_pc for i in injections} == {5}

    def test_memory_error_follows_loads(self):
        injections = _enumerate("memory", PROGRAM)
        assert len(injections) == 1
        assert injections[0].breakpoint_pc == 4  # right after the ldi

    def test_memory_error_with_explicit_addresses(self):
        injections = MemoryCellFault().enumerate(PROGRAM, memory={500: 0},
                                                 pcs=[3])
        assert injections[0].target == Location.memory(500)

    def test_every_table1_row_has_a_registered_model(self):
        for row, name in TABLE1_MODELS.items():
            assert fault_model(name).name == name, row
        with pytest.raises(ValueError):
            fault_model("cosmic-ray")

    def test_models_enumerate_against_real_workload(self):
        workload = call_max_workload()
        for name in TABLE1_MODELS.values():
            injections = _enumerate(name, workload.program,
                                    memory=workload.data_segment)
            assert isinstance(injections, list)
            for injection in injections:
                assert 0 <= injection.breakpoint_pc <= len(workload.program)


#: Pinned site counts of the three ported Table 1 rows on factorial, tcas
#: and replace (decode after dropping its duplicate experiments).
SITE_COUNTS = {"functional-unit": (7, 322, 1_974),
               "fetch": (12, 566, 3_468),
               "decode": (8, 516, 3_230)}
WORKLOADS = ("factorial", "tcas", "replace")


@pytest.fixture(scope="module")
def paper_workloads():
    return {name: load_workload(name) for name in WORKLOADS}


class TestPortedModelSpaces:
    @pytest.mark.parametrize("name", sorted(SITE_COUNTS))
    def test_site_counts_are_pinned(self, name, paper_workloads):
        counts = tuple(len(_enumerate(name, paper_workloads[w].program,
                                      memory=paper_workloads[w].data_segment))
                       for w in WORKLOADS)
        assert counts == SITE_COUNTS[name]

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_decode_plans_each_corrupted_state_once(self, workload,
                                                    paper_workloads):
        # Label-independent: two specs with different descriptions but the
        # same breakpoint, occurrence and target would run the same search.
        program = paper_workloads[workload].program
        sites = [(i.breakpoint_pc, i.occurrence, i.target)
                 for i in _enumerate("decode", program)]
        assert len(sites) == len(set(sites))
        # The first spec per site wins: the destination of pc beats the
        # read operand of a destination-free instruction at pc + 1.
        first = {}
        for pc in range(len(program)):
            for i in _enumerate("decode", program, pcs=[pc]):
                first.setdefault((i.breakpoint_pc, i.occurrence, i.target),
                                 i.description)
        assert [i.description for i in _enumerate("decode", program)] \
            == list(first.values())
