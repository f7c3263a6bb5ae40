"""Tests for the symbolic executor and the lean concrete interpreter."""

import pytest

from repro.detectors import DetectorSet
from repro.isa.parser import assemble
from repro.isa.values import ERR, is_err
from repro.machine import (DIVIDE_BY_ZERO, ExecutionConfig, Executor,
                           ILLEGAL_ADDRESS, ILLEGAL_INSTRUCTION,
                           INPUT_EXHAUSTED, MachineModelError, Status,
                           TIMED_OUT, concrete_step, initial_state,
                           run_concrete, run_concrete_until)
from repro.machine.executor import (CONTROL_FORK_DOMAINS,
                                   SymbolicValueEncountered)
from repro.programs.factorial import factorial_workload
from reference_interpreter import ReferenceExecutor, explore_all


def run_symbolic(source, state=None, detectors=DetectorSet(), max_steps=500,
                 **config_kwargs):
    program = assemble(source)
    executor = Executor(program, detectors,
                        ExecutionConfig(max_steps=max_steps, **config_kwargs))
    state = state or initial_state()
    return explore_all(executor, state)


class TestArithmeticSemantics:
    def test_add_and_immediate_forms(self):
        finals = run_symbolic("li $1 4\naddi $2 $1 3\nadd $3 $2 $1\nprint $3\nhalt\n")
        assert len(finals) == 1
        assert finals[0].output_values() == (11,)

    def test_divide_by_zero_crashes(self):
        finals = run_symbolic("li $1 3\nli $2 0\ndiv $3 $1 $2\nhalt\n")
        assert finals[0].crashed
        assert finals[0].exception == DIVIDE_BY_ZERO

    def test_division_by_symbolic_value_forks(self):
        program = assemble("div $3 $1 $2\nprint $3\nhalt\n")
        executor = Executor(program, config=ExecutionConfig(max_steps=50))
        state = initial_state()
        state.write_register(1, 10)
        state.write_register(2, ERR)
        finals = explore_all(executor, state)
        statuses = {(s.status, s.exception) for s in finals}
        assert (Status.EXCEPTION, DIVIDE_BY_ZERO) in statuses
        assert any(s.status is Status.HALTED and is_err(s.output_values()[0])
                   for s in finals)

    def test_mult_err_by_zero_register_masks(self):
        program = assemble("mult $3 $1 $2\nprint $3\nhalt\n")
        executor = Executor(program, config=ExecutionConfig(max_steps=50))
        state = initial_state()
        state.write_register(1, ERR)
        state.write_register(2, 0)
        finals = explore_all(executor, state)
        assert [s.output_values() for s in finals] == [(0,)]


class TestCompareAndBranchSemantics:
    def test_concrete_branch(self):
        finals = run_symbolic("""
            li $1 3
            beq $1 3 yes
            print $0
            halt
        yes: li $2 99
            print $2
            halt
        """)
        assert finals[0].output_values() == (99,)

    def test_symbolic_branch_forks_into_both_paths(self):
        program = assemble("""
            beq $1 0 zero
            prints "nonzero"
            halt
        zero: prints "zero"
            halt
        """)
        executor = Executor(program, config=ExecutionConfig(max_steps=50))
        state = initial_state()
        state.write_register(1, ERR)
        finals = explore_all(executor, state)
        outputs = {s.output_values()[0] for s in finals}
        assert outputs == {"zero", "nonzero"}

    def test_symbolic_compare_sets_zero_or_one(self):
        program = assemble("setgt $2 $1 $0\nprint $2\nhalt\n")
        executor = Executor(program, config=ExecutionConfig(max_steps=50))
        state = initial_state()
        state.write_register(1, ERR)
        finals = explore_all(executor, state)
        assert {s.output_values()[0] for s in finals} == {0, 1}

    def test_consistent_forks_no_contradictory_path(self):
        # Once the first branch decides $1 == 0, the second branch must agree.
        program = assemble("""
            beq $1 0 first_zero
            beq $1 0 impossible
            prints "nonzero twice"
            halt
        impossible: prints "contradiction"
            halt
        first_zero: prints "zero"
            halt
        """)
        executor = Executor(program, config=ExecutionConfig(max_steps=50))
        state = initial_state()
        state.write_register(1, ERR)
        finals = explore_all(executor, state)
        outputs = {s.output_values()[0] for s in finals}
        assert "contradiction" not in outputs
        assert outputs == {"zero", "nonzero twice"}


class TestMemorySemantics:
    def test_store_then_load(self):
        finals = run_symbolic("""
            li $1 500
            li $2 77
            sti $2 $1 0
            ldi $3 $1 0
            print $3
            halt
        """)
        assert finals[0].output_values() == (77,)

    def test_load_from_undefined_address_crashes(self):
        finals = run_symbolic("li $1 123\nldi $2 $1 0\nhalt\n")
        assert finals[0].crashed
        assert finals[0].exception == ILLEGAL_ADDRESS

    def test_load_through_err_pointer_forks(self):
        program = assemble("ldi $2 $1 0\nprint $2\nhalt\n")
        executor = Executor(program, config=ExecutionConfig(max_steps=50))
        state = initial_state(memory={100: 7, 200: 9})
        state.write_register(1, ERR)
        finals = explore_all(executor, state)
        outcomes = {s.exception if s.crashed else s.output_values()[0] for s in finals}
        assert ILLEGAL_ADDRESS in outcomes
        assert 7 in outcomes and 9 in outcomes

    def test_store_through_err_pointer_forks(self):
        program = assemble("sti $2 $1 0\nhalt\n")
        executor = Executor(program, config=ExecutionConfig(max_steps=50))
        state = initial_state(memory={100: 7})
        state.write_register(1, ERR)
        state.write_register(2, 55)
        finals = explore_all(executor, state)
        assert all(s.status is Status.HALTED for s in finals)
        # one fork overwrites the existing word, one creates a new word
        overwrote = any(s.memory.get(100) == 55 for s in finals)
        created = any(s.memory.get(101) == 55 for s in finals)
        assert overwrote and created


class TestControlSemantics:
    def test_jal_and_jr(self):
        finals = run_symbolic("""
            jal callee
            print $2
            halt
        callee: li $2 5
            jr $31
        """)
        assert finals[0].output_values() == (5,)

    def test_jr_to_invalid_address_crashes(self):
        finals = run_symbolic("li $1 999\njr $1\nhalt\n")
        assert finals[0].crashed
        assert finals[0].exception == ILLEGAL_INSTRUCTION

    def test_jr_with_err_target_forks_to_labels_and_crash(self):
        program = assemble("""
            jr $1
        a:  prints "a"
            halt
        b:  prints "b"
            halt
        """)
        executor = Executor(program, config=ExecutionConfig(
            max_steps=50, control_fork_domain="labels"))
        state = initial_state()
        state.write_register(1, ERR)
        finals = explore_all(executor, state)
        outcomes = {s.exception if s.crashed else s.output_values()[0] for s in finals}
        assert outcomes == {ILLEGAL_INSTRUCTION, "a", "b"}

    def test_corrupted_pc_at_fetch_forks(self):
        program = assemble("x: prints \"x\"\nhalt\n")
        executor = Executor(program, config=ExecutionConfig(max_steps=50))
        state = initial_state()
        state.pc = ERR
        finals = explore_all(executor, state)
        outcomes = {s.exception if s.crashed else s.output_values()[0] for s in finals}
        assert ILLEGAL_INSTRUCTION in outcomes and "x" in outcomes

    def test_exception_only_domain_suppresses_landing_forks(self):
        program = assemble("jr $1\na: halt\n")
        executor = Executor(program, config=ExecutionConfig(
            max_steps=50, control_fork_domain="exception_only"))
        state = initial_state()
        state.write_register(1, ERR)
        finals = explore_all(executor, state)
        assert len(finals) == 1 and finals[0].crashed


#: The decoded executor and the string-dispatch reference, side by side.
DISPATCH = pytest.mark.parametrize("executor_class",
                                   [Executor, ReferenceExecutor],
                                   ids=["decoded", "reference"])


class TestForkCaps:
    """``max_control_forks`` / ``max_memory_forks``: 0 forks nothing, a
    negative cap is rejected, a positive one keeps an even sample."""

    @DISPATCH
    @pytest.mark.parametrize("cap,landings", [(0, 0), (1, 1), (2, 2), (9, 2)])
    def test_control_fork_cap_on_factorial_labels(self, executor_class, cap,
                                                  landings):
        program = factorial_workload().program
        executor = executor_class(program, config=ExecutionConfig(
            control_fork_domain="labels", max_control_forks=cap))
        state = initial_state(input_values=(3,))
        state.pc = ERR
        successors = executor.step(state)
        assert successors[0].crashed
        assert successors[0].exception == ILLEGAL_INSTRUCTION
        assert len(successors) == 1 + landings
        assert all(s.forks == 1 for s in successors[1:])

    @DISPATCH
    @pytest.mark.parametrize("cap,forks", [(0, 0), (1, 1), (3, 3), (5, 3)])
    def test_memory_fork_cap_on_loads(self, executor_class, cap, forks):
        program = assemble("ldi $2 $1 0\nprint $2\nhalt\n")
        executor = executor_class(program, config=ExecutionConfig(
            max_memory_forks=cap))
        state = initial_state(memory={100: 7, 200: 9, 300: 11})
        state.write_register(1, ERR)
        successors = executor.step(state)
        assert successors[0].exception == ILLEGAL_ADDRESS
        assert len(successors) == 1 + forks

    @DISPATCH
    def test_memory_fork_cap_zero_on_stores(self, executor_class):
        program = assemble("sti $2 $1 0\nhalt\n")
        executor = executor_class(program, config=ExecutionConfig(
            max_memory_forks=0))
        state = initial_state(memory={100: 7})
        state.write_register(1, ERR)
        state.write_register(2, 55)
        [fresh] = executor.step(state)
        assert fresh.memory.get(101) == 55 and fresh.memory.get(100) == 7

    @pytest.mark.parametrize("field", ["max_control_forks",
                                       "max_memory_forks"])
    def test_negative_cap_is_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
            ExecutionConfig(**{field: -1})

    def test_unknown_control_fork_domain_is_rejected_when_built(self):
        """A misspelt domain fails at construction, not at the first control
        fault deep inside a campaign (or on a worker after its claim)."""
        with pytest.raises(ValueError, match="control_fork_domain must be "
                           "one of labels, targets, all, exception_only, "
                           "got 'label'"):
            ExecutionConfig(control_fork_domain="label")

    @pytest.mark.parametrize("domain", CONTROL_FORK_DOMAINS)
    def test_every_control_fork_domain_is_accepted(self, domain):
        assert ExecutionConfig(
            control_fork_domain=domain).control_fork_domain == domain


class TestIOAndSpecial:
    def test_read_print_prints(self):
        program = assemble("read $1\nprints \"value: \"\nprint $1\nhalt\n")
        executor = Executor(program, config=ExecutionConfig(max_steps=50))
        finals = explore_all(executor, initial_state(input_values=[42]))
        assert finals[0].output_values() == ("value: ", 42)

    def test_read_with_exhausted_input_crashes(self):
        finals = run_symbolic("read $1\nhalt\n")
        assert finals[0].crashed
        assert finals[0].exception == INPUT_EXHAUSTED

    def test_throw_crashes_with_message(self):
        finals = run_symbolic('throw "custom failure"\nhalt\n')
        assert finals[0].crashed
        assert finals[0].exception == "custom failure"

    def test_fall_off_end_is_illegal_instruction(self):
        finals = run_symbolic("nop\n")
        assert finals[0].crashed
        assert finals[0].exception == ILLEGAL_INSTRUCTION

    def test_watchdog_timeout(self):
        finals = run_symbolic("loop: beq $0 0 loop\nhalt\n", max_steps=25)
        assert finals[0].hung
        assert finals[0].exception == TIMED_OUT

    def test_stepping_terminated_state_is_an_error(self):
        program = assemble("halt\n")
        executor = Executor(program)
        state = initial_state()
        final = explore_all(executor, state)[0]
        with pytest.raises(MachineModelError):
            executor.step(final)


class TestConcreteInterpreter:
    def test_agrees_with_symbolic_on_concrete_program(self):
        source = """
            li $1 10
            li $2 0
            li $3 0
        loop: setge $4 $3 $1
            bne $4 0 done
            add $2 $2 $3
            addi $3 $3 1
            beq $0 0 loop
        done: print $2
            halt
        """
        program = assemble(source)
        symbolic_final = explore_all(Executor(
            program, config=ExecutionConfig(max_steps=500)), initial_state())[0]
        concrete_final = run_concrete(program, initial_state())
        assert symbolic_final.output_values() == concrete_final.output_values() == (45,)
        assert concrete_final.steps == symbolic_final.steps

    def test_concrete_step_rejects_symbolic_state(self):
        program = assemble("print $1\nhalt\n")
        state = initial_state()
        state.write_register(1, ERR)
        with pytest.raises(SymbolicValueEncountered):
            concrete_step(program, state)

    def test_run_concrete_until_positions_at_breakpoint(self):
        program = assemble("li $1 1\nli $2 2\nli $3 3\nhalt\n")
        state = initial_state()
        run_concrete_until(program, state, stop_pc=2)
        assert state.pc == 2
        assert state.read_register(2) == 2
        assert state.read_register(3) == 0

    def test_run_concrete_until_occurrence(self):
        source = """
            li $1 0
        loop: addi $1 $1 1
            setgei $2 $1 3
            beq $2 0 loop
            halt
        """
        program = assemble(source)
        state = initial_state()
        run_concrete_until(program, state, stop_pc=1, occurrence=2)
        assert state.pc == 1
        assert state.read_register(1) == 1

    def test_run_concrete_timeout(self):
        program = assemble("loop: beq $0 0 loop\n")
        state = initial_state()
        run_concrete(program, state, max_steps=10)
        assert state.hung
