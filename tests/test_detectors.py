"""Tests for the detector model: expressions, specifications and execution."""

import pytest

from repro.constraints import ComparisonOp, Constraint, Location
from repro.detectors import (DetectorError, DetectorSet, execute_detector,
                             parse_detector, parse_expression,
                             read_location, single_location)
from repro.detectors.expression import (BinaryOp, Constant, ExpressionError,
                                        MemoryRef, RegisterRef)
from repro.isa.parser import assemble
from repro.isa.values import ERR
from repro.machine import (ExecutionConfig, Executor, MachineModelError, Status,
                           initial_state)
from reference_interpreter import explore_all


class TestExpressionParsing:
    def test_paper_example(self):
        expression = parse_expression("($3) + *(1000)")
        assert isinstance(expression, BinaryOp)
        assert expression.operator == "+"
        assert expression.left == RegisterRef(3)
        assert expression.right == MemoryRef(1000)

    def test_precedence(self):
        expression = parse_expression("$(6) + $(1) * (2)")
        assert expression.operator == "+"
        assert isinstance(expression.right, BinaryOp)
        assert expression.right.operator == "*"

    def test_parentheses_override_precedence(self):
        expression = parse_expression("( $(6) + $(1) ) * (2)")
        assert expression.operator == "*"

    def test_constants_and_negative_numbers(self):
        assert parse_expression("(5)") == Constant(5)
        assert parse_expression("-3") == Constant(-3)

    def test_malformed_expressions_rejected(self):
        for text in ("", "$(3) +", "abc", "((1)", "$(3) $ 4"):
            with pytest.raises(ExpressionError):
                parse_expression(text)

    def test_locations_collected(self):
        expression = parse_expression("$(6) * $(1) + *(1000)")
        assert expression.locations() == {Location.register(6),
                                          Location.register(1),
                                          Location.memory(1000)}

    def test_single_location(self):
        assert single_location(parse_expression("$(4)")) == Location.register(4)
        assert single_location(parse_expression("*(8)")) == Location.memory(8)
        assert single_location(parse_expression("$(4) + (1)")) is None

    def test_render_round_trip(self):
        expression = parse_expression("$(6) * $(1) + (7)")
        assert parse_expression(expression.render()) == expression


class TestExpressionEvaluation:
    def make_state(self):
        state = initial_state(memory={1000: 20})
        state.write_register(3, 5)
        state.write_register(6, 7)
        return state

    def test_arithmetic_evaluation(self):
        from repro.detectors import MachineStateReader
        reader = MachineStateReader(self.make_state())
        assert parse_expression("$(3) + *(1000)").evaluate(reader) == 25
        assert parse_expression("$(6) * $(3) - (5)").evaluate(reader) == 30
        assert parse_expression("*(1000) / $(3)").evaluate(reader) == 4

    def test_err_propagates_through_expression(self):
        from repro.detectors import MachineStateReader
        state = self.make_state()
        state.write_register(3, ERR)
        reader = MachineStateReader(state)
        assert parse_expression("$(3) + (1)").evaluate(reader) is ERR
        assert parse_expression("$(3) * (0)").evaluate(reader) == 0

    def test_undefined_memory_reads_zero(self):
        from repro.detectors import MachineStateReader
        reader = MachineStateReader(initial_state())
        assert parse_expression("*(555) + (3)").evaluate(reader) == 3


class TestDetectorParsing:
    def test_paper_format(self):
        detector = parse_detector("det(4, $(5), ==, ($3) + *(1000))")
        assert detector.identifier == 4
        assert detector.target == Location.register(5)
        assert detector.op is ComparisonOp.EQ

    def test_memory_target(self):
        detector = parse_detector("det(1, *(200), >=, (0))")
        assert detector.target == Location.memory(200)

    def test_all_comparison_operators(self):
        for symbol in ("==", "=/=", "!=", ">", "<", ">=", "<="):
            parse_detector(f"det(1, $(1), {symbol}, (0))")

    def test_malformed_rejected(self):
        for text in ("det()", "det(1, $(1), ~~, (0))", "check(1)", "det(x, $(1), ==, (0))"):
            with pytest.raises(DetectorError):
                parse_detector(text)

    def test_render_round_trip(self):
        detector = parse_detector("det(2, $(2), >=, $(6) * $(1))")
        assert parse_detector(detector.render()) == detector


class TestDetectorSet:
    def test_parse_multiple_with_comments(self):
        detectors = DetectorSet.parse("""
            det(1, $(3), >, $(4))   -- loop bound check
            det(2, $(2), >=, $(6) * $(1))
        """)
        assert len(detectors) == 2
        assert detectors.identifiers() == (1, 2)
        assert 1 in detectors and 3 not in detectors

    def test_duplicate_identifier_rejected(self):
        with pytest.raises(DetectorError):
            DetectorSet.parse("det(1, $(1), ==, (0))\ndet(1, $(2), ==, (0))")

    def test_render(self):
        detectors = DetectorSet.parse("det(1, $(3), >, $(4))")
        assert "det(1" in detectors.render()


class TestDetectorExecution:
    def test_concrete_pass_and_fail(self):
        detector = parse_detector("det(1, $(5), ==, $(3) + *(1000))")
        state = initial_state(memory={1000: 20})
        state.write_register(3, 5)
        state.write_register(5, 25)
        outcomes = execute_detector(detector, state)
        assert [o.detected for o in outcomes] == [False]

        state.write_register(5, 26)
        outcomes = execute_detector(detector, state)
        assert [o.detected for o in outcomes] == [True]

    def test_symbolic_target_forks_and_constrains(self):
        detector = parse_detector("det(1, $(3), >, (4))")
        state = initial_state()
        state.write_register(3, ERR)
        outcomes = execute_detector(detector, state)
        assert {o.detected for o in outcomes} == {True, False}
        passing = next(o for o in outcomes if not o.detected)
        assert passing.constraints.constraints_for(Location.register(3)).admits(5)
        failing = next(o for o in outcomes if o.detected)
        assert failing.constraints.constraints_for(Location.register(3)).admits(4)

    def test_detector_respects_existing_constraints(self):
        detector = parse_detector("det(1, $(3), >, (4))")
        state = initial_state()
        state.write_register(3, ERR)
        state.constraints = state.constraints.with_constraint(
            Location.register(3), Constraint(ComparisonOp.GT, 100))
        outcomes = execute_detector(detector, state)
        assert [o.detected for o in outcomes] == [False]

    def test_read_location_helpers(self):
        state = initial_state(memory={7: 9})
        state.write_register(2, 3)
        assert read_location(state, Location.register(2)) == 3
        assert read_location(state, Location.memory(7)) == 9
        assert read_location(state, Location.memory(8)) == 0


class TestCheckInstruction:
    def test_check_passes_and_program_continues(self):
        program = assemble("li $1 5\ncheck 1\nprints \"ok\"\nhalt\n")
        detectors = DetectorSet.parse("det(1, $(1), ==, (5))")
        executor = Executor(program, detectors, ExecutionConfig(max_steps=50))
        finals = explore_all(executor, initial_state())
        assert finals[0].status is Status.HALTED
        assert finals[0].output_values() == ("ok",)

    def test_check_fires_and_stops_program(self):
        program = assemble("li $1 4\ncheck 1\nprints \"ok\"\nhalt\n")
        detectors = DetectorSet.parse("det(1, $(1), ==, (5))")
        executor = Executor(program, detectors, ExecutionConfig(max_steps=50))
        finals = explore_all(executor, initial_state())
        assert finals[0].status is Status.DETECTED
        assert finals[0].detector_id == 1
        assert finals[0].output_values() == ()

    def test_check_with_unknown_detector_is_a_model_error(self):
        program = assemble("check 9\nhalt\n")
        executor = Executor(program, DetectorSet(), ExecutionConfig(max_steps=50))
        with pytest.raises(MachineModelError):
            explore_all(executor, initial_state())

    def test_symbolic_check_forks_into_detected_and_missed(self):
        program = assemble("check 1\nprint $1\nhalt\n")
        detectors = DetectorSet.parse("det(1, $(1), >, (0))")
        executor = Executor(program, detectors, ExecutionConfig(max_steps=50))
        state = initial_state()
        state.write_register(1, ERR)
        finals = explore_all(executor, state)
        statuses = {s.status for s in finals}
        assert statuses == {Status.DETECTED, Status.HALTED}
