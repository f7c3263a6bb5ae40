"""The string-dispatch reference interpreter for both engines.

The machine model ships one dispatch path per engine: the symbolic
:class:`~repro.machine.executor.Executor` runs the decoded concrete ops and
the ``_dx_*`` err rules, and :func:`~repro.machine.executor.run_concrete`
runs the decoded ops and superblocks.  This module keeps the original
string-dispatch implementations of both, which fetch each
:class:`~repro.isa.instructions.Instruction` and branch on its category and
opcode, as the semantic reference the differential suites check the
decoded paths against:

* :class:`ReferenceExecutor` — an ``Executor`` whose ``step`` (and
  ``advance``) dispatch through ``_HANDLERS``, one ``_execute_*`` handler
  per instruction category.  Only ``step``-level oracles use it; its
  inherited ``chain`` is the decoded one;
* :func:`reference_step` / :func:`reference_run` — the single-stepping
  concrete interpreter;
* :func:`explore_all` — every final state of a depth-first exhaustive
  run, for tests that check the set of outcomes of a small program.

The err-fork helpers (``_memory_error_loads``, ``_memory_error_stores``,
``_control_error_successors``) are shared with the decoded handlers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.constraints import ComparisonOp, Location
from repro.detectors import DetectorSet, EMPTY_DETECTORS, execute_detector
from repro.errors.comparison import resolve_comparison
from repro.errors.propagation import (IMMEDIATE_ALIASES,
                                      NonDeterministicOperation,
                                      concrete_binary, symbolic_binary)
from repro.isa.instructions import (Category, Instruction,
                                    RETURN_ADDRESS_REGISTER,
                                    compare_base_opcode)
from repro.isa.program import Program
from repro.isa.values import ERR, Value, is_err
from repro.machine.decode import COMPARE_OPS as _COMPARE_OPS
from repro.machine.exceptions import (DIVIDE_BY_ZERO, ILLEGAL_ADDRESS,
                                      ILLEGAL_INSTRUCTION, INPUT_EXHAUSTED,
                                      MachineModelError,
                                      SymbolicValueEncountered, TIMED_OUT,
                                      detector_exception)
from repro.machine.executor import Executor
from repro.machine.state import MachineState, TraceEntry

__all__ = ["ReferenceExecutor", "explore_all", "reference_run",
           "reference_step"]


class ReferenceExecutor(Executor):
    """The symbolic executor over the string-dispatch handlers."""

    def step(self, state: MachineState) -> List[MachineState]:
        """Execute one instruction, returning every feasible successor state."""
        if not state.is_running:
            raise MachineModelError("cannot step a terminated state")
        self.steps_executed += 1

        if state.steps >= self.config.max_steps:
            timed_out = state.copy()
            timed_out.time_out(TIMED_OUT)
            return [timed_out]

        pc = state.pc
        if pc is ERR:
            return self._control_error_successors(state, note="fetch with corrupted PC")

        text: Optional[str] = None
        instruction = self.program.fetch(pc)
        if instruction is None:
            crashed = state.copy()
            crashed.throw(ILLEGAL_INSTRUCTION)
            return [crashed]
        handler = self._HANDLERS[instruction.category]
        successors = handler(self, state, instruction)
        if self.config.record_trace:
            text = instruction.render()

        if self.config.prune_unsatisfiable:
            successors = [s for s in successors if s.constraints.satisfiable()]
        steps = state.steps + 1
        if self.config.record_trace:
            for successor in successors:
                successor.steps = steps
                successor.add_trace_entry(TraceEntry(pc, text))
        else:
            for successor in successors:
                successor.steps = steps
        return successors

    def advance(self, state: MachineState) -> List[MachineState]:
        """No in-place fast path: always :meth:`step`."""
        return self.step(state)

    # ------------------------------------------------------------ base helpers

    def _base(self, state: MachineState) -> MachineState:
        return state.copy()

    def _advance(self, state: MachineState) -> MachineState:
        state.pc = state.pc + 1
        return state

    def _register_value(self, state: MachineState, number: int
                        ) -> Tuple[Value, Optional[Location]]:
        value = state.read_register(number)
        location = Location.register(number) if is_err(value) else None
        return value, location

    # ------------------------------------------------- string-dispatch handlers

    def _execute_arithmetic(self, state: MachineState,
                            instruction: Instruction) -> List[MachineState]:
        rd, rs = instruction.operands[0], instruction.operands[1]
        left = state.read_register(rs)
        third = instruction.operands[2]
        if instruction.spec.signature[2].value == "reg":
            right = state.read_register(third)
            right_location = Location.register(third) if is_err(right) else None
        else:
            right = third
            right_location = None

        try:
            result = symbolic_binary(instruction.opcode, left, right)
        except ZeroDivisionError:
            return [self._crash(state, DIVIDE_BY_ZERO)]
        except NonDeterministicOperation as operation:
            return self._resolve_nondeterministic_arithmetic(
                state, instruction, left, right, right_location, operation)

        successor = self._base(state)
        successor.write_register(rd, result)
        return [self._advance(successor)]

    def _resolve_nondeterministic_arithmetic(
            self, state: MachineState, instruction: Instruction,
            left: Value, right: Value, right_location: Optional[Location],
            operation: NonDeterministicOperation) -> List[MachineState]:
        """Fork on whether the symbolic operand equals zero (Section 5.2 rules)."""
        rd = instruction.operands[0]
        operator = IMMEDIATE_ALIASES.get(instruction.opcode, instruction.opcode)
        outcomes = resolve_comparison(
            state.constraints, ComparisonOp.EQ, right, 0,
            left_location=right_location, right_location=None)
        successors: List[MachineState] = []
        for outcome in outcomes:
            branch = self._base(state)
            branch.constraints = outcome.constraints
            if outcome.result:  # the symbolic operand is zero
                if operator in ("div", "mod"):
                    branch.throw(DIVIDE_BY_ZERO)
                    successors.append(branch)
                    continue
                branch.write_register(rd, 0)
            else:
                branch.write_register(rd, ERR)
            successors.append(self._advance(branch))
        return successors

    def _execute_compare(self, state: MachineState,
                         instruction: Instruction) -> List[MachineState]:
        rd, rs = instruction.operands[0], instruction.operands[1]
        op = _COMPARE_OPS[compare_base_opcode(instruction.opcode)]
        left, left_location = self._register_value(state, rs)
        third = instruction.operands[2]
        if instruction.spec.signature[2].value == "reg":
            right, right_location = self._register_value(state, third)
        else:
            right, right_location = third, None

        outcomes = resolve_comparison(state.constraints, op, left, right,
                                      left_location, right_location)
        successors: List[MachineState] = []
        for outcome in outcomes:
            branch = self._base(state)
            branch.constraints = outcome.constraints
            branch.write_register(rd, 1 if outcome.result else 0)
            if outcome.forked:
                branch.forks += 1
            successors.append(self._advance(branch))
        return successors

    def _execute_move(self, state: MachineState,
                      instruction: Instruction) -> List[MachineState]:
        successor = self._base(state)
        rd = instruction.operands[0]
        if instruction.opcode == "mov":
            rs = instruction.operands[1]
            value = state.read_register(rs)
            successor.write_register(
                rd, value,
                transfer_from=Location.register(rs) if is_err(value) else None)
        else:  # li
            successor.write_register(rd, instruction.operands[1])
        return [self._advance(successor)]

    def _execute_load(self, state: MachineState,
                      instruction: Instruction) -> List[MachineState]:
        rt, rs, offset = instruction.operands
        base = state.read_register(rs)
        if is_err(base):
            return self._memory_error_loads(state, rt)
        address = base + offset
        if not state.is_defined_address(address):
            return [self._crash(state, ILLEGAL_ADDRESS)]
        value = state.read_memory(address)
        successor = self._base(state)
        successor.write_register(
            rt, value,
            transfer_from=Location.memory(address) if is_err(value) else None)
        return [self._advance(successor)]

    def _execute_store(self, state: MachineState,
                       instruction: Instruction) -> List[MachineState]:
        rt, rs, offset = instruction.operands
        value = state.read_register(rt)
        value_location = Location.register(rt) if is_err(value) else None
        base = state.read_register(rs)
        if is_err(base):
            return self._memory_error_stores(state, value, value_location)
        address = base + offset
        successor = self._base(state)
        successor.write_memory(address, value, transfer_from=value_location)
        return [self._advance(successor)]

    def _execute_branch(self, state: MachineState,
                        instruction: Instruction) -> List[MachineState]:
        rs, immediate, label = instruction.operands
        op = ComparisonOp.EQ if instruction.opcode == "beq" else ComparisonOp.NE
        value, location = self._register_value(state, rs)
        target = self.program.resolve(label)
        outcomes = resolve_comparison(state.constraints, op, value, immediate,
                                      location, None)
        successors: List[MachineState] = []
        for outcome in outcomes:
            branch = self._base(state)
            branch.constraints = outcome.constraints
            if outcome.forked:
                branch.forks += 1
            branch.pc = target if outcome.result else branch.pc + 1
            successors.append(branch)
        return successors

    def _execute_jump(self, state: MachineState,
                      instruction: Instruction) -> List[MachineState]:
        successor = self._base(state)
        successor.pc = self.program.resolve(instruction.operands[0])
        return [successor]

    def _execute_call(self, state: MachineState,
                      instruction: Instruction) -> List[MachineState]:
        successor = self._base(state)
        successor.write_register(RETURN_ADDRESS_REGISTER, state.pc + 1)
        successor.pc = self.program.resolve(instruction.operands[0])
        return [successor]

    def _execute_jump_register(self, state: MachineState,
                               instruction: Instruction) -> List[MachineState]:
        target = state.read_register(instruction.operands[0])
        if is_err(target):
            return self._control_error_successors(
                state, note=f"jr ${instruction.operands[0]} with corrupted target")
        if not self.program.is_valid_address(target):
            return [self._crash(state, ILLEGAL_INSTRUCTION)]
        successor = self._base(state)
        successor.pc = target
        return [successor]

    def _execute_io_read(self, state: MachineState,
                         instruction: Instruction) -> List[MachineState]:
        if not state.has_input():
            return [self._crash(state, INPUT_EXHAUSTED)]
        successor = self._base(state)
        value = successor.next_input()
        successor.write_register(instruction.operands[0], value)
        return [self._advance(successor)]

    def _execute_io_write(self, state: MachineState,
                          instruction: Instruction) -> List[MachineState]:
        successor = self._base(state)
        if instruction.opcode == "print":
            successor.append_output(state.read_register(instruction.operands[0]))
        else:  # prints
            successor.append_output(instruction.operands[0])
        return [self._advance(successor)]

    def _execute_check(self, state: MachineState,
                       instruction: Instruction) -> List[MachineState]:
        identifier = instruction.operands[0]
        detector = self.detectors.get(identifier)
        if detector is None:
            raise MachineModelError(
                f"check instruction references unknown detector {identifier}")
        outcomes = execute_detector(detector, state)
        successors: List[MachineState] = []
        for outcome in outcomes:
            branch = self._base(state)
            branch.constraints = outcome.constraints
            if outcome.forked:
                branch.forks += 1
            if outcome.detected:
                branch.detect(identifier, detector_exception(identifier))
            else:
                self._advance(branch)
            successors.append(branch)
        return successors

    def _execute_special(self, state: MachineState,
                         instruction: Instruction) -> List[MachineState]:
        if instruction.opcode == "halt":
            successor = self._base(state)
            successor.halt()
            return [successor]
        if instruction.opcode == "nop":
            return [self._advance(self._base(state))]
        if instruction.opcode == "throw":
            return [self._crash(state, instruction.operands[0])]
        raise MachineModelError(
            f"unhandled special opcode {instruction.opcode} at pc {state.pc} "
            f"({self.program.source_line(state.pc)})")

    _HANDLERS = {
        Category.ARITHMETIC: _execute_arithmetic,
        Category.COMPARE: _execute_compare,
        Category.MOVE: _execute_move,
        Category.LOAD: _execute_load,
        Category.STORE: _execute_store,
        Category.BRANCH: _execute_branch,
        Category.JUMP: _execute_jump,
        Category.CALL: _execute_call,
        Category.JUMP_REGISTER: _execute_jump_register,
        Category.IO_READ: _execute_io_read,
        Category.IO_WRITE: _execute_io_write,
        Category.CHECK: _execute_check,
        Category.SPECIAL: _execute_special,
    }


def explore_all(executor: Executor, state: MachineState,
                max_states: int = 1_000_000) -> List[MachineState]:
    """Exhaustively run *state* to termination, returning all final states.

    A depth-first walk over ``executor.step``; the model checker in
    :mod:`repro.core.search` offers the full search interface.
    """
    frontier = [state]
    finals: List[MachineState] = []
    explored = 0
    while frontier:
        current = frontier.pop()
        for successor in executor.step(current):
            explored += 1
            if explored > max_states:
                raise MachineModelError("state budget exhausted in explore_all")
            if successor.is_running:
                frontier.append(successor)
            else:
                finals.append(successor)
    return finals


# --------------------------------------------------------------------------
# String-dispatch concrete interpreter.
# --------------------------------------------------------------------------

def reference_step(program: Program, state: MachineState,
                   detectors: DetectorSet = EMPTY_DETECTORS) -> MachineState:
    """String-dispatch :func:`~repro.machine.executor.concrete_step`."""
    pc = state.pc
    if is_err(pc):
        raise SymbolicValueEncountered("PC is err")
    instruction = program.fetch(pc)
    if instruction is None:
        state.throw(ILLEGAL_INSTRUCTION)
        return state

    opcode = instruction.opcode
    operands = instruction.operands
    category = instruction.category
    state.steps += 1

    def reg(number: int) -> int:
        value = state.read_register(number)
        if is_err(value):
            raise SymbolicValueEncountered(f"register ${number} is err")
        return value

    if category is Category.ARITHMETIC:
        rd, rs, third = operands
        left = reg(rs)
        right = reg(third) if instruction.spec.signature[2].value == "reg" else third
        operator = IMMEDIATE_ALIASES.get(opcode, opcode)
        if operator in ("div", "mod") and right == 0:
            state.throw(DIVIDE_BY_ZERO)
            return state
        state.write_register(rd, concrete_binary(operator, left, right))
        state.pc = pc + 1
    elif category is Category.COMPARE:
        rd, rs, third = operands
        op = _COMPARE_OPS[compare_base_opcode(opcode)]
        left = reg(rs)
        right = reg(third) if instruction.spec.signature[2].value == "reg" else third
        state.write_register(rd, 1 if op.evaluate(left, right) else 0)
        state.pc = pc + 1
    elif category is Category.MOVE:
        value = reg(operands[1]) if opcode == "mov" else operands[1]
        state.write_register(operands[0], value)
        state.pc = pc + 1
    elif category is Category.LOAD:
        rt, rs, offset = operands
        address = reg(rs) + offset
        if not state.is_defined_address(address):
            state.throw(ILLEGAL_ADDRESS)
            return state
        value = state.read_memory(address)
        if is_err(value):
            raise SymbolicValueEncountered(f"memory {address} is err")
        state.write_register(rt, value)
        state.pc = pc + 1
    elif category is Category.STORE:
        rt, rs, offset = operands
        state.write_memory(reg(rs) + offset, reg(rt))
        state.pc = pc + 1
    elif category is Category.BRANCH:
        rs, immediate, label = operands
        value = reg(rs)
        taken = (value == immediate) if opcode == "beq" else (value != immediate)
        state.pc = program.resolve(label) if taken else pc + 1
    elif category is Category.JUMP:
        state.pc = program.resolve(operands[0])
    elif category is Category.CALL:
        state.write_register(RETURN_ADDRESS_REGISTER, pc + 1)
        state.pc = program.resolve(operands[0])
    elif category is Category.JUMP_REGISTER:
        target = reg(operands[0])
        if not program.is_valid_address(target):
            state.throw(ILLEGAL_INSTRUCTION)
            return state
        state.pc = target
    elif category is Category.IO_READ:
        if not state.has_input():
            state.throw(INPUT_EXHAUSTED)
            return state
        state.write_register(operands[0], state.next_input())
        state.pc = pc + 1
    elif category is Category.IO_WRITE:
        if opcode == "print":
            state.append_output(reg(operands[0]))
        else:
            state.append_output(operands[0])
        state.pc = pc + 1
    elif category is Category.CHECK:
        detector = detectors.get(operands[0])
        if detector is None:
            raise MachineModelError(
                f"check instruction references unknown detector {operands[0]}")
        outcomes = execute_detector(detector, state)
        if len(outcomes) != 1:
            raise SymbolicValueEncountered("detector outcome is symbolic")
        if outcomes[0].detected:
            state.detect(operands[0], detector_exception(operands[0]))
        else:
            state.pc = pc + 1
    elif category is Category.SPECIAL:
        if opcode == "halt":
            state.halt()
        elif opcode == "nop":
            state.pc = pc + 1
        elif opcode == "throw":
            state.throw(operands[0])
        else:  # pragma: no cover - exhaustive
            raise MachineModelError(
                f"unhandled special opcode {opcode} at pc {pc} "
                f"({program.source_line(pc)})")
    else:  # pragma: no cover - exhaustive
        raise MachineModelError(f"unhandled category {category}")
    return state


def reference_run(program: Program, state: MachineState,
                  detectors: DetectorSet = EMPTY_DETECTORS,
                  max_steps: int = 200_000) -> MachineState:
    """Single-stepping :func:`~repro.machine.executor.run_concrete` over
    :func:`reference_step`."""
    while state.is_running:
        if state.steps >= max_steps:
            state.time_out(TIMED_OUT)
            break
        reference_step(program, state, detectors)
    return state
