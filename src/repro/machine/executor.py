"""Execution semantics of the SymPLFIED machine.

Two interpreters live here:

* :class:`Executor` — the full symbolic semantics.  ``step`` maps one machine
  state to the *list* of its successor states.  This is the Python rendition
  of the paper's Maude equations (deterministic machine model) plus rewrite
  rules (non-deterministic error model), and each half has one
  implementation:

  - the equations are the decoded concrete ops.  An instruction that reads
    no ``err`` runs its op and yields exactly one successor: ``step`` runs
    it on a copy, ``advance`` (``step`` for a caller that owns the state)
    in place;
  - the rewrite rules are the ``_dx_*`` handlers.  An instruction whose
    outcome depends on an ``err`` value (comparisons, branches, loads/stores
    through a corrupted pointer, jumps through a corrupted target, division
    by a corrupted value) yields one successor per feasible resolution,
    with the constraint map updated so that later comparisons over the same
    location stay consistent.

* :func:`concrete_step` / :func:`run_concrete` — a lean, mutating
  interpreter for fully concrete states.  It implements the same machine
  semantics without any symbolic machinery and is used for the deterministic
  prefix before an injection point, for the err-free tails of a search and
  by the SimpleScalar-substitute simulator in :mod:`repro.concrete`.  Given
  a :class:`ConcreteFutures`, ``run_concrete`` ends a run early when it
  rejoins a recorded err-free run, by copying that run's terminal state,
  and ends a hung run at its watchdog as soon as it closes a cycle;
  :func:`run_to_breakpoint` starts a prefix from the golden run's nearest
  :class:`GoldenCheckpoints` state instead of from step 0.

Both interpreters run off the pre-decoded tables built by
:mod:`repro.machine.decode`: operands, comparison operators, binary
operators and branch targets are resolved once per program, so the hot loop
does no string work.  The original string-dispatch implementations are
kept verbatim — ``ExecutionConfig(legacy_dispatch=True)`` for the symbolic
executor, :func:`concrete_step_legacy` / :func:`run_concrete_legacy` for the
concrete one — as the semantic reference for the decode-equivalence tests
and benchmarks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs as _obs
from ..constraints import ComparisonOp, Location
from ..detectors import DetectorSet, EMPTY_DETECTORS, execute_detector
from ..errors.comparison import resolve_comparison
from ..errors.propagation import (IMMEDIATE_ALIASES, NonDeterministicOperation,
                                  concrete_binary, symbolic_binary)
from ..isa.instructions import (Category, Instruction,
                                RETURN_ADDRESS_REGISTER, ZERO_REGISTER,
                                compare_base_opcode)
from ..isa.program import Program
from ..isa.values import ERR, Value, is_err
from .decode import COMPARE_OPS as _COMPARE_OPS
from .decode import (DecodedInstruction, DecodedProgram, cap_evenly,
                     decoded_program)
from .exceptions import (DIVIDE_BY_ZERO, ILLEGAL_ADDRESS, ILLEGAL_INSTRUCTION,
                         INPUT_EXHAUSTED, MachineModelError,
                         SymbolicValueEncountered, TIMED_OUT,
                         detector_exception)
from .state import Fingerprint, MachineState, Status, TraceEntry

__all__ = [
    "ConcreteFutures", "ExecutionConfig", "Executor", "GoldenCheckpoints",
    "SymbolicValueEncountered", "apply_fault", "apply_fault_set",
    "concrete_step", "concrete_step_legacy", "run_concrete",
    "run_concrete_legacy", "run_concrete_until", "run_to_breakpoint",
]


@dataclass
class ExecutionConfig:
    """Tunable parameters of the symbolic execution and error semantics.

    Attributes:
        max_steps: watchdog bound on executed instructions (paper Section 5.4);
            exceeding it marks the state as ``TIMEOUT`` (a hang).
        control_fork_domain: where an erroneous jump/branch target or PC may
            land — ``"labels"`` (label addresses only), ``"targets"``
            (statically plausible control-transfer targets), ``"all"`` (every
            valid code address, the paper's literal semantics) or
            ``"exception_only"`` (only the illegal-instruction outcome).
        max_control_forks: cap on the number of forked landing sites
            (0 forks none: only the crash outcome remains).
        max_memory_forks: cap on the number of forked memory locations an
            erroneous load/store address may point to, drawn from the
            currently defined memory words (0 forks none: a load keeps only
            the crash outcome, a store only the fresh-address one).
        prune_unsatisfiable: whether the constraint solver prunes infeasible
            branches (turning this off is the paper's implicit baseline and is
            exercised by the ablation benchmark).
        record_trace: whether to append a human-readable trace entry per step.
        legacy_dispatch: run the original string-dispatch handlers instead of
            the pre-decoded dispatch table.  Test-only flag kept for the
            decode-equivalence suite and legacy-vs-decoded benchmarks.
    """

    max_steps: int = 20_000
    control_fork_domain: str = "labels"
    max_control_forks: int = 128
    max_memory_forks: int = 16
    prune_unsatisfiable: bool = True
    record_trace: bool = False
    legacy_dispatch: bool = False

    def __post_init__(self) -> None:
        for name in ("max_control_forks", "max_memory_forks"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}")


def apply_fault(state: MachineState, kind: str, index: int,
                value: Value) -> None:
    """Apply one fault-spec corruption to *state* through the CoW write API.

    The single write path every fault model funnels through: *kind* is a
    :class:`~repro.constraints.Location` kind (``"reg"``, ``"mem"`` or
    ``"pc"``), *value* is ``ERR`` or a concrete integer.  Register and
    memory corruptions go through ``write_register`` / ``write_memory`` so
    the state's incremental fingerprint and err census stay correct; a
    corrupted PC also drops any stale constraint recorded for it.  Writes
    to the hard-wired zero register are ignored (it cannot hold an error).
    """
    if kind == Location.REGISTER:
        if index == ZERO_REGISTER:
            return
        state.write_register(index, value)
    elif kind == Location.MEMORY:
        state.write_memory(index, value)
    elif kind == Location.PC:
        state.pc = value
        state.constraints = state.constraints.without(Location.pc())
    else:
        raise ValueError(f"unknown fault location kind {kind!r}")


def _read_fault_target(state: MachineState, target: Location) -> Value:
    """Current contents of a fault target (for read-modify-write faults)."""
    if target.kind == Location.REGISTER:
        return state.read_register(target.index)
    if target.kind == Location.MEMORY:
        # An undefined word reads as zero, matching the machine's
        # zero-initialised memory semantics.
        return state.memory.get(target.index, 0)
    if target.kind == Location.PC:
        return state.pc
    raise ValueError(f"unknown fault location kind {target.kind!r}")


def apply_fault_set(state: MachineState, specs) -> None:
    """Apply an ordered collection of fault specs through :func:`apply_fault`.

    The multi-error entry point: every corruption — plain specs, the
    ordered components of a :class:`~repro.faults.spec.BurstFaultSpec`, and
    read-modify-write :class:`~repro.faults.spec.BitFlipFaultSpec` bit
    flips — funnels through the single CoW write path, so incremental
    fingerprints, the err census and the constraint map stay correct no
    matter how many locations one experiment corrupts.

    Specs are duck-typed (this module must not import :mod:`repro.faults`):
    a spec with a non-empty ``components`` tuple is a burst and recurses
    over its components in order; a spec with a ``bit`` attribute flips
    that bit of the target's current contents (``err`` stays ``err`` — a
    flipped unknown is still unknown); anything else writes its ``value``
    (``ERR`` for plain injections).
    """
    for spec in specs:
        components = getattr(spec, "components", None)
        if components:
            apply_fault_set(state, components)
            continue
        target = spec.target
        bit = getattr(spec, "bit", None)
        if bit is not None:
            value = _read_fault_target(state, target)
            if not is_err(value):
                value = value ^ (1 << bit)
        else:
            value = getattr(spec, "value", ERR)
        apply_fault(state, target.kind, target.index, value)


class Executor:
    """Symbolic executor for one program (plus its detectors)."""

    def __init__(self, program: Program,
                 detectors: DetectorSet = EMPTY_DETECTORS,
                 config: Optional[ExecutionConfig] = None) -> None:
        self.program = program
        self.detectors = detectors
        self.config = config or ExecutionConfig()
        #: Lifetime count of symbolic steps; a plain int so the hot loop
        #: pays one increment — telemetry reads deltas at search epilogues.
        self.steps_executed = 0
        #: The share of ``steps_executed`` that ``advance`` ran concretely.
        self.concrete_steps = 0
        self._decoded: DecodedProgram = decoded_program(program)
        if self.config.legacy_dispatch:
            self._dispatch = None
        else:
            self._dispatch = self._build_dispatch()

    def _build_dispatch(self) -> List:
        """Per-pc handler table: ``handlers[pc](self, state, decoded[pc])``.

        Jumps, calls, reads and the halt/nop/throw specials read no
        register, so they always run concretely; they share
        ``_dx_unhandled`` with the unhandled specials.
        """
        handlers = self._DX_HANDLERS
        return [handlers.get(entry.category, Executor._dx_unhandled)
                for entry in self._decoded.entries]

    # ------------------------------------------------------------------- step

    def step(self, state: MachineState) -> List[MachineState]:
        """Execute one instruction, returning every feasible successor state.

        *state* is left as it was.  An instruction that reads no ``err``
        runs its decoded concrete op on a copy; the rest take the symbolic
        handlers, which hold only the ``err`` rules.
        """
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

        dispatch = self._dispatch
        text: Optional[str] = None
        if dispatch is not None:
            if type(pc) is int and 0 <= pc < len(dispatch):
                decoded = self._decoded.entries[pc]
                successors = None
                reads = decoded.reads
                if reads is not None:
                    read = state.read_register
                    for number in reads:
                        if read(number) is ERR:
                            break
                    else:
                        # No err operand: the concrete op, on a copy.  A
                        # load that meets an err cell raises, and the
                        # handler below takes it instead.
                        successor = state.copy()
                        try:
                            self._decoded.concrete_ops[pc](successor,
                                                           self.detectors)
                            successors = [successor]
                        except SymbolicValueEncountered:
                            pass
                if successors is None:
                    successors = dispatch[pc](self, state, decoded)
                text = decoded.text
            else:
                crashed = state.copy()
                crashed.throw(ILLEGAL_INSTRUCTION)
                return [crashed]
        else:
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
        """:meth:`step` for a caller that owns *state*: it may be consumed.

        When the instruction at the program counter reads no ``err``
        register and is not a detector ``check``, the decoded concrete op
        runs on *state* in place and *state* comes back as the single
        successor — the one ``step`` would build on a copy, without the
        copy.  A load whose cell turns out to hold ``err`` raises before any
        write (only the step count moved), so it is undone and ``step``
        takes over, as it does for everything else.
        """
        dispatch = self._dispatch
        pc = state.pc
        if (dispatch is not None and type(pc) is int
                and 0 <= pc < len(dispatch)
                and state.status is Status.RUNNING):
            steps = state.steps
            config = self.config
            decoded = self._decoded.entries[pc]
            reads = decoded.reads
            if steps < config.max_steps and reads is not None:
                read = state.read_register
                for number in reads:
                    if read(number) is ERR:
                        return self.step(state)
                try:
                    self._decoded.concrete_ops[pc](state, self.detectors)
                except SymbolicValueEncountered:
                    state.steps = steps
                    return self.step(state)
                self.steps_executed += 1
                self.concrete_steps += 1
                if config.record_trace:
                    state.add_trace_entry(TraceEntry(pc, decoded.text))
                if (config.prune_unsatisfiable
                        and not state.constraints.satisfiable()):
                    return []
                return [state]
        return self.step(state)

    def run(self, state: MachineState,
            max_states: int = 1_000_000) -> List[MachineState]:
        """Exhaustively run *state* to termination, returning all final states.

        Convenience wrapper mostly used by tests and examples; the model
        checker in :mod:`repro.core.search` offers the full search interface.
        """
        frontier = [state]
        finals: List[MachineState] = []
        explored = 0
        while frontier:
            current = frontier.pop()
            for successor in self.step(current):
                explored += 1
                if explored > max_states:
                    raise MachineModelError("state budget exhausted in Executor.run")
                if successor.is_running:
                    frontier.append(successor)
                else:
                    finals.append(successor)
        return finals

    # ------------------------------------------------------------ base helpers

    def _base(self, state: MachineState) -> MachineState:
        return state.copy()

    def _advance(self, state: MachineState) -> MachineState:
        state.pc = state.pc + 1
        return state

    def _crash(self, state: MachineState, message: str) -> MachineState:
        crashed = state.copy()
        crashed.throw(message)
        return crashed

    def _register_value(self, state: MachineState, number: int
                        ) -> Tuple[Value, Optional[Location]]:
        value = state.read_register(number)
        location = Location.register(number) if is_err(value) else None
        return value, location

    # ----------------------------------------------------- decoded handlers
    #
    # The err rules, one handler per decoded category, taking the
    # DecodedInstruction instead of the raw Instruction.  ``step`` calls a
    # handler only when the concrete op cannot run: a read-set register
    # holds ``err``, a load's cell does, or the entry is a ``check`` or an
    # unhandled special.  So every handler below sees at least one ``err``
    # operand (``check`` excepted), and categories that read no register
    # have none.

    def _dx_arithmetic(self, state: MachineState,
                       d: DecodedInstruction) -> List[MachineState]:
        left = state.read_register(d.b)
        if d.third_is_reg:
            right = state.read_register(d.c)
        else:
            right = d.c
        try:
            result = symbolic_binary(d.operator, left, right)
        except ZeroDivisionError:
            return [self._crash(state, DIVIDE_BY_ZERO)]
        except NonDeterministicOperation:
            right_location = Location.register(d.c) \
                if d.third_is_reg and right is ERR else None
            return self._dx_nondeterministic_arithmetic(
                state, d, right, right_location)
        successor = state.copy()
        successor.write_register(d.a, result)
        successor.pc = d.next_pc
        return [successor]

    def _dx_nondeterministic_arithmetic(
            self, state: MachineState, d: DecodedInstruction, right: Value,
            right_location: Optional[Location]) -> List[MachineState]:
        """Fork on whether the symbolic operand equals zero (Section 5.2 rules)."""
        outcomes = resolve_comparison(
            state.constraints, ComparisonOp.EQ, right, 0,
            left_location=right_location, right_location=None)
        successors: List[MachineState] = []
        for outcome in outcomes:
            branch = state.copy()
            branch.constraints = outcome.constraints
            if outcome.result:  # the symbolic operand is zero
                if d.divmod:
                    branch.throw(DIVIDE_BY_ZERO)
                    successors.append(branch)
                    continue
                branch.write_register(d.a, 0)
            else:
                branch.write_register(d.a, ERR)
            branch.pc = d.next_pc
            successors.append(branch)
        return successors

    def _dx_compare(self, state: MachineState,
                    d: DecodedInstruction) -> List[MachineState]:
        left = state.read_register(d.b)
        if d.third_is_reg:
            right = state.read_register(d.c)
        else:
            right = d.c
        left_location = Location.register(d.b) if left is ERR else None
        right_location = Location.register(d.c) \
            if d.third_is_reg and right is ERR else None
        outcomes = resolve_comparison(state.constraints, d.compare_op,
                                      left, right, left_location, right_location)
        successors: List[MachineState] = []
        for outcome in outcomes:
            branch = state.copy()
            branch.constraints = outcome.constraints
            branch.write_register(d.a, 1 if outcome.result else 0)
            if outcome.forked:
                branch.forks += 1
            branch.pc = d.next_pc
            successors.append(branch)
        return successors

    def _dx_move(self, state: MachineState,
                 d: DecodedInstruction) -> List[MachineState]:
        """``mov`` from an ``err`` register: the copy takes its constraints."""
        successor = state.copy()
        successor.write_register(d.a, state.read_register(d.b),
                                 transfer_from=Location.register(d.b))
        successor.pc = d.next_pc
        return [successor]

    def _dx_load(self, state: MachineState,
                 d: DecodedInstruction) -> List[MachineState]:
        base = state.read_register(d.b)
        if base is ERR:
            return self._memory_error_loads(state, d.a)
        # A concrete base: the concrete op stopped at an err cell.
        address = base + d.c
        successor = state.copy()
        successor.write_register(d.a, state.read_memory(address),
                                 transfer_from=Location.memory(address))
        successor.pc = d.next_pc
        return [successor]

    def _dx_store(self, state: MachineState,
                  d: DecodedInstruction) -> List[MachineState]:
        value = state.read_register(d.a)
        value_location = Location.register(d.a) if value is ERR else None
        base = state.read_register(d.b)
        if base is ERR:
            return self._memory_error_stores(state, value, value_location)
        successor = state.copy()
        successor.write_memory(base + d.c, value, transfer_from=value_location)
        successor.pc = d.next_pc
        return [successor]

    def _dx_branch(self, state: MachineState,
                   d: DecodedInstruction) -> List[MachineState]:
        outcomes = resolve_comparison(state.constraints, d.compare_op,
                                      state.read_register(d.a), d.c,
                                      Location.register(d.a), None)
        successors: List[MachineState] = []
        for outcome in outcomes:
            branch = state.copy()
            branch.constraints = outcome.constraints
            if outcome.forked:
                branch.forks += 1
            branch.pc = d.target if outcome.result else d.next_pc
            successors.append(branch)
        return successors

    def _dx_jump_register(self, state: MachineState,
                          d: DecodedInstruction) -> List[MachineState]:
        return self._control_error_successors(
            state, note=f"jr ${d.a} with corrupted target")

    def _dx_io_write(self, state: MachineState,
                     d: DecodedInstruction) -> List[MachineState]:
        """``print`` of an ``err`` register."""
        successor = state.copy()
        successor.append_output(state.read_register(d.a))
        successor.pc = d.next_pc
        return [successor]

    def _dx_check(self, state: MachineState,
                  d: DecodedInstruction) -> List[MachineState]:
        detector = self.detectors.get(d.a)
        if detector is None:
            raise MachineModelError(
                f"check instruction references unknown detector {d.a}")
        outcomes = execute_detector(detector, state)
        successors: List[MachineState] = []
        for outcome in outcomes:
            branch = state.copy()
            branch.constraints = outcome.constraints
            if outcome.forked:
                branch.forks += 1
            if outcome.detected:
                branch.detect(d.a, detector_exception(d.a))
            else:
                branch.pc = d.next_pc
            successors.append(branch)
        return successors

    def _dx_unhandled(self, state: MachineState,
                      d: DecodedInstruction) -> List[MachineState]:
        raise MachineModelError(d.b)

    _DX_HANDLERS = {
        Category.ARITHMETIC: _dx_arithmetic,
        Category.COMPARE: _dx_compare,
        Category.MOVE: _dx_move,
        Category.LOAD: _dx_load,
        Category.STORE: _dx_store,
        Category.BRANCH: _dx_branch,
        Category.JUMP_REGISTER: _dx_jump_register,
        Category.IO_WRITE: _dx_io_write,
        Category.CHECK: _dx_check,
    }

    # ------------------------------------------- legacy string-dispatch path
    #
    # The original handlers, kept verbatim as the semantic reference for the
    # decoded dispatch table (``ExecutionConfig(legacy_dispatch=True)``).

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

    def _memory_error_loads(self, state: MachineState, rt: int) -> List[MachineState]:
        """Load through a corrupted pointer: arbitrary location or exception."""
        successors: List[MachineState] = [self._crash(state, ILLEGAL_ADDRESS)]
        for address in self._memory_fork_addresses(state):
            branch = self._base(state)
            value = branch.read_memory(address)
            branch.write_register(
                rt, value,
                transfer_from=Location.memory(address) if is_err(value) else None)
            branch.forks += 1
            successors.append(self._advance(branch))
        return successors

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

    def _memory_error_stores(self, state: MachineState, value: Value,
                             value_location: Optional[Location]) -> List[MachineState]:
        """Store through a corrupted pointer: overwrite an arbitrary location
        or create a new value in memory (paper Section 5.2)."""
        successors: List[MachineState] = []
        fresh_address = max(state.memory) + 1 if state.memory else 0
        fresh = self._base(state)
        fresh.write_memory(fresh_address, value, transfer_from=value_location)
        fresh.forks += 1
        successors.append(self._advance(fresh))
        for address in self._memory_fork_addresses(state):
            branch = self._base(state)
            branch.write_memory(address, value, transfer_from=value_location)
            branch.forks += 1
            successors.append(self._advance(branch))
        return successors

    def _memory_fork_addresses(self, state: MachineState) -> List[int]:
        return cap_evenly(sorted(state.memory), self.config.max_memory_forks)

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

    def _control_error_successors(self, state: MachineState,
                                  note: str = "") -> List[MachineState]:
        """Erroneous control transfer: arbitrary valid code location or crash."""
        successors: List[MachineState] = [self._crash(state, ILLEGAL_INSTRUCTION)]
        for target in self._control_fork_targets():
            branch = self._base(state)
            branch.pc = target
            branch.forks += 1
            successors.append(branch)
        return successors

    def _control_fork_targets(self) -> List[int]:
        return self._decoded.fork_targets(self.config.control_fork_domain,
                                          self.config.max_control_forks)

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


# --------------------------------------------------------------------------
# Lean concrete interpreter (SimpleScalar-substitute building block).
# --------------------------------------------------------------------------

def concrete_step(program: Program, state: MachineState,
                  detectors: DetectorSet = EMPTY_DETECTORS) -> MachineState:
    """Execute one instruction on a fully concrete state, in place.

    Dispatches to the program's pre-decoded per-instruction op.  Raises
    :class:`SymbolicValueEncountered` if an ``err`` value is met — the
    caller should fall back to the symbolic executor in that case.
    """
    pc = state.pc
    if pc is ERR:
        raise SymbolicValueEncountered("PC is err")
    ops = decoded_program(program).concrete_ops
    if type(pc) is int and 0 <= pc < len(ops):
        ops[pc](state, detectors)
    else:
        state.throw(ILLEGAL_INSTRUCTION)
    return state


#: Steps between the marks a golden run records (see ConcreteFutures).
GOLDEN_MARK_STRIDE = 256

#: Steps between the marks a search's err-free tails record.  Coarser than
#: the golden stride: each mark keeps a memory base alive for the whole
#: search, and a search finishes thousands of tails.
SEARCH_MARK_STRIDE = 1024

#: One recorded state on a finished run: (fingerprint, step count at the
#: mark, the run's terminal state).
_Mark = Tuple[Fingerprint, int, MachineState]


class GoldenCheckpoints:
    """Where the golden run was, so a prefix need not replay it from step 0.

    Recorded by the one golden run :meth:`ConcreteFutures.golden` makes: a
    copy of the state at its start and at each golden mark (``states``, at
    step counts ``steps``), and for every pc the step counts at which the
    run sat on it, running, about to execute it (``visits``).  A superblock
    of length L entered at step s visits pc + i at s + i; the visits of a
    block are filed when the next block starts, from the steps it really
    took, so a block cut short by a throw files only what ran.  ``end`` is
    a copy of the terminal state (``None`` if the run raised).

    For a replay that :meth:`binds` (the same start state and step budget),
    :meth:`resume` answers a (pc, occurrence) breakpoint with the latest
    checkpoint at or before that visit, or with the terminal state when the
    run never makes it.
    """

    __slots__ = ("max_steps", "states", "steps", "visits", "end", "_start",
                 "_next", "_entry_pc", "_entry_steps")

    def __init__(self, state: MachineState, length: int,
                 max_steps: int) -> None:
        self.max_steps = max_steps
        self.states: List[MachineState] = [state.copy()]
        self.steps: List[int] = [state.steps]
        self.visits: List[List[int]] = [[] for _ in range(length)]
        self.end: Optional[MachineState] = None
        self._start = self.states[0].fingerprint()
        self._next = state.steps + GOLDEN_MARK_STRIDE
        self._entry_pc = 0
        self._entry_steps = state.steps

    def enter(self, state: MachineState, pc: int,
              marks: List[Tuple[int, int, Fingerprint, int]]) -> None:
        """A block starts at *pc*: file the last one, mark every stride."""
        steps = state.steps
        self._file(steps)
        self._entry_pc = pc
        self._entry_steps = steps
        if steps >= self._next:
            marks.append((pc, state._loc_hash, state.fingerprint(), steps))
            self.states.append(state.copy())
            self.steps.append(steps)
            self._next = steps + GOLDEN_MARK_STRIDE

    def finish(self, state: MachineState) -> None:
        """The run ended without raising: file the last block, keep the end."""
        self._file(state.steps)
        self.end = state.copy()

    def _file(self, steps: int) -> None:
        visits = self.visits
        pc = self._entry_pc
        entry = self._entry_steps
        for offset in range(steps - entry):
            visits[pc + offset].append(entry + offset)

    def binds(self, initial: MachineState, max_steps: int) -> bool:
        """Whether a replay of *initial* under *max_steps* retraces this run."""
        start = self.states[0]
        return (max_steps == self.max_steps
                and initial.steps == start.steps
                and initial.input == start.input
                and initial.detector_id == start.detector_id
                and initial.forks == start.forks
                and initial.trace == start.trace
                and initial.fingerprint() == self._start)

    def resume(self, stop_pc: int, occurrence: int,
               ) -> Optional[Tuple[MachineState, int]]:
        """Where a bound replay to a breakpoint may start instead.

        Returns a private copy of the latest checkpoint at or before the
        *occurrence*-th visit to *stop_pc* with the visits still to pass,
        or a copy of the terminal state with 0 when the run never gets
        there.  Returns ``None`` when the record cannot answer: a pc
        outside the code, an occurrence below 1, or a visit the run did not
        reach before it raised.
        """
        visits = self.visits
        if occurrence < 1 or not 0 <= stop_pc < len(visits):
            return None
        at = visits[stop_pc]
        if occurrence <= len(at):
            index = bisect_right(self.steps, at[occurrence - 1]) - 1
            before = bisect_left(at, self.steps[index])
            return self.states[index].copy(), occurrence - before
        if self.end is None:
            return None
        return self.end.copy(), 0


class ConcreteFutures:
    """Recorded err-free runs that a later concrete run may join.

    A fully concrete state's future is a function of its fingerprint (plus
    the program, the detectors and the input stream, to which one instance
    is bound), and its step count only decides where the watchdog fires.
    So when :func:`run_concrete` reaches a state equal to a *mark* — a
    snapshot taken every ``stride`` steps, from one stride in, on an earlier
    run that finished — it copies that run's terminal state instead of executing the rest, with
    the step count shifted by its own offset from the mark.

    Marks are indexed pc -> location hash -> marks, so the per-block check
    is two dict lookups; the full structural fingerprint comparison only
    runs on a location-hash hit.  A run publishes its marks only when it
    ends without timing out and without raising, so every mark leads to a
    terminal state.  The campaign keeps one *golden* layer (the error-free
    run, built by :meth:`golden`); each search stacks a *search* layer on
    it (``parent=``) that its own tails publish into and that is dropped
    with the search.
    """

    __slots__ = ("program", "detectors", "input", "stride", "_index",
                 "checkpoints")

    def __init__(self, program: Program, detectors: DetectorSet,
                 input_values: Sequence[int], stride: int,
                 parent: Optional["ConcreteFutures"] = None) -> None:
        self.program = program
        self.detectors = detectors
        self.input = tuple(input_values)
        self.stride = stride
        self._index: Dict[int, Dict[int, List[_Mark]]] = {}
        #: The golden layer's :class:`GoldenCheckpoints`; ``None`` on a
        #: search layer.
        self.checkpoints: Optional[GoldenCheckpoints] = None
        if parent is not None and parent.binds(program, detectors, self.input):
            # Copied, not chained: a lookup stays two dict probes, and this
            # layer's publications never reach the parent.
            self._index = {pc: {h: list(marks) for h, marks in by_hash.items()}
                           for pc, by_hash in parent._index.items()}

    @classmethod
    def golden(cls, program: Program, state: MachineState,
               detectors: DetectorSet = EMPTY_DETECTORS,
               max_steps: int = 200_000) -> "ConcreteFutures":
        """The golden layer: *state* run to termination, marks recorded.

        A run that times out or raises records no marks.  Every run records
        its :class:`GoldenCheckpoints`.
        """
        futures = cls(program, detectors, state.input, GOLDEN_MARK_STRIDE)
        checkpoints = futures.checkpoints = GoldenCheckpoints(
            state, len(program), max_steps)
        try:
            run_concrete(program, state, detectors, max_steps, futures=futures,
                         checkpoints=checkpoints)
        except (SymbolicValueEncountered, MachineModelError):
            pass
        return futures

    def starts(self, program: Program, detectors: DetectorSet,
               initial: MachineState, max_steps: int) -> bool:
        """Whether this layer's checkpoints serve a replay of *initial*."""
        checkpoints = self.checkpoints
        return (checkpoints is not None
                and self.binds(program, detectors, initial.input)
                and checkpoints.binds(initial, max_steps))

    def binds(self, program: Program, detectors: DetectorSet,
              input_values: Tuple[int, ...]) -> bool:
        """Whether a run of *program* over *input_values* may use this layer."""
        return (program is self.program and detectors is self.detectors
                and input_values == self.input)

    def __len__(self) -> int:
        return sum(len(marks) for by_hash in self._index.values()
                   for marks in by_hash.values())

    def join(self, state: MachineState, marks: List[_Mark],
             max_steps: int) -> int:
        """Finish *state* from the first equal mark; return the steps skipped.

        Returns 0 (and leaves *state* alone) when no mark is equal, or when
        the shifted terminal step count would reach *max_steps*: the run
        must then keep going so the watchdog fires where it always does.
        The bound is strict because a run that falls off the end of the
        code terminates without executing an instruction, so its last
        watchdog check is at its terminal step count.
        """
        fingerprint = state.fingerprint()
        steps = state.steps
        for mark, mark_steps, terminal in marks:
            final = steps + terminal.steps - mark_steps
            if final < max_steps and mark == fingerprint:
                state.adopt_terminal(terminal, final)
                return final - steps
        return 0

    def publish(self, marks: List[Tuple[int, int, Fingerprint, int]],
                terminal: MachineState) -> None:
        """Index a finished run's *marks* under its *terminal* state."""
        terminal = terminal.copy()
        index = self._index
        for pc, loc_hash, fingerprint, steps in marks:
            index.setdefault(pc, {}).setdefault(loc_hash, []).append(
                (fingerprint, steps, terminal))


def run_concrete(program: Program, state: MachineState,
                 detectors: DetectorSet = EMPTY_DETECTORS,
                 max_steps: int = 200_000,
                 futures: Optional[ConcreteFutures] = None,
                 checkpoints: Optional[GoldenCheckpoints] = None,
                 ) -> MachineState:
    """Run a fully concrete state to termination (in place).

    Uses the decoded superblocks: when the program counter sits on a block
    leader and the remaining step budget covers the whole block, the fused
    function executes the run in one call; otherwise execution falls back to
    the per-instruction ops.  Observable behaviour (including the exact step
    count at a timeout) is identical to single-stepping.

    A run that hangs in an exact cycle ends early too.  Brent's cycle
    detection keeps one saved block-entry key (pc and both rolling
    hashes), saved again at every power-of-two block count.  The first
    return to the key takes a :class:`Fingerprint`; a later return to an
    equal state (everything but the step count) proves that the run repeats
    every *period* steps, so the step count jumps ahead by the whole periods
    that fit in *max_steps* and the watchdog fires after the last partial
    period, at the step count and in the state a full run reaches.  A run
    whose output or input position moves never repeats and is never cut.
    The golden build (*checkpoints*) does not cut.

    With *futures* (bound to this program, these detectors and the state's
    input; otherwise ignored) the run also joins: before each block it looks
    for an equal mark of a finished run and, on a hit, adopts that run's
    terminal state (see :class:`ConcreteFutures`).  It records a mark every
    ``futures.stride`` steps and publishes them if it finishes.  The golden
    build also passes its *checkpoints*, which then record the marks, a
    state at each, and every block's visits.
    """
    decoded = decoded_program(program)
    ops = decoded.concrete_ops
    block_fns = decoded.block_fns
    block_lens = decoded.block_lens
    length = decoded.length
    steps_at_entry = state.steps
    block_runs = 0  # local counter: the loop itself stays untelemetered
    joined_steps = 0
    # Brent's cycle detection: the saved key (pc -1: none saved), the
    # block entries so far and the entry count of the next save.  A save
    # costs no fingerprint: the first return of the key takes one, the next
    # return confirms it.  The golden build never saves (next_save 0), so
    # its record stays whole.
    cycle_pc = -1
    cycle_loc = cycle_out = cycle_steps = 0
    cycle_print: Optional[Fingerprint] = None
    entries = 0
    next_save = 1 if checkpoints is None else 0
    cycles = cycle_steps_skipped = 0
    marks: List[Tuple[int, int, Fingerprint, int]] = []
    if futures is not None and not futures.binds(program, detectors,
                                                 state.input):
        futures = None
    if futures is None:
        checkpoints = None
    else:
        index = futures._index
        stride = futures.stride
        # The golden build takes the mark branch at every block (its
        # checkpoints mark every golden stride); every other run, once a
        # stride.
        next_mark = steps_at_entry + (stride if checkpoints is None else 0)
    try:
        while state.is_running:
            steps = state.steps
            if steps >= max_steps:
                state.time_out(TIMED_OUT)
                break
            pc = state.pc
            if type(pc) is int and 0 <= pc < length:
                if futures is not None:
                    by_hash = index.get(pc)
                    if by_hash is not None:
                        # The location hash is read directly: this probe
                        # runs once per block.
                        found = by_hash.get(state._loc_hash)
                        if found is not None:
                            joined_steps = futures.join(state, found,
                                                        max_steps)
                            if joined_steps:
                                break
                    if steps >= next_mark:
                        if checkpoints is None:
                            marks.append((pc, state._loc_hash,
                                          state.fingerprint(), steps))
                            next_mark = steps + stride
                        else:
                            checkpoints.enter(state, pc, marks)
                if (pc == cycle_pc and state._loc_hash == cycle_loc
                        and state._out_hash == cycle_out):
                    fingerprint = state.fingerprint()
                    if fingerprint == cycle_print:
                        # Back at an equal state: skip the whole periods
                        # that fit, and let the watchdog at the loop top
                        # see the rest.
                        period = steps - cycle_steps
                        skipped = (max_steps - steps) // period * period
                        state.steps = steps + skipped
                        cycles += 1
                        cycle_steps_skipped += skipped
                        cycle_pc = -1
                        continue
                    cycle_print = fingerprint
                    cycle_steps = steps
                entries += 1
                if entries == next_save:
                    cycle_pc = pc
                    cycle_loc = state._loc_hash
                    cycle_out = state._out_hash
                    cycle_print = None
                    next_save *= 2
                block = block_fns[pc]
                if block is not None and steps + block_lens[pc] <= max_steps:
                    block(state)
                    block_runs += 1
                else:
                    ops[pc](state, detectors)
            elif pc is ERR:
                raise SymbolicValueEncountered("PC is err")
            else:
                state.throw(ILLEGAL_INSTRUCTION)
    finally:
        hub = _obs.get()
        if hub.enabled:
            hub.count("interp.steps", state.steps - steps_at_entry
                      - joined_steps - cycle_steps_skipped)
            if block_runs:
                hub.count("interp.superblock_runs", block_runs)
            if joined_steps:
                hub.count("interp.joins")
                hub.count("interp.joined_steps", joined_steps)
            if cycles:
                hub.count("interp.cycles", cycles)
                hub.count("interp.cycle_steps", cycle_steps_skipped)
    if checkpoints is not None:
        checkpoints.finish(state)
    if marks and not state.hung:
        futures.publish(marks, state)
    return state


def run_concrete_until(program: Program, state: MachineState,
                       stop_pc: int, occurrence: int = 1,
                       detectors: DetectorSet = EMPTY_DETECTORS,
                       max_steps: int = 200_000) -> MachineState:
    """Run concretely until the program counter reaches *stop_pc*.

    Used to position the machine at an injection breakpoint: execution stops
    *before* the instruction at ``stop_pc`` is executed for the
    *occurrence*-th time.  If the breakpoint is never reached the state is
    simply run to termination.  Superblocks that would step *through* the
    breakpoint are skipped so every visit is observed.
    """
    decoded = decoded_program(program)
    ops = decoded.concrete_ops
    block_fns = decoded.block_fns
    block_lens = decoded.block_lens
    length = decoded.length
    remaining = occurrence
    while state.is_running:
        steps = state.steps
        if steps >= max_steps:
            state.time_out(TIMED_OUT)
            break
        pc = state.pc
        if pc == stop_pc:
            remaining -= 1
            if remaining <= 0:
                break
        if type(pc) is int and 0 <= pc < length:
            block = block_fns[pc]
            if (block is not None and steps + block_lens[pc] <= max_steps
                    and not pc < stop_pc < pc + block_lens[pc]):
                block(state)
            else:
                ops[pc](state, detectors)
        elif pc is ERR:
            raise SymbolicValueEncountered("PC is err")
        else:
            state.throw(ILLEGAL_INSTRUCTION)
    return state


def run_to_breakpoint(program: Program, initial: MachineState,
                      stop_pc: int, occurrence: int = 1,
                      detectors: DetectorSet = EMPTY_DETECTORS,
                      max_steps: int = 200_000,
                      golden: Optional[ConcreteFutures] = None,
                      ) -> MachineState:
    """A copy of *initial*, run by :func:`run_concrete_until` to a breakpoint.

    With a *golden* layer bound to this program, these detectors, *initial*
    and *max_steps* (otherwise ignored), the copy starts from the golden
    run's latest checkpoint before the breakpoint, so it replays at most
    about a stride of steps; a breakpoint the golden run never reaches
    returns its terminal state without running.  The returned state equals
    the full replay's field by field either way.
    """
    start = None
    if golden is not None and golden.starts(program, detectors, initial,
                                            max_steps):
        start = golden.checkpoints.resume(stop_pc, occurrence)
    if start is None:
        state, remaining = initial.copy(), occurrence
    else:
        state, remaining = start
    hub = _obs.get()
    if start is not None and not remaining:
        if hub.enabled:
            hub.count("prefix.answered")
        return state
    steps = state.steps
    run_concrete_until(program, state, stop_pc, remaining, detectors,
                       max_steps)
    if hub.enabled:
        hub.count("prefix.steps", state.steps - steps)
    return state


# --------------------------------------------------------------------------
# Legacy string-dispatch concrete interpreter, kept verbatim as the semantic
# reference for the decoded ops (decode-equivalence tests and benchmarks).
# --------------------------------------------------------------------------

def concrete_step_legacy(program: Program, state: MachineState,
                         detectors: DetectorSet = EMPTY_DETECTORS) -> MachineState:
    """Original string-dispatch :func:`concrete_step` (reference semantics)."""
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


def run_concrete_legacy(program: Program, state: MachineState,
                        detectors: DetectorSet = EMPTY_DETECTORS,
                        max_steps: int = 200_000) -> MachineState:
    """Single-stepping :func:`run_concrete` over the legacy dispatch."""
    while state.is_running:
        if state.steps >= max_steps:
            state.time_out(TIMED_OUT)
            break
        concrete_step_legacy(program, state, detectors)
    return state
