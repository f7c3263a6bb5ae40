"""Concrete functional simulator — the SimpleScalar substitute (Section 6.3).

The paper validates SymPLFIED's findings against a SimpleScalar simulator
augmented with the ability to inject concrete erroneous values into the
source and destination registers of every instruction.  This module provides
the equivalent facility for the SymPLFIED ISA: a fast, purely concrete
interpreter plus single-experiment fault injection (run to a breakpoint,
overwrite a register/memory word/PC with a concrete value, run to
termination, classify the outcome).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..detectors import DetectorSet, EMPTY_DETECTORS
from ..errors.injector import Injection, apply_corruption
from ..isa.program import Program
from ..machine.decode import decoded_program
from ..machine.executor import (ConcreteFutures, run_concrete,
                                run_to_breakpoint)
from ..machine.state import MachineState, Status, initial_state
from ..core.outcomes import Outcome, classify


@dataclass
class ConcreteRun:
    """The result of one concrete execution (with or without a fault)."""

    state: MachineState
    injection: Optional[Injection] = None
    injected_value: Optional[int] = None
    activated: bool = True

    @property
    def output(self) -> Tuple:
        return self.state.output_values()

    def outcome(self, golden_output: Optional[Sequence] = None) -> Outcome:
        return classify(self.state, golden_output)


class ConcreteSimulator:
    """Executes programs concretely, optionally with a single injected fault."""

    def __init__(self, program: Program,
                 detectors: DetectorSet = EMPTY_DETECTORS,
                 max_steps: int = 200_000) -> None:
        self.program = program
        self.detectors = detectors
        self.max_steps = max_steps
        # Build the decoded tables up front: a simulator drives thousands of
        # short runs over one program.  This compiles nothing; each op and
        # superblock compiles the first time an experiment reaches it.
        decoded_program(program)
        self._golden: Optional[ConcreteFutures] = None

    def fresh_state(self, input_values: Sequence[int] = (),
                    memory: Optional[Dict[int, int]] = None) -> MachineState:
        return initial_state(input_values=input_values, memory=memory)

    def run(self, input_values: Sequence[int] = (),
            memory: Optional[Dict[int, int]] = None) -> ConcreteRun:
        """Fault-free execution."""
        state = self.fresh_state(input_values, memory)
        run_concrete(self.program, state, self.detectors, self.max_steps)
        return ConcreteRun(state=state)

    def golden_output(self, input_values: Sequence[int] = (),
                      memory: Optional[Dict[int, int]] = None) -> Tuple:
        """Output of the fault-free run (raises if it does not halt cleanly)."""
        run = self.run(input_values, memory)
        if run.state.status is not Status.HALTED:
            raise RuntimeError(
                f"golden run did not halt: {run.state.status.value} "
                f"({run.state.exception})")
        return run.output

    def golden(self, input_values: Sequence[int] = (),
               memory: Optional[Dict[int, int]] = None) -> ConcreteFutures:
        """The fault-free run's golden layer for this input and memory.

        Built on first use and kept while later calls pass the same input
        and memory; its checkpoints start every injection's prefix.
        """
        return self._golden_from(self.fresh_state(input_values, memory))

    def _golden_from(self, initial: MachineState) -> ConcreteFutures:
        golden = self._golden
        if golden is None or not golden.starts(self.program, self.detectors,
                                               initial, self.max_steps):
            golden = self._golden = ConcreteFutures.golden(
                self.program, initial.copy(), self.detectors, self.max_steps)
        return golden

    def _to_breakpoint(self, injection: Injection,
                       input_values: Sequence[int],
                       memory: Optional[Dict[int, int]]) -> MachineState:
        """A fresh state run to *injection*'s breakpoint (or to its end)."""
        initial = self.fresh_state(input_values, memory)
        return run_to_breakpoint(
            self.program, initial, injection.breakpoint_pc,
            occurrence=injection.occurrence, detectors=self.detectors,
            max_steps=self.max_steps, golden=self._golden_from(initial))

    def run_with_injection(self, injection: Injection, value: int,
                           input_values: Sequence[int] = (),
                           memory: Optional[Dict[int, int]] = None) -> ConcreteRun:
        """Inject a concrete *value* at the injection point and run to the end.

        Mirrors the augmented SimpleScalar flow: execute to the breakpoint,
        overwrite the target, continue.  If the breakpoint is never reached
        the run is reported with ``activated=False`` (the fault is latent).
        """
        state = self._to_breakpoint(injection, input_values, memory)
        activated = state.is_running and state.pc == injection.breakpoint_pc
        if activated:
            apply_corruption(state, injection.target, value)
            run_concrete(self.program, state, self.detectors, self.max_steps)
        return ConcreteRun(state=state, injection=injection,
                           injected_value=value, activated=activated)

    def run_with_spec(self, spec: Injection,
                      input_values: Sequence[int] = (),
                      memory: Optional[Dict[int, int]] = None) -> ConcreteRun:
        """Run one planned fault spec concretely.

        Unlike :meth:`run_with_injection`, the value written is whatever the
        spec itself prescribes: a burst applies every component, a bit-flip
        spec reads the live target and XORs ``1 << bit`` into it, a plain
        :class:`~repro.faults.FaultSpec` writes its ``value``.  The spec is
        applied through :func:`~repro.machine.executor.apply_fault_set` —
        the same code path the symbolic campaign uses — so parity studies
        compare identical corruptions, not merely identical addresses.
        """
        from ..machine.executor import apply_fault_set

        state = self._to_breakpoint(spec, input_values, memory)
        activated = state.is_running and state.pc == spec.breakpoint_pc
        if activated:
            apply_fault_set(state, (spec,))
            run_concrete(self.program, state, self.detectors, self.max_steps)
        return ConcreteRun(state=state, injection=spec, activated=activated)
