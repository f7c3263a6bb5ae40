"""Error-injection sub-model (paper Section 5.2).

An injection experiment is described by an :class:`Injection`: a breakpoint
(the static code address, and which dynamic occurrence of it) plus the
location to corrupt.  The injector runs the program concretely up to the
breakpoint — which is where the paper places the injection so that the fault
is guaranteed to be *activated* by the very next instruction — and then
replaces the contents of the chosen register, memory word or the program
counter with the symbolic value ``err`` (or, for the concrete SimpleScalar
substitute, with a chosen concrete value).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ..constraints import Location
from ..isa.instructions import ZERO_REGISTER
from ..isa.program import Program

if TYPE_CHECKING:  # pragma: no cover - type-only imports (avoid an import cycle)
    from ..detectors import DetectorSet
    from ..machine.executor import ConcreteFutures
    from ..machine.state import MachineState


@dataclass(frozen=True)
class Injection:
    """One fault-injection experiment: where and what to corrupt.

    Attributes:
        breakpoint_pc: static code address of the breakpoint; the corruption
            happens immediately *before* this instruction executes.
        target: the location to corrupt (register, memory word or PC).
        occurrence: which dynamic occurrence of the breakpoint triggers the
            injection (1 = the first time the instruction is reached).
        description: free-text note used in reports.
    """

    breakpoint_pc: int
    target: Location
    occurrence: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if self.occurrence < 1 or self.breakpoint_pc < 0:
            raise ValueError(
                f"injection needs breakpoint_pc >= 0 and occurrence >= 1, "
                f"got pc={self.breakpoint_pc} occurrence={self.occurrence}")

    def label(self) -> str:
        where = repr(self.target)
        return (f"pc={self.breakpoint_pc}#{self.occurrence} -> {where}"
                + (f" ({self.description})" if self.description else ""))


class InjectionError(RuntimeError):
    """Raised when an injection cannot be applied (e.g. breakpoint not reached)."""


def prepare_injected_state(program: Program,
                           injection: Injection,
                           initial: "MachineState",
                           detectors: Optional["DetectorSet"] = None,
                           max_prefix_steps: int = 200_000,
                           golden: Optional["ConcreteFutures"] = None,
                           ) -> Optional["MachineState"]:
    """Run concretely to the injection breakpoint and apply the corruption.

    Returns the corrupted state positioned at the breakpoint (still running),
    or ``None`` when the breakpoint is never reached during the error-free
    execution (the fault would never be activated — the paper skips such
    experiments).  With a *golden* layer the prefix starts from its nearest
    checkpoint (see :func:`~repro.machine.executor.run_to_breakpoint`);
    the result is the same.  The returned state's overlays are folded into
    fresh bases, so the search's forks share one flat base instead of each
    copying the prefix's writes.

    The corruption is whatever *injection* prescribes, applied through
    :func:`~repro.machine.executor.apply_fault_set`: a plain
    :class:`Injection` writes ``err``, a
    :class:`~repro.faults.spec.FaultSpec` its ``value``, a burst every
    component and a bit flip its read-modify-write.
    """
    from ..detectors import EMPTY_DETECTORS
    from ..machine.executor import apply_fault_set, run_to_breakpoint

    state = run_to_breakpoint(
        program, initial, injection.breakpoint_pc,
        occurrence=injection.occurrence,
        detectors=detectors if detectors is not None else EMPTY_DETECTORS,
        max_steps=max_prefix_steps, golden=golden)
    if not state.is_running or state.pc != injection.breakpoint_pc:
        return None
    apply_fault_set(state, (injection,))
    state.flatten()
    return state


def registers_used_at(program: Program, pc: int, policy: str = "used") -> Tuple[int, ...]:
    """Registers eligible for injection at a given instruction.

    ``policy`` is one of ``"reads"`` (source registers only), ``"writes"``,
    ``"used"`` (sources and destinations — what the paper's SimpleScalar
    campaign injects) or ``"all"`` (every architectural register).
    """
    instruction = program.fetch(pc)
    if instruction is None:
        return ()
    if policy == "reads":
        registers = instruction.registers_read()
    elif policy == "writes":
        registers = instruction.registers_written()
    elif policy == "used":
        registers = instruction.registers_used()
    elif policy == "all":
        from ..isa.instructions import NUM_REGISTERS
        registers = tuple(range(NUM_REGISTERS))
    else:
        raise ValueError(f"unknown register policy {policy!r}")
    return tuple(r for r in registers if r != ZERO_REGISTER)

