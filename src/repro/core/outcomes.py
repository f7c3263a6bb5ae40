"""Classification of program outcomes under error (paper Sections 3.1 and 6).

The framework's output is the set of errors that evade detection and lead to
program *failure*: a crash, a hang or an incorrect output.  This module maps
terminal machine states onto those outcome categories, relative to the
program's error-free ("golden") output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

from ..isa.values import is_err
from ..machine.state import MachineState, Status


class OutcomeKind(Enum):
    """Outcome of one (possibly error-afflicted) program execution."""

    CORRECT = "correct"                # halted with the golden output
    INCORRECT_OUTPUT = "incorrect"     # halted, output differs from golden
    ERR_OUTPUT = "err-output"          # halted, an err value was printed
    CRASH = "crash"                    # terminated with an exception
    HANG = "hang"                      # watchdog timeout
    DETECTED = "detected"              # a detector fired before failure

    def is_failure(self) -> bool:
        """Failures per the paper: crash, hang or incorrect output."""
        return self in (OutcomeKind.INCORRECT_OUTPUT, OutcomeKind.ERR_OUTPUT,
                        OutcomeKind.CRASH, OutcomeKind.HANG)


@dataclass(frozen=True)
class Outcome:
    """A classified terminal state."""

    kind: OutcomeKind
    output: Tuple
    exception: Optional[str] = None
    detector_id: Optional[int] = None

    def describe(self) -> str:
        extra = ""
        if self.exception:
            extra = f" ({self.exception})"
        if self.detector_id is not None:
            extra = f" (detector {self.detector_id})"
        rendered = ", ".join("err" if is_err(item) else repr(item)
                             for item in self.output)
        return f"{self.kind.value}{extra}: output=[{rendered}]"


def classify(state: MachineState,
             golden_output: Optional[Sequence] = None) -> Outcome:
    """Classify a terminal machine state against the golden output.

    ``golden_output`` is the output of the error-free run; when omitted, any
    halted run that did not print ``err`` is considered correct.
    """
    if state.status is Status.RUNNING:
        raise ValueError("cannot classify a state that is still running")

    output = state.output_values()
    if state.status is Status.DETECTED:
        return Outcome(OutcomeKind.DETECTED, output, state.exception,
                       state.detector_id)
    if state.status is Status.EXCEPTION:
        return Outcome(OutcomeKind.CRASH, output, state.exception)
    if state.status is Status.TIMEOUT:
        return Outcome(OutcomeKind.HANG, output, state.exception)

    # Halted normally.
    if state.output_contains_err():
        return Outcome(OutcomeKind.ERR_OUTPUT, output)
    if golden_output is not None and tuple(golden_output) != output:
        return Outcome(OutcomeKind.INCORRECT_OUTPUT, output)
    return Outcome(OutcomeKind.CORRECT, output)


def default_expected_value(golden_output: Sequence) -> Optional[int]:
    """The last integer the golden run printed (``None`` if it printed none).

    The answer a ``wrong-final-value`` query and a Table-2 labeler expect
    when the caller names none.
    """
    printed = [item for item in golden_output if isinstance(item, int)]
    return printed[-1] if printed else None
