"""Outcome statistics for concrete fault-injection campaigns (Table 2).

Table 2 of the paper reports, for the tcas application, the distribution of
program outcomes over thousands of concrete register fault injections:
the fraction of runs printing 0, 1 or 2, printing something else, crashing
and hanging.  :class:`OutcomeDistribution` accumulates such counts for an
arbitrary set of outcome labels and renders the same style of table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from ..isa.values import is_err
from ..machine.state import MachineState, Status


#: Classifier: maps a terminal state to an outcome label (a table row).
OutcomeLabeler = Callable[[MachineState], str]


def printed_value_labeler(expected_values: Sequence[int] = (0, 1, 2),
                          position: int = -1) -> OutcomeLabeler:
    """Build the Table-2 style labeler.

    Rows are: one row per expected printable value (for tcas: ``0``, ``1``,
    ``2``), ``other`` for any other halted output, ``crash``, ``hang`` and
    ``detected``.  ``position`` selects which printed integer is the
    program's answer (the last one by default).
    """
    expected = tuple(expected_values)

    def labeler(state: MachineState) -> str:
        if state.status is Status.DETECTED:
            return "detected"
        if state.status is Status.EXCEPTION:
            return "crash"
        if state.status is Status.TIMEOUT:
            return "hang"
        printed = state.printed_integers()
        if not printed:
            return "other"
        value = printed[position]
        if is_err(value):
            return "other"
        if value in expected:
            return str(value)
        return "other"

    return labeler


@dataclass
class OutcomeDistribution:
    """Counts of outcomes keyed by label, with Table-2 style rendering."""

    labels: Tuple[str, ...]
    counts: Dict[str, int] = field(default_factory=dict)
    total: int = 0
    skipped: int = 0   # faults never activated (breakpoint not reached)

    def __post_init__(self) -> None:
        for label in self.labels:
            self.counts.setdefault(label, 0)

    def record(self, label: str) -> None:
        if label not in self.counts:
            self.counts[label] = 0
        self.counts[label] += 1
        self.total += 1

    def count(self, label: str) -> int:
        return self.counts.get(label, 0)

    def percentage(self, label: str) -> float:
        if self.total == 0:
            return 0.0
        return 100.0 * self.count(label) / self.total

    def as_rows(self) -> List[Tuple[str, int, float]]:
        ordered = list(self.labels) + [label for label in self.counts
                                       if label not in self.labels]
        return [(label, self.count(label), self.percentage(label))
                for label in ordered]

    def format_table(self, title: str = "Program outcome distribution") -> str:
        lines = [title, f"  total faults = {self.total}"]
        lines.append(f"  {'outcome':<12} {'count':>8} {'percent':>9}")
        for label, count, percent in self.as_rows():
            lines.append(f"  {label:<12} {count:>8} {percent:>8.2f}%")
        return "\n".join(lines)

    def merge(self, other: "OutcomeDistribution") -> "OutcomeDistribution":
        merged = OutcomeDistribution(labels=self.labels)
        for label, count in self.counts.items():
            merged.counts[label] = merged.counts.get(label, 0) + count
        for label, count in other.counts.items():
            merged.counts[label] = merged.counts.get(label, 0) + count
        merged.total = self.total + other.total
        merged.skipped = self.skipped + other.skipped
        return merged


def tcas_outcome_labels() -> Tuple[str, ...]:
    """The row labels of Table 2."""
    return ("0", "1", "2", "other", "crash", "hang", "detected")
