"""Symbolic-vs-concrete parity study (paper Section 6.3).

The paper validates SymPLFIED by comparing the outcome classes its one
symbolic ``err`` campaign predicts against the outcomes an augmented
SimpleScalar simulator observes when injecting thousands of concrete
values.  The claim under test is a *coverage* claim, not an equality
claim: every outcome class that any concrete corruption can produce at an
injection point must already appear in the symbolic campaign's outcome
set for that point — the reverse need not hold, because the symbolic
search also covers corruptions the concrete sample never drew.

This module runs both legs over the *same* injection points through one
:class:`~repro.core.campaign.SymbolicCampaign`, so they share its golden
run and its fault-application code path
(:func:`~repro.machine.executor.apply_fault_set`):

* the symbolic leg injects ``err`` at each point and model-checks it under
  :func:`~repro.core.queries.any_outcome`, collecting the
  :class:`~repro.core.outcomes.OutcomeKind` of every terminal state;
* the concrete leg Monte-Carlo samples single-bit flips
  (:class:`~repro.faults.BitFlipFaultSpec`) of the same target at the same
  dynamic point and classifies each run's one terminal state
  (:func:`~repro.concrete.faultinjection.concrete_terminal`).

Coverage is judged by :data:`SYMBOLIC_COVERS` — the abstraction mapping
between concrete outcome kinds and the symbolic kinds that subsume them —
plus one structural rule for hangs (see :func:`covers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from ..core.campaign import SymbolicCampaign
from ..core.outcomes import classify
from ..core.queries import any_outcome
from ..constraints import Location
from ..detectors import DetectorSet, EMPTY_DETECTORS
from ..errors.injector import Injection
from ..faults.models import deterministic_sample
from ..faults.spec import BitFlipFaultSpec
from ..isa.program import Program
from ..machine.executor import ExecutionConfig
from .faultinjection import concrete_terminal

#: Which symbolic outcome kinds cover a given concrete outcome kind.
#:
#: A concrete kind is always covered by the same symbolic kind.  Beyond
#: that, ``err-output`` covers concrete ``correct`` and ``incorrect``: the
#: symbolic machine prints the un-resolvable ``err`` where a concrete run
#: prints whatever the flipped bits resolved to — the golden value
#: included — so a printed ``err`` abstracts *any* printed resolution.
#: Crash and detected have no abstraction: they must match directly.
SYMBOLIC_COVERS: Dict[str, FrozenSet[str]] = {
    "correct": frozenset({"correct", "err-output"}),
    "incorrect": frozenset({"incorrect", "err-output"}),
    "err-output": frozenset({"err-output"}),
    "crash": frozenset({"crash"}),
    "hang": frozenset({"hang"}),
    "detected": frozenset({"detected"}),
}


def covers(concrete_kind: str, symbolic_kinds: FrozenSet[str],
           symbolic_complete: bool) -> bool:
    """Does the symbolic outcome set cover one concrete outcome kind?

    Applies :data:`SYMBOLIC_COVERS`, plus one structural rule: a concrete
    ``hang`` is also covered when the symbolic search did *not* complete —
    a search that exhausts its state budget on a looping lineage never
    reaches that lineage's watchdog-timeout terminal state, and the budget
    exhaustion itself is the symbolic signature of the hang.
    """
    if concrete_kind == "hang" and not symbolic_complete:
        return True
    accepted = SYMBOLIC_COVERS.get(concrete_kind, frozenset({concrete_kind}))
    return bool(accepted & symbolic_kinds)


#: Verdict of a point whose incomplete symbolic search misses a concrete
#: class: the state budget ran out first, so the miss says nothing about
#: the coverage claim either way.
UNDECIDED = "undecided (search budget)"


def uncovered_kinds(concrete_kinds: Iterable[str],
                    symbolic_kinds: FrozenSet[str],
                    symbolic_complete: bool) -> Tuple[str, ...]:
    """The concrete kinds of one point that the symbolic set misses, sorted."""
    return tuple(sorted(kind for kind in concrete_kinds
                        if not covers(kind, symbolic_kinds,
                                      symbolic_complete)))


def verdict(uncovered: Sequence[str], symbolic_complete: bool) -> str:
    """One point's verdict: covered, undecided or UNCOVERED.

    Only a *complete* search that misses a concrete class refutes the
    coverage claim; an incomplete one is :data:`UNDECIDED`.
    """
    if not uncovered:
        return "covered"
    label = "UNCOVERED" if symbolic_complete else UNDECIDED
    return f"{label}: {','.join(uncovered)}"


@dataclass
class ParityTally:
    """Verdict counts over a study's points, and its one-line summary."""

    covered: int = 0
    undecided: int = 0
    uncovered: int = 0
    missing: Set[str] = field(default_factory=set)

    def add(self, uncovered: Sequence[str], symbolic_complete: bool) -> None:
        if not uncovered:
            self.covered += 1
        elif symbolic_complete:
            self.uncovered += 1
            self.missing.update(uncovered)
        else:
            self.undecided += 1

    def summary(self, skipped: int = 0) -> str:
        total = self.covered + self.undecided + self.uncovered
        never = f" ({skipped} never activated)" if skipped else ""
        if not total:
            # Nothing compared is no pass: control and fetch faults have no
            # register or memory point, nor has memory on a data-less program.
            return ("parity: no register or memory injection point "
                    f"compared{never}")
        base = (f"parity: symbolic covers {self.covered}/{total} "
                f"injection points{never}")
        if self.covered == total:
            return base + " — all concrete outcome classes covered"
        base += (f" — {self.undecided} {UNDECIDED}, "
                 f"{self.uncovered} UNCOVERED")
        if self.missing:
            base += f": {', '.join(sorted(self.missing))}"
        return base


@dataclass(frozen=True)
class ParityRow:
    """Parity verdict for one injection point."""

    breakpoint_pc: int
    occurrence: int
    target: str
    symbolic_kinds: FrozenSet[str]
    symbolic_complete: bool
    concrete_kinds: FrozenSet[str]
    flips: int
    uncovered: Tuple[str, ...]

    @property
    def covered(self) -> bool:
        return not self.uncovered


@dataclass
class ParityReport:
    """The full study: one :class:`ParityRow` per injection point."""

    rows: List[ParityRow] = field(default_factory=list)
    skipped: int = 0          # points never activated (breakpoint not reached)

    @property
    def all_covered(self) -> bool:
        return all(row.covered for row in self.rows)

    def format_table(self) -> str:
        header = (f"{'point':<28} {'symbolic outcomes':<34} "
                  f"{'concrete (bit flips)':<28} verdict")
        lines = [header, "-" * len(header)]
        for row in self.rows:
            point = f"pc={row.breakpoint_pc}#{row.occurrence} {row.target}"
            symbolic = ",".join(sorted(row.symbolic_kinds)) or "-"
            if not row.symbolic_complete:
                symbolic += " (incomplete)"
            concrete = ",".join(sorted(row.concrete_kinds)) or "-"
            concrete += f" [{row.flips} flips]"
            lines.append(f"{point:<28} {symbolic:<34} {concrete:<28} "
                         f"{verdict(row.uncovered, row.symbolic_complete)}")
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        tally = ParityTally()
        for row in self.rows:
            tally.add(row.uncovered, row.symbolic_complete)
        return tally.summary(self.skipped)


def _point_key(injection: Injection) -> Tuple[int, int, int, int]:
    target = injection.target
    return (injection.breakpoint_pc, injection.occurrence,
            target.kind, target.index)


def run_parity_study(program: Program,
                     injections: Sequence[Injection],
                     golden_output: Sequence,
                     input_values: Sequence[int] = (),
                     memory: Optional[Dict[int, int]] = None,
                     detectors: DetectorSet = EMPTY_DETECTORS,
                     word_bits: int = 32,
                     bits_per_point: Optional[int] = None,
                     seed: Optional[int] = None,
                     max_solutions: int = 10_000,
                     max_states: int = 50_000,
                     max_steps: int = 10_000) -> ParityReport:
    """Run both study legs over *injections* and tabulate coverage.

    Points are the distinct ``(breakpoint_pc, occurrence, target)`` triples
    of *injections* (bursts contribute one point per component), restricted
    to register and memory targets — a "bit flip of the PC" is not a
    hardware fault model the paper compares against.  ``bits_per_point``
    caps the Monte-Carlo sample per point through
    :func:`~repro.faults.deterministic_sample` (``None`` = exhaustive, all
    *word_bits* flips); the symbolic leg searches every terminal outcome
    under :func:`~repro.core.queries.any_outcome` with *max_solutions* /
    *max_states* caps.

    The symbolic leg runs with deduplication *disabled*: the checker's
    fingerprint dedup collapses an err-driven infinite loop into a cycle in
    the state graph before the lineage ever reaches the watchdog, so a
    deduplicating census would report a looping program as ``completed``
    with no ``hang`` terminal.  Un-deduplicated, the looping lineage steps
    until the symbolic watchdog fires and ``hang`` shows up as an ordinary
    terminal outcome — and if a budget cuts the search first, the
    incomplete-search rule of :func:`covers` takes over.  Both legs run in
    the one campaign, so they share *max_steps* (the two watchdogs agree on
    what a hang is) and one golden run.
    """
    # -------------------------------------------------- injection points
    points: List[Injection] = []
    seen = set()
    for injection in injections:
        components = getattr(injection, "components", None) or (injection,)
        for component in components:
            if component.target.kind not in (Location.REGISTER,
                                             Location.MEMORY):
                continue
            key = _point_key(component)
            if key not in seen:
                seen.add(key)
                points.append(component)

    campaign = SymbolicCampaign(
        program, input_values=input_values, memory=memory,
        detectors=detectors,
        execution_config=ExecutionConfig(max_steps=max_steps),
        max_solutions_per_injection=max_solutions,
        max_states_per_injection=max_states,
        deduplicate_states=False)
    query = any_outcome()
    report = ParityReport()

    for injection in points:
        # ---------------------------------------------------- symbolic leg
        result = campaign.run_injection(
            Injection(breakpoint_pc=injection.breakpoint_pc,
                      target=injection.target,
                      occurrence=injection.occurrence), query)
        if not result.activated:
            report.skipped += 1
            continue
        symbolic_kinds = frozenset(
            classify(solution.state, golden_output).kind.value
            for solution in result.solutions)

        # ---------------------------------------------------- concrete leg
        flips = [BitFlipFaultSpec(breakpoint_pc=injection.breakpoint_pc,
                                  occurrence=injection.occurrence,
                                  target=injection.target,
                                  model="bitflip", bit=bit)
                 for bit in range(word_bits)]
        if bits_per_point is not None:
            flips = deterministic_sample(flips, bits_per_point, seed=seed)
        concrete_kinds = set()
        for spec in flips:
            state = concrete_terminal(campaign, spec)
            if state is not None:
                concrete_kinds.add(classify(state, golden_output).kind.value)

        uncovered = uncovered_kinds(concrete_kinds, symbolic_kinds,
                                    result.completed)
        report.rows.append(ParityRow(
            breakpoint_pc=injection.breakpoint_pc,
            occurrence=injection.occurrence,
            target=repr(injection.target),
            symbolic_kinds=symbolic_kinds,
            symbolic_complete=result.completed,
            concrete_kinds=frozenset(concrete_kinds),
            flips=len(flips),
            uncovered=uncovered))
    return report
