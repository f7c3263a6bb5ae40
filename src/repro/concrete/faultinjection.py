"""Concrete (extreme/random-value) fault-injection campaigns (Section 6.3).

The paper's validation campaign injects, for every instruction in tcas and
for every register used by that instruction, three extreme values of the
integer range plus three random values — roughly 6000 experiments, later
extended to 41000 — and classifies each run's outcome.  This module
reproduces that campaign on the one injection engine,
:meth:`~repro.core.campaign.SymbolicCampaign.run_injection`:

* :class:`ValuePolicy` decides which concrete values are injected per
  location (extreme values + seeded random values, as in the paper) and
  expands the planned sites into one :class:`~repro.faults.FaultSpec` per
  value;
* :func:`concrete_terminal` runs one such spec: its corrupted state holds
  no ``err``, so the search finishes it with one concrete run and returns
  exactly one terminal state;
* :func:`concrete_distribution` labels each terminal state into an
  :class:`~repro.concrete.stats.OutcomeDistribution` as results stream in
  (Table 2), retaining none of them.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.campaign import SymbolicCampaign
from ..core.queries import any_outcome
from ..errors.injector import Injection
from ..faults.spec import FaultSpec
from ..machine.state import MachineState
from .stats import OutcomeDistribution, OutcomeLabeler, tcas_outcome_labels


#: 32-bit two's-complement extremes, as injected by the paper's campaign.
INT32_MAX = 2**31 - 1
INT32_MIN = -(2**31)


@dataclass
class ValuePolicy:
    """Which concrete values are injected into each fault location.

    The default mirrors the paper: three extreme values in the integer range
    (0, INT_MAX, INT_MIN) plus ``random_values`` values drawn uniformly from
    the 32-bit range with a fixed seed (so campaigns are reproducible).
    """

    extreme_values: Tuple[int, ...] = (0, INT32_MAX, INT32_MIN)
    random_values: int = 3
    seed: int = 2008  # year of the paper

    def values_for(self, injection: Injection) -> List[int]:
        seed = (f"{self.seed}:{injection.breakpoint_pc}:{injection.occurrence}:"
                f"{injection.target.kind}:{injection.target.index}")
        rng = random.Random(seed)
        values = list(self.extreme_values)
        for _ in range(self.random_values):
            values.append(rng.randint(INT32_MIN, INT32_MAX))
        return values

    def expand(self, injections: Iterable[FaultSpec]) -> List[FaultSpec]:
        """One spec per (site, value), sites in order, values in policy order."""
        return [dataclasses.replace(injection, value=value)
                for injection in injections
                for value in self.values_for(injection)]


def concrete_terminal(campaign: SymbolicCampaign,
                      spec: Injection) -> Optional[MachineState]:
    """The terminal state of one concrete fault, or ``None`` if never activated.

    *spec* must corrupt with a concrete value (a ``FaultSpec`` with a value,
    a bit flip); its search then has exactly one terminal state, and
    anything else raises.
    """
    result = campaign.run_injection(spec, any_outcome())
    if not result.activated:
        return None
    if not result.completed or len(result.solutions) != 1:
        raise RuntimeError(
            f"concrete fault {spec.label()} did not end in exactly one "
            f"terminal state ({len(result.solutions)} found, "
            f"{result.search.stop_reason})")
    return result.solutions[0].state


def concrete_distribution(campaign: SymbolicCampaign,
                          specs: Iterable[FaultSpec],
                          labeler: OutcomeLabeler,
                          outcome_labels: Sequence[str] = tcas_outcome_labels(),
                          ) -> OutcomeDistribution:
    """Run every concrete spec and count its labelled outcome (Table 2).

    Specs whose breakpoint is never reached count as
    :attr:`OutcomeDistribution.skipped`.
    """
    distribution = OutcomeDistribution(labels=tuple(outcome_labels))
    for spec in specs:
        state = concrete_terminal(campaign, spec)
        if state is None:
            distribution.skipped += 1
        else:
            distribution.record(labeler(state))
    return distribution
