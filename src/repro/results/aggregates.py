"""Outcome aggregates of a campaign, folded one injection at a time.

The paper evaluates its campaigns as aggregate outcome counts over large
injection sweeps (Tables 2-4), which is exactly what a coordinator needs
when it stops retaining every :class:`~repro.core.campaign.
InjectionResult` in memory: :class:`OutcomeAggregates` holds the running
counters — one :meth:`fold` per injection, O(solutions) each — and
reproduces every aggregate the in-memory
:class:`~repro.core.campaign.CampaignResult` derives by scanning its full
result list (``describe()`` counters, the outcome-kind summary of
:func:`~repro.analysis.report.campaign_outcome_summary`).

Solutions are classified once, at ingestion, into :class:`SolutionOutcome`
records; the result store persists the same records into its indexed
``outcomes`` table and answers the same counters from its columnar
tables, which must equal a full-scan re-fold (the conformance suite
asserts it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.campaign import CampaignResult, InjectionResult
from ..core.outcomes import OutcomeKind, classify
from ..machine.state import state_contains_err


@dataclass(frozen=True)
class SolutionOutcome:
    """One solution's classification, as recorded in the warehouse."""

    kind: str
    detector_id: Optional[int] = None
    exception: Optional[str] = None
    #: The corruption survives in the final state (register/memory/PC err
    #: census) without having reached the output — a silent latent error.
    latent: bool = False


def classify_result(result: InjectionResult,
                    golden_output: Optional[Sequence] = None,
                    ) -> List[SolutionOutcome]:
    """Classify every solution of one injection experiment."""
    outcomes: List[SolutionOutcome] = []
    for solution in result.solutions:
        outcome = classify(solution.state, golden_output)
        latent = (bool(state_contains_err(solution.state))
                  and not solution.state.output_contains_err())
        outcomes.append(SolutionOutcome(kind=outcome.kind.value,
                                        detector_id=outcome.detector_id,
                                        exception=outcome.exception,
                                        latent=latent))
    return outcomes


def _zero_counts() -> Dict[str, int]:
    return {kind.value: 0 for kind in OutcomeKind}


@dataclass
class OutcomeAggregates:
    """Running aggregate of a campaign, maintained one injection at a time."""

    injections_run: int = 0
    injections_activated: int = 0
    injections_with_solutions: int = 0
    injections_completed: int = 0
    total_solutions: int = 0
    latent_solutions: int = 0
    outcome_counts: Dict[str, int] = field(default_factory=_zero_counts)

    # -------------------------------------------------------------- ingestion

    def fold(self, result: InjectionResult,
             outcomes: Sequence[SolutionOutcome]) -> None:
        """Fold one injection's result (and its classified solutions) in."""
        self.injections_run += 1
        if result.activated:
            self.injections_activated += 1
        if result.found_solutions:
            self.injections_with_solutions += 1
        if result.completed:
            self.injections_completed += 1
        self.total_solutions += len(result.solutions)
        for outcome in outcomes:
            self.outcome_counts[outcome.kind] = \
                self.outcome_counts.get(outcome.kind, 0) + 1
            if outcome.latent:
                self.latent_solutions += 1

    @classmethod
    def from_campaign_result(cls, campaign_result: CampaignResult,
                             golden_output: Optional[Sequence] = None,
                             ) -> "OutcomeAggregates":
        """Fold a full (in-memory or store-backed) campaign result."""
        aggregates = cls()
        for result in campaign_result.results:
            aggregates.fold(result, classify_result(result, golden_output))
        return aggregates

    # ---------------------------------------------------------------- queries

    @property
    def all_completed(self) -> bool:
        return self.injections_completed == self.injections_run

    @property
    def latent_rate(self) -> float:
        """Latent (silent, census-only) solutions per reported solution."""
        return (self.latent_solutions / self.total_solutions
                if self.total_solutions else 0.0)

    def describe(self) -> str:
        """The counter block of :meth:`CampaignResult.describe`."""
        return "\n".join([
            f"injections run             : {self.injections_run}",
            f"injections activated       : {self.injections_activated}",
            f"injections with solutions  : {self.injections_with_solutions}",
            f"total solutions            : {self.total_solutions}",
        ])

    # ------------------------------------------------------------ (de)serialise

    def as_dict(self) -> Dict[str, object]:
        return {
            "injections_run": self.injections_run,
            "injections_activated": self.injections_activated,
            "injections_with_solutions": self.injections_with_solutions,
            "injections_completed": self.injections_completed,
            "total_solutions": self.total_solutions,
            "latent_solutions": self.latent_solutions,
            "outcome_counts": {kind: count
                               for kind, count in self.outcome_counts.items()
                               if count},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "OutcomeAggregates":
        counts = _zero_counts()
        counts.update(data.get("outcome_counts", {}))
        return cls(
            injections_run=int(data.get("injections_run", 0)),
            injections_activated=int(data.get("injections_activated", 0)),
            injections_with_solutions=int(
                data.get("injections_with_solutions", 0)),
            injections_completed=int(data.get("injections_completed", 0)),
            total_solutions=int(data.get("total_solutions", 0)),
            latent_solutions=int(data.get("latent_solutions", 0)),
            outcome_counts=counts,
        )
