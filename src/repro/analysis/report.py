"""Reporting helpers used by the examples and the benchmark harness.

These functions turn symbolic campaign results into the artefacts the paper
presents: outcome counts, the solutions printing a given value (Section
6.2's advisory flip), lists of undetected-error witnesses and the model
inventory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.campaign import CampaignResult
from ..core.outcomes import OutcomeKind
from ..core.tasks import TaskCampaignReport
from ..core.traces import Witness
from ..errors.injector import Injection
from ..isa.values import is_err


def campaign_outcome_summary(campaign: CampaignResult,
                             golden_output: Optional[Sequence] = None
                             ) -> Dict[str, int]:
    """Count the solutions of a symbolic campaign by outcome kind."""
    counts: Dict[str, int] = {kind.value: 0 for kind in OutcomeKind}
    for _injection, outcome in campaign.outcomes(golden_output):
        counts[outcome.kind.value] += 1
    return counts


def solutions_with_final_value(
        campaign: Union[CampaignResult, TaskCampaignReport],
        value: int) -> List[Tuple[Injection, object]]:
    """Solutions whose final printed integer equals *value* (e.g. tcas's 2)."""
    matching = []
    for injection, solution in campaign.solutions():
        printed = solution.state.printed_integers()
        if printed and not is_err(printed[-1]) and printed[-1] == value:
            matching.append((injection, solution))
    return matching


def format_witnesses(witnesses: Sequence[Witness], limit: int = 5) -> str:
    """Render up to *limit* witnesses for human consumption."""
    if not witnesses:
        return "(no witnesses)"
    sections = []
    for witness in list(witnesses)[:limit]:
        sections.append(witness.render())
        sections.append("-" * 60)
    if len(witnesses) > limit:
        sections.append(f"... and {len(witnesses) - limit} more witnesses")
    return "\n".join(sections)


def model_inventory() -> Dict[str, int]:
    """Counts analogous to the paper's "35 modules / 54 rules / 384 equations".

    The paper reports the size of its Maude specification; the analogous
    quantities here are the number of Python modules in the package, the
    number of instruction opcodes (deterministic "equations") and the number
    of distinct non-deterministic resolution points ("rewrite rules").
    """
    import pkgutil

    import repro
    from ..isa.instructions import INSTRUCTION_SET

    modules = 0
    for _finder, _name, _ispkg in pkgutil.walk_packages(repro.__path__,
                                                        prefix="repro."):
        modules += 1
    nondeterministic_points = 6  # comparison fork, div-by-err, mult err*err,
    #                              load via err pointer, store via err pointer,
    #                              control transfer with err target/PC
    return {
        "python_modules": modules,
        "instruction_opcodes": len(INSTRUCTION_SET),
        "nondeterministic_rules": nondeterministic_points,
    }
