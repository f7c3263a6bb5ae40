"""Concrete fault injection: the Table 2 value campaign and the parity study,
both run through the symbolic campaign's one injection engine."""

from .faultinjection import (INT32_MAX, INT32_MIN, ValuePolicy,
                             concrete_distribution, concrete_terminal)
from .parity import (SYMBOLIC_COVERS, ParityReport, ParityRow, covers,
                     run_parity_study)
from .stats import (OutcomeDistribution, OutcomeLabeler, printed_value_labeler,
                    tcas_outcome_labels)

__all__ = [
    "INT32_MAX", "INT32_MIN", "ValuePolicy", "concrete_distribution",
    "concrete_terminal",
    "SYMBOLIC_COVERS", "ParityReport", "ParityRow", "covers",
    "run_parity_study",
    "OutcomeDistribution", "OutcomeLabeler", "printed_value_labeler",
    "tcas_outcome_labels",
]
