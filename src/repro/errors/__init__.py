"""Error model: the err symbol, propagation, comparisons and injection breakpoints.

What a campaign corrupts is planned by the fault models of
:mod:`repro.faults`.
"""

from .propagation import (IMMEDIATE_ALIASES, NonDeterministicOperation,
                          concrete_binary, symbolic_binary, unary_result)
from .comparison import ComparisonOutcome, resolve_comparison
from .injector import (Injection, InjectionError, apply_corruption,
                       prepare_injected_state, registers_used_at)

__all__ = [
    "IMMEDIATE_ALIASES", "NonDeterministicOperation", "concrete_binary",
    "symbolic_binary", "unary_result",
    "ComparisonOutcome", "resolve_comparison",
    "Injection", "InjectionError", "apply_corruption", "prepare_injected_state",
    "registers_used_at",
]
