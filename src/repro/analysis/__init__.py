"""Reporting utilities for campaigns and benchmarks."""

from .report import (campaign_outcome_summary, format_witnesses,
                     model_inventory, solutions_with_final_value)

__all__ = [
    "campaign_outcome_summary", "format_witnesses", "model_inventory",
    "solutions_with_final_value",
]
