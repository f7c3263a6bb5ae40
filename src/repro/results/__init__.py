"""The results warehouse: columnar campaign storage, streaming ingestion
and cross-campaign reports (see :mod:`repro.results.store`)."""

from __future__ import annotations

from .aggregates import OutcomeAggregates, SolutionOutcome, classify_result
from .recording import (RecordingStrategy, ResumeRefused,
                        StoredCampaignResult, StoredResultsView,
                        campaign_header)
from .report import format_parity_report, format_report
from .store import CampaignRecord, SqliteResultStore

__all__ = [
    "CampaignRecord",
    "OutcomeAggregates",
    "RecordingStrategy",
    "ResumeRefused",
    "SolutionOutcome",
    "SqliteResultStore",
    "StoredCampaignResult",
    "StoredResultsView",
    "campaign_header",
    "classify_result",
    "format_parity_report",
    "format_report",
]
