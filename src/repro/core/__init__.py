"""The SymPLFIED core: symbolic model checking, queries, campaigns and tasks."""

from .outcomes import Outcome, OutcomeKind, classify, default_expected_value
from .queries import (SearchQuery, any_outcome, crashed, detected,
                      halted_normally, hung,
                      incorrect_output, last_printed_value, latent_err,
                      output_contains_err, output_differs, output_equals,
                      printed_value, printed_value_other_than,
                      undetected_failure)
from .search import (BoundedModelChecker, CacheStatistics, SearchResult,
                     SearchResultCache, SearchStatistics, Solution)
from .campaign import (CampaignResult, ExecutionStrategy, InjectionResult,
                       SearchTask, SerialExecutionStrategy, SymbolicCampaign,
                       TaskCaps, chunk_injections, decompose_by_chunk,
                       run_task)
from .tasks import (TaskCampaignReport, TaskResult, TaskRunner,
                    decompose_by_code_section, decompose_by_injection,
                    default_chunk_size)
from .traces import Witness, witnesses_from_campaign

__all__ = [
    "Outcome", "OutcomeKind", "classify", "default_expected_value",
    "SearchQuery", "any_outcome", "crashed", "detected",
    "halted_normally", "hung",
    "incorrect_output", "last_printed_value", "latent_err",
    "output_contains_err", "output_differs", "output_equals",
    "printed_value", "printed_value_other_than", "undetected_failure",
    "BoundedModelChecker", "CacheStatistics", "SearchResult",
    "SearchResultCache", "SearchStatistics", "Solution",
    "CampaignResult", "ExecutionStrategy", "InjectionResult",
    "SerialExecutionStrategy", "SymbolicCampaign",
    "SearchTask", "TaskCampaignReport", "TaskCaps", "TaskResult",
    "TaskRunner", "chunk_injections", "decompose_by_chunk", "run_task",
    "decompose_by_code_section", "decompose_by_injection",
    "default_chunk_size",
    "Witness", "witnesses_from_campaign",
]
