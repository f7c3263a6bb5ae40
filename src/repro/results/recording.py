"""Streaming campaign ingestion into the results store, and resume from it.

:class:`RecordingStrategy` wraps any :class:`~repro.core.campaign.
ExecutionStrategy` (serial, distributed, TCP) and streams the sweep
into a results store: the wrapped backend runs with ``retain_results`` off,
every arriving result is classified and appended to the store via the
result-sink hook, and the returned :class:`StoredCampaignResult` reads
results lazily back out of the store — the coordinator never holds the
sweep in memory, which is what unlocks sweeps far beyond the in-memory
ceiling.

The store is also the campaign's durable record, so it is what a killed
campaign resumes from (``repro analyze --results PATH --resume``).  Each
campaign's meta carries its identity, a digest of :func:`campaign_header`;
``RecordingStrategy(..., resume=True)`` continues the newest stored
campaign with the same identity, skips every injection whose position and
label match a stored row, and streams the rest into that campaign — the
printed result is identical to an uninterrupted run.

Seq assignment: results may arrive in completion order (the
distributed backend merges tasks as they finish), so rows are keyed by
submission index via :meth:`~repro.errors.injector.Injection.label`;
sweeps with duplicate labels assign the duplicates' indices in arrival
order (they are interchangeable for every aggregate).
"""

from __future__ import annotations

import hashlib
import pickle
import time
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence

from .. import obs as _obs
from ..core.campaign import (CampaignResult, ExecutionStrategy,
                             InjectionResult, ProgressCallback,
                             SymbolicCampaign)
from ..core.queries import SearchQuery
from ..errors.injector import Injection
from .aggregates import OutcomeAggregates, classify_result
from .store import CampaignRecord, SqliteResultStore


def campaign_header(campaign: SymbolicCampaign, query: SearchQuery) -> Dict:
    """The campaign identity a stored campaign is pinned to.

    Everything that changes what an individual search returns must be here:
    stored results computed under one configuration must never merge
    with fresh results computed under another (resuming with, say, a
    different ``--max-states`` would otherwise silently break the
    "identical to an uninterrupted run" guarantee).
    """
    # The fault model and detectors are pinned by content digest:
    # a count or type name would accept a campaign recorded under a
    # *different* detector file.  A spurious digest mismatch (these are
    # best-effort canonical) fails loudly toward refusing the resume,
    # never toward a wrong merge.
    semantics = hashlib.sha256(pickle.dumps(
        (campaign.fault_model, campaign.detectors),
        protocol=4)).hexdigest()
    return {
        "program": campaign.program.name,
        "fault_model": campaign.fault_model.name,
        "isa": campaign.isa,
        "query": query.description,
        "input_values": tuple(campaign.input_values),
        "search_caps": (campaign.max_solutions_per_injection,
                        campaign.max_states_per_injection,
                        campaign.wall_clock_per_injection,
                        campaign.deduplicate_states),
        "execution_config": repr(campaign.execution_config),
        "semantics_digest": semantics,
    }


class StoredResultsView(Sequence):
    """Lazy, submission-ordered view of one campaign's stored results.

    Quacks like the ``results`` list of an in-memory
    :class:`~repro.core.campaign.CampaignResult`: ``len``, indexing and
    iteration all work, but rows are unpickled from the store on demand and
    never cached — iterating twice reads the store twice.
    """

    def __init__(self, store: SqliteResultStore, campaign_id: int) -> None:
        self.store = store
        self.campaign_id = campaign_id

    def __len__(self) -> int:
        return self.store.count(self.campaign_id)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        return self.store.get(self.campaign_id, index)

    def __iter__(self) -> Iterator[InjectionResult]:
        return self.store.iter_results(self.campaign_id)

    def __repr__(self) -> str:
        return (f"StoredResultsView(campaign_id={self.campaign_id}, "
                f"len={len(self)})")


class StoredCampaignResult(CampaignResult):
    """A campaign result whose results live in the warehouse, not in memory.

    Aggregate properties answer in O(1) from the store's columnar
    :class:`OutcomeAggregates`, read once when the run finishes (so a
    resumed campaign counts its stored and fresh rows alike); ``results``
    is a lazy :class:`StoredResultsView`, so code that does scan it
    (witness printing, ``solutions()``) streams rows out of the store —
    and ``describe()`` output stays byte-identical to the in-memory result
    of the same sweep.
    """

    def __init__(self, query_description: str, store: SqliteResultStore,
                 campaign_id: int, aggregates: OutcomeAggregates) -> None:
        super().__init__(query_description=query_description)
        self.store = store
        self.campaign_id = campaign_id
        self.aggregates = aggregates
        self.results = StoredResultsView(store, campaign_id)

    @property
    def injections_run(self) -> int:
        return self.aggregates.injections_run

    @property
    def injections_activated(self) -> int:
        return self.aggregates.injections_activated

    @property
    def injections_with_solutions(self) -> int:
        return self.aggregates.injections_with_solutions

    @property
    def total_solutions(self) -> int:
        return self.aggregates.total_solutions

    @property
    def all_completed(self) -> bool:
        return self.aggregates.all_completed


class ResumeRefused(ValueError):
    """A resume against a store that holds only other campaigns."""


class RecordingStrategy(ExecutionStrategy):
    """Stream a wrapped strategy's sweep into a results store.

    With ``resume=True`` the run continues the newest stored campaign whose
    identity matches instead of beginning a new one (an empty store starts
    fresh; a store holding only other campaigns is refused).
    """

    name = "recording"

    def __init__(self, inner: ExecutionStrategy, store: SqliteResultStore,
                 meta: Optional[Dict[str, object]] = None,
                 golden_output: Optional[Sequence] = None,
                 resume: bool = False) -> None:
        self.inner = inner
        self.store = store
        self.meta = dict(meta or {})
        self.golden_output = golden_output
        self.resume = resume
        self.aggregates = OutcomeAggregates()
        #: Campaign id of the last run (None before any run).
        self.campaign_id: Optional[int] = None
        #: Injections the last run found already stored and skipped.
        self.resumed = 0

    def __getattr__(self, attribute):
        # Diagnostics (cache_statistics, requeued_tasks, ...) pass through
        # to the wrapped backend.
        return getattr(self.inner, attribute)

    def _resumable(self, identity: str,
                   header: Dict) -> Optional[CampaignRecord]:
        """The newest stored campaign with *identity* (None: start fresh)."""
        records = self.store.campaigns()
        for record in reversed(records):
            if record.meta.get("identity") == identity:
                return record
        if records:
            raise ResumeRefused(
                f"results store {self.store.path!r} belongs to a different "
                f"campaign: no stored campaign has identity {identity} "
                f"(current campaign {header!r})")
        return None

    def run(self, campaign: SymbolicCampaign,
            injections: Sequence[Injection], query: SearchQuery,
            progress: Optional[ProgressCallback] = None,
            ) -> List[InjectionResult]:
        injections = list(injections)
        header = campaign_header(campaign, query)
        identity = hashlib.sha256(
            repr(sorted(header.items())).encode()).hexdigest()
        hub = _obs.get()
        record = self._resumable(identity, header) if self.resume else None
        if record is None:
            self.meta.setdefault("backend", self.inner.name)
            self.meta.setdefault("query", query.description)
            self.meta["identity"] = identity
            if hub.enabled:
                # A later resume joins this trace (see below).
                self.meta["trace"] = hub.trace_id
            self.campaign_id = self.store.begin_campaign(self.meta)
            stored = set()
        else:
            self.campaign_id = record.campaign_id
            if "trace" in record.meta:
                # Both halves of the sweep share one trace id in the log.
                hub.adopt_trace(record.meta["trace"])
            stored = self.store.prune(self.campaign_id, [
                injection.label() for injection in injections])
        self.resumed = len(stored)
        pending = [seq for seq in range(len(injections)) if seq not in stored]
        started = time.monotonic()

        seqs: Dict[str, Deque[int]] = {}
        for seq in pending:
            seqs.setdefault(injections[seq].label(), deque()).append(seq)
        campaign_id = self.campaign_id
        previous_sink = self.inner.result_sink

        def ingest(injection: Injection, result: InjectionResult) -> None:
            self.store.append(campaign_id, seqs[injection.label()].popleft(),
                              result,
                              classify_result(result, self.golden_output))
            if previous_sink is not None:
                previous_sink(injection, result)
            self.emit_result(injection, result)

        self.inner.result_sink = ingest
        self.inner.retain_results = False
        try:
            if pending:
                self.inner.run(campaign, [injections[seq] for seq in pending],
                               query, progress=progress)
        finally:
            self.inner.result_sink = previous_sink
        self.store.finish_campaign(campaign_id, time.monotonic() - started)
        self.aggregates = self.store.aggregates(campaign_id)
        return []

    def make_campaign_result(self, query: SearchQuery,
                             results: List[InjectionResult]) -> CampaignResult:
        assert self.campaign_id is not None, "make_campaign_result before run"
        return StoredCampaignResult(query_description=query.description,
                                    store=self.store,
                                    campaign_id=self.campaign_id,
                                    aggregates=self.aggregates)
