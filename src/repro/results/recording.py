"""Streaming campaign ingestion into a :class:`~repro.results.store.ResultStore`.

:class:`RecordingStrategy` wraps any :class:`~repro.core.campaign.
ExecutionStrategy` (serial, pool, distributed, TCP, checkpointing) and
records the sweep into a results store.  Two modes:

* **streaming** (``retain=False``, the default): the wrapped backend runs
  with ``retain_results`` off, every arriving result is folded into
  incremental :class:`~repro.results.aggregates.OutcomeAggregates` and
  appended to the store via the result-sink hook, and the returned
  :class:`StoredCampaignResult` reads results lazily back out of the store
  — the coordinator never holds the sweep in memory, which is what unlocks
  sweeps far beyond the in-memory ceiling.
* **retained** (``retain=True``): the wrapped backend keeps its normal
  in-memory result list (required under ``--checkpoint``, whose journal
  zips pending and fresh results — and whose journal-resumed results never
  pass through the sink) and the store is populated from that list after
  the run.  Same warehouse rows, classic memory profile.

Seq assignment: results may arrive in completion order (pool and
distributed backends merge tasks as they finish), so rows are keyed by
submission index via :meth:`~repro.errors.injector.Injection.label`;
sweeps with duplicate
labels assign the duplicates' indices in arrival order (they are
interchangeable for every aggregate).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence

from ..core.campaign import (CampaignResult, ExecutionStrategy,
                             InjectionResult, ProgressCallback,
                             SymbolicCampaign)
from ..core.queries import SearchQuery
from ..errors.injector import Injection
from .aggregates import OutcomeAggregates, classify_result
from .store import ResultStore


class StoredResultsView(Sequence):
    """Lazy, submission-ordered view of one campaign's stored results.

    Quacks like the ``results`` list of an in-memory
    :class:`~repro.core.campaign.CampaignResult`: ``len``, indexing and
    iteration all work, but rows are unpickled from the store on demand and
    never cached — iterating twice reads the store twice.
    """

    def __init__(self, store: ResultStore, campaign_id: int) -> None:
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

    Aggregate properties answer from the incrementally-folded
    :class:`OutcomeAggregates` in O(1); ``results`` is a lazy
    :class:`StoredResultsView`, so code that does scan it (witness
    printing, ``solutions()``) streams rows out of the store — and
    ``describe()`` output stays byte-identical to the in-memory result of
    the same sweep.
    """

    def __init__(self, query_description: str, store: ResultStore,
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


class RecordingStrategy(ExecutionStrategy):
    """Record a wrapped strategy's sweep into a results store."""

    name = "recording"

    def __init__(self, inner: ExecutionStrategy, store: ResultStore,
                 meta: Optional[Dict[str, object]] = None,
                 golden_output: Optional[Sequence] = None,
                 retain: bool = False) -> None:
        self.inner = inner
        self.store = store
        self.meta = dict(meta or {})
        self.golden_output = golden_output
        self.retain = retain
        self.aggregates = OutcomeAggregates()
        #: Campaign id of the last run (None before any run).
        self.campaign_id: Optional[int] = None

    def __getattr__(self, attribute):
        # Diagnostics (cache_statistics, requeued_tasks, skipped, ...) pass
        # through to the wrapped backend.
        return getattr(self.inner, attribute)

    def _sequence_map(self, injections: Sequence[Injection]
                      ) -> Dict[str, Deque[int]]:
        by_label: Dict[str, Deque[int]] = {}
        for seq, injection in enumerate(injections):
            by_label.setdefault(injection.label(), deque()).append(seq)
        return by_label

    def run(self, campaign: SymbolicCampaign,
            injections: Sequence[Injection], query: SearchQuery,
            progress: Optional[ProgressCallback] = None,
            ) -> List[InjectionResult]:
        injections = list(injections)
        self.aggregates = OutcomeAggregates()
        self.meta.setdefault("backend", self.inner.name)
        self.meta.setdefault("query", query.description)
        self.campaign_id = self.store.begin_campaign(self.meta)
        started = time.monotonic()

        previous_sink = self.inner.result_sink
        if self.retain:
            # Classic memory profile: ingest from the returned list (the
            # only complete view under --checkpoint, where journal-resumed
            # results never pass through the sink).
            if self.result_sink is not None:
                self.inner.result_sink = self.result_sink
            try:
                results = self.inner.run(campaign, injections, query,
                                         progress=progress)
            finally:
                self.inner.result_sink = previous_sink
            for seq, result in enumerate(results):
                outcomes = classify_result(result, self.golden_output)
                self.aggregates.fold(result, outcomes)
                self.store.append(self.campaign_id, seq, result, outcomes)
        else:
            seq_map = self._sequence_map(injections)
            campaign_id = self.campaign_id

            def ingest(injection: Injection, result: InjectionResult) -> None:
                outcomes = classify_result(result, self.golden_output)
                self.aggregates.fold(result, outcomes)
                seq = seq_map[injection.label()].popleft()
                self.store.append(campaign_id, seq, result, outcomes)
                if previous_sink is not None:
                    previous_sink(injection, result)
                self.emit_result(injection, result)

            self.inner.result_sink = ingest
            self.inner.retain_results = False
            try:
                results = self.inner.run(campaign, injections, query,
                                         progress=progress)
            finally:
                self.inner.result_sink = previous_sink

        self.store.finish_campaign(self.campaign_id,
                                   time.monotonic() - started)
        return results

    def make_campaign_result(self, query: SearchQuery,
                             results: List[InjectionResult]) -> CampaignResult:
        if self.retain:
            return super().make_campaign_result(query, results)
        assert self.campaign_id is not None, "make_campaign_result before run"
        return StoredCampaignResult(query_description=query.description,
                                    store=self.store,
                                    campaign_id=self.campaign_id,
                                    aggregates=self.aggregates)
