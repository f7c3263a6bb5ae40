"""Bounded model checking by exhaustive breadth-first search (Section 5.4).

Maude's ``search`` command explores the rewrite graph of the model
breadth-first from the initial state and returns every final state satisfying
the user predicate.  :class:`BoundedModelChecker` reproduces this behaviour
on top of the symbolic executor:

* states are expanded breadth-first, so shallow error manifestations are
  found before deep ones;
* duplicate states (same fingerprint) are explored only once;
* branches whose constraint maps are unsatisfiable never reach the frontier
  (the executor prunes them);
* the search is bounded by the watchdog instruction limit (carried by the
  executor's configuration), a state budget, a wall-clock budget and a cap on
  the number of solutions — mirroring the per-task caps used for the cluster
  runs in Section 6.1 (at most 10 errors and 30 minutes per task).
"""

from __future__ import annotations

import hashlib
import pickle
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .. import obs as _obs
from ..machine.executor import (SEARCH_MARK_STRIDE, ConcreteFutures, Executor,
                                run_concrete)
from ..machine.state import Fingerprint, MachineState, state_contains_err
from .queries import SearchQuery

#: Pickle protocol pinned for stable cross-process cache digests.
_DIGEST_PICKLE_PROTOCOL = 4


def executor_digest(executor: Executor) -> bytes:
    """A content digest of everything an executor contributes to a search.

    The in-memory :class:`SearchResultCache` keys executors by identity; a
    cache shared *between processes* needs a stable stand-in.  The program,
    detectors and execution config together determine the executor's
    behaviour, so their serialized form is digested.  Equal configurations
    built from the same :class:`~repro.parallel.spec.CampaignSpec` produce
    equal digests; a digest mismatch between genuinely equal executors only
    costs a cache miss, never a wrong hit.
    """
    payload = pickle.dumps((executor.program, executor.detectors,
                            executor.config),
                           protocol=_DIGEST_PICKLE_PROTOCOL)
    return hashlib.sha256(payload).digest()


def stable_state_digest(state: MachineState) -> bytes:
    """A content digest of a machine state, canonicalised for sharing.

    Flattens the CoW structure and sorts the memory (overlay insertion order
    is a write-history artifact, not part of the state's meaning) so two
    structurally equal states digest identically regardless of how they were
    produced.
    """
    payload = pickle.dumps(
        (state.pc,
         state.registers.as_tuple(),
         sorted(state.memory.to_dict().items()),
         tuple(state.input),
         state.input_pos,
         tuple(state.output),
         state.constraints,
         state.status,
         state.exception),
        protocol=_DIGEST_PICKLE_PROTOCOL)
    return hashlib.sha256(payload).digest()


@dataclass
class Solution:
    """A terminal state satisfying the search predicate, plus bookkeeping."""

    state: MachineState
    depth: int

    def describe(self) -> str:
        return (f"depth {self.depth}: status={self.state.status.value} "
                f"output={self.state.output_values()!r}")


@dataclass
class SearchStatistics:
    """Counters describing one search run."""

    explored_states: int = 0
    expanded_states: int = 0
    terminal_states: int = 0
    deduplicated_states: int = 0
    pruned_states: int = 0
    max_frontier: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class SearchResult:
    """Outcome of a bounded model-checking run."""

    solutions: List[Solution]
    statistics: SearchStatistics
    completed: bool
    stop_reason: str

    @property
    def found(self) -> bool:
        return bool(self.solutions)

    def describe(self) -> str:
        lines = [
            f"solutions        : {len(self.solutions)}",
            f"explored states  : {self.statistics.explored_states}",
            f"terminal states  : {self.statistics.terminal_states}",
            f"deduplicated     : {self.statistics.deduplicated_states}",
            f"completed        : {self.completed} ({self.stop_reason})",
            f"elapsed seconds  : {self.statistics.elapsed_seconds:.3f}",
        ]
        return "\n".join(lines)


@dataclass
class CacheStatistics:
    """Counters describing the effectiveness of a :class:`SearchResultCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def accumulate(self, other: "CacheStatistics") -> None:
        """Fold another counter set into this one (per-worker aggregation)."""
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.evictions += other.evictions

    def describe(self) -> str:
        return (f"lookups={self.lookups} hits={self.hits} "
                f"misses={self.misses} hit_rate={self.hit_rate:.1%} "
                f"stores={self.stores} evictions={self.evictions}")


class SearchResultCache:
    """Memoises completed searches across injection experiments.

    A bounded model-checking run is a pure function of the executor (program,
    detectors, execution config), the injected initial state, the query and
    the search caps: two injections whose corrupted states share a
    fingerprint (and step count, which feeds the watchdog bound) explore
    exactly the same space and return identical results.  The campaign and
    task runners thread one cache through every injection of a program sweep
    — and the parallel workers keep one per process — so that convergent
    injection points are searched only once.

    Keys embed the executor object itself (compared by identity; the cache
    keeps it alive), so one cache can be shared across checkers — even over
    different programs or configs — without cross-talk.  The query, however,
    is identified by its description: generated queries (and any query reused
    across a campaign) satisfy this; callers mixing distinct predicates under
    one description must use separate caches.  Mutating an executor or its
    config after cached searches invalidates this reasoning; build a fresh
    executor (or cache) instead.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self.statistics = CacheStatistics()
        self._entries: Dict[Tuple, SearchResult] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def make_key(executor: Executor, state: MachineState, query: SearchQuery,
                 caps: Tuple) -> Tuple:
        # The executor participates by identity (default object hash); the
        # key tuple holds a strong reference, so its id cannot be recycled.
        return (executor, state.fingerprint(), state.steps,
                query.description, caps)

    def get(self, key: Tuple) -> Optional[SearchResult]:
        result = self._entries.get(key)
        if result is None:
            self.statistics.misses += 1
        else:
            self.statistics.hits += 1
            # True LRU: refresh the entry's position so a hot key recycled
            # by every injection point cannot be evicted by colder ones.
            self._entries[key] = self._entries.pop(key)
        return result

    def store(self, key: Tuple, result: SearchResult) -> None:
        if self.max_entries is not None and key not in self._entries \
                and len(self._entries) >= self.max_entries:
            # Drop the least-recently-used entry (get() refreshes recency).
            self._entries.pop(next(iter(self._entries)))
            self.statistics.evictions += 1
        self._entries[key] = result
        self.statistics.stores += 1


class BoundedModelChecker:
    """Breadth-first exhaustive search over symbolic machine states."""

    def __init__(self, executor: Executor,
                 max_solutions: int = 10,
                 max_states: int = 250_000,
                 wall_clock_seconds: Optional[float] = None,
                 deduplicate: bool = True,
                 concretize: bool = True,
                 result_cache: Optional[SearchResultCache] = None,
                 golden: Optional[ConcreteFutures] = None) -> None:
        self.executor = executor
        self.max_solutions = max_solutions
        self.max_states = max_states
        self.wall_clock_seconds = wall_clock_seconds
        self.deduplicate = deduplicate
        # When a state no longer holds any err value its future is
        # deterministic; finishing it with the fast concrete interpreter is a
        # pure optimisation that does not change the set of final states.
        self.concretize = concretize
        # Optional cross-search memoisation (see SearchResultCache).
        self.result_cache = result_cache
        # The campaign's golden layer of concrete futures, if any: every
        # search stacks its own layer on it, so an err-free tail ends as
        # soon as it rejoins the golden run or an earlier tail.
        self.golden = golden

    def search(self, initial_states: Iterable[MachineState],
               query: SearchQuery) -> SearchResult:
        """Explore every execution reachable from *initial_states*.

        Returns all terminal states satisfying *query*, up to the configured
        caps.  ``completed`` is True when the whole reachable space was
        explored (so the absence of solutions is a *proof* that the program is
        resilient to the injected error class, per the paper's output #1).
        """
        start_time = time.monotonic()
        steps_before = getattr(self.executor, "steps_executed", 0)
        statistics = SearchStatistics()
        solutions: List[Solution] = []
        frontier: deque = deque()
        # Fingerprints hash in O(1) (rolling hashes maintained by the state's
        # write API) and compare structurally on collision, so membership
        # tests here cost O(1) expected without risking a false merge.
        seen: Set[Fingerprint] = set()
        # This search's layer of concrete futures, made at its first tail.
        futures: Optional[ConcreteFutures] = None
        stop_reason = "exhausted"
        completed = True

        for state in initial_states:
            frontier.append((state, 0))

        while frontier:
            statistics.max_frontier = max(statistics.max_frontier, len(frontier))

            if len(solutions) >= self.max_solutions:
                stop_reason = "solution cap reached"
                completed = False
                break
            if statistics.explored_states >= self.max_states:
                stop_reason = "state budget exhausted"
                completed = False
                break
            if (self.wall_clock_seconds is not None
                    and time.monotonic() - start_time > self.wall_clock_seconds):
                stop_reason = "wall-clock budget exhausted"
                completed = False
                break

            state, depth = frontier.popleft()
            statistics.explored_states += 1

            if state.is_running and self.concretize and not state_contains_err(state):
                executor = self.executor
                if futures is None:
                    futures = ConcreteFutures(
                        executor.program, executor.detectors, state.input,
                        SEARCH_MARK_STRIDE, parent=self.golden)
                run_concrete(executor.program, state, executor.detectors,
                             max_steps=executor.config.max_steps,
                             futures=futures)

            if not state.is_running:
                statistics.terminal_states += 1
                if query(state):
                    solutions.append(Solution(state=state, depth=depth))
                continue

            successors = self.executor.step(state)
            statistics.expanded_states += 1
            if not successors:
                statistics.pruned_states += 1
                continue
            for successor in successors:
                if self.deduplicate:
                    fingerprint = successor.fingerprint()
                    if fingerprint in seen:
                        statistics.deduplicated_states += 1
                        continue
                    seen.add(fingerprint)
                frontier.append((successor, depth + 1))

        statistics.elapsed_seconds = time.monotonic() - start_time
        hub = _obs.get()
        if hub.enabled:
            # Epilogue publication: one batch of counter updates per search,
            # never per state — the hot loop stays untelemetered.
            hub.count("search.runs")
            hub.count("search.explored", statistics.explored_states)
            hub.count("search.terminal", statistics.terminal_states)
            hub.count("search.deduplicated", statistics.deduplicated_states)
            hub.observe("search.seconds", statistics.elapsed_seconds)
            steps = getattr(self.executor, "steps_executed", None)
            if steps is not None:
                hub.count("executor.steps", steps - steps_before)
        return SearchResult(solutions=solutions, statistics=statistics,
                            completed=completed, stop_reason=stop_reason)

    def _caps_key(self) -> Tuple:
        return (self.max_solutions, self.max_states, self.wall_clock_seconds,
                self.deduplicate, self.concretize)

    def search_single(self, initial_state: MachineState,
                      query: SearchQuery) -> SearchResult:
        """Search from a single initial state, consulting the result cache."""
        if self.result_cache is None:
            return self.search([initial_state], query)
        key = self.result_cache.make_key(self.executor, initial_state, query,
                                         self._caps_key())
        cached = self.result_cache.get(key)
        hub = _obs.get()
        if cached is not None:
            if hub.enabled:
                hub.count("cache.hits")
            return cached
        if hub.enabled:
            hub.count("cache.misses")
        result = self.search([initial_state], query)
        self.result_cache.store(key, result)
        return result
