"""Bounded model checking by exhaustive breadth-first search (Section 5.4).

Maude's ``search`` command explores the rewrite graph of the model
breadth-first from the initial state and returns every final state satisfying
the user predicate.  :class:`BoundedModelChecker` reproduces this behaviour
on top of the symbolic executor:

* states are expanded breadth-first, so shallow error manifestations are
  found before deep ones;
* duplicate states (same fingerprint) are explored only once.  States can
  only merge where control flow joins, so a state is fingerprinted only
  where it may equal one already seen (see :meth:`BoundedModelChecker.search`);
* between those merge points an ``err`` lineage runs ahead in place as a
  chain, through superblocks where no register holds ``err``, while the
  pops keep breadth-first order exactly;
* branches whose constraint maps are unsatisfiable never reach the frontier
  (the executor prunes them);
* the search is bounded by the watchdog instruction limit (carried by the
  executor's configuration), a state budget, a wall-clock budget and a cap on
  the number of solutions — mirroring the per-task caps used for the cluster
  runs in Section 6.1 (at most 10 errors and 30 minutes per task);
* once the state budget is certain to cut the search, it steps no state
  whose successors would never be popped.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .. import obs as _obs
from ..machine.executor import (SEARCH_MARK_STRIDE, ConcreteFutures, Executor,
                                run_concrete)
from ..machine.state import (Fingerprint, MachineState, Status,
                             state_contains_err)
from .queries import SearchQuery


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
    """Counters describing one search run.

    ``explored_states`` counts pops, ``expanded_states`` pops of a running
    state and ``terminal_states`` pops of a terminal one; the three are
    those of stepping every popped state, also past a settled budget cut
    (see :meth:`BoundedModelChecker.search`), where a running state is
    counted as expanded without being stepped.  ``deduplicated_states``,
    ``pruned_states`` and ``max_frontier`` count only what the search
    built: past a settled cut it builds nothing, so they stop growing.
    """

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
    — and the broker workers keep one per process — so that convergent
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

        Deduplication fingerprints a successor only where it can equal a
        state already seen.  A successor skips the fingerprint when it is
        its parent's only successor, fell through (``pc == parent pc + 1``)
        to a pc that carries no label, is still running and still holds
        ``err`` (so the next pop steps it instead of handing it to
        ``run_concrete``).  Every other successor is fingerprinted: forks,
        jump, taken-branch and ``jr`` arrivals, label addresses, terminal
        and err-free states.  Fall-through strictly raises the pc, so every
        cycle crosses a fingerprinted state and a looping lineage still
        ends.  A merge at an unfingerprinted state is caught at the next
        fingerprinted one, where breadth-first order lets the shallower
        copy arrive first: solutions, their depths and ``completed`` are
        those of fingerprinting every successor whenever the state budget
        is not hit, while ``explored_states`` also counts the states a
        missed merge ran before it was caught.  The one exception is the
        watchdog, which counts steps where the fingerprint does not: a
        deeper copy that reaches ``max_steps`` before the next fingerprinted
        state ends as a ``TIMEOUT``, a hang the earlier merge had dropped.

        Such a *chain state* is neither fingerprinted nor branched at, so
        its lineage runs ahead in place from the popped state
        (:meth:`Executor.chain`, through superblocks where no register
        holds ``err``), while the pops keep exactly the breadth-first order
        of stepping one state per pop.  A frontier entry is ``(state,
        depth, credits, pending)``: *credits* counts the chain pops already
        run ahead.  Popping a credited entry only counts an explored and an
        expanded state and re-appends the entry one level deeper.  At the
        pop that spends the last credit, *pending* is the chain's last
        result and applies there: the successors to dedup and queue, or the
        exception to raise.  ``None`` means the state is stepped at that
        pop as usual.  When every entry holds credits, whole rounds run in
        one step, stopping exactly at the state budget.  Queue order,
        budget cut points, dedup races and the solution order are those of
        one state per pop, and so is every field of the result up to a
        settled cut (below).  A chain never runs past the last pop the
        state budget allows, and a load, store or ``jr`` through an ``err``
        register waits for its own pop, so a search cut early builds none
        of those forks.

        The budget cut is *settled* once ``explored + len(frontier) >
        max_states``: the last queued entry is never popped, nor is
        anything queued after it, and the sum never falls again (a plain
        pop leaves it flat, a credited pop raises it).  From there the
        search steps nothing.  Credited pops and bulk rounds count as
        before, an err-free running state still runs its concrete tail and
        a terminal state still counts and may be a solution; any other
        popped running state, and an entry carrying *pending*, counts as
        explored and expanded and is dropped.  A successor loop queues up
        to the successor that settles the cut and no further.  So the
        solutions, their depths, ``completed``, ``stop_reason`` and the
        explored, expanded and terminal counts are those of stepping every
        popped state; ``deduplicated_states``, ``pruned_states`` and
        ``max_frontier`` count only what was built, and a step past the
        settled cut that would raise is never taken.  Telemetry counts
        ``search.chain_pops`` (pops served by credit, bulk ones included),
        ``search.chain_blocks``, ``search.bulk_rounds`` and
        ``search.cut_pops`` (pops dropped past a settled cut).
        """
        start_time = time.monotonic()
        executor = self.executor
        steps_before = executor.steps_executed
        concrete_before = executor.concrete_steps
        collapsed_before = executor.collapsed_loads
        blocks_before = executor.chain_blocks
        deduplicate = self.deduplicate
        max_states = self.max_states
        fingerprints = 0
        statistics = SearchStatistics()
        solutions: List[Solution] = []
        # Entries are (state, depth, credits, pending); see the docstring.
        frontier: deque = deque()
        credited = 0  # entries holding credits
        chain_pops = bulk_rounds = cut_pops = 0
        # Fingerprints hash in O(1) (rolling hashes maintained by the state's
        # write API) and compare structurally on collision, so membership
        # tests here cost O(1) expected without risking a false merge.
        seen: Set[Fingerprint] = set()
        # This search's layer of concrete futures, made at its first tail.
        futures: Optional[ConcreteFutures] = None
        stop_reason = "exhausted"
        completed = True

        # Every state on the frontier belongs to the search alone: the
        # concretize handoff finishes a state in place and ``advance``
        # reuses a popped state as its own successor, so the caller's
        # initial states are copied once here and never touched.
        for state in initial_states:
            frontier.append((state.copy(), 0, 0, None))

        # The hot counters live in locals until the loop ends.
        explored = expanded = max_frontier = 0
        running = Status.RUNNING
        concretize = self.concretize
        while frontier:
            size = len(frontier)
            if size > max_frontier:
                max_frontier = size

            if len(solutions) >= self.max_solutions:
                stop_reason = "solution cap reached"
                completed = False
                break
            if explored >= max_states:
                stop_reason = "state budget exhausted"
                completed = False
                break
            if (self.wall_clock_seconds is not None
                    and time.monotonic() - start_time > self.wall_clock_seconds):
                stop_reason = "wall-clock budget exhausted"
                completed = False
                break

            if credited == size:
                # Every entry holds credits: whole rounds of credited pops
                # keep the queue order, so run them in one step, stopping
                # before a round would cross the state budget.
                rounds = min(min(entry[2] for entry in frontier),
                             (max_states - explored) // size)
                if rounds:
                    popped = rounds * size
                    explored += popped
                    expanded += popped
                    chain_pops += popped
                    bulk_rounds += rounds
                    frontier = deque((state, depth + rounds, credits - rounds,
                                      pending)
                                     for state, depth, credits, pending
                                     in frontier)
                    credited = sum(1 for entry in frontier if entry[2])
                    continue

            state, depth, credits, pending = frontier.popleft()
            explored += 1

            if credits:
                # A chain state the chain has already stepped: its pop only
                # counts, and the entry moves on to the next one.
                expanded += 1
                chain_pops += 1
                if credits == 1:
                    credited -= 1
                frontier.append((state, depth + 1, credits - 1, pending))
                continue

            # The pops the budget leaves after every entry queued now.  Below
            # zero the cut is settled: the last queued entry is never popped,
            # so neither is anything queued from here on.  Step nothing.
            room = max_states - explored - len(frontier)
            if pending is None:
                if (concretize and state.status is running
                        and not state_contains_err(state)):
                    if futures is None:
                        futures = ConcreteFutures(
                            executor.program, executor.detectors, state.input,
                            SEARCH_MARK_STRIDE, parent=self.golden)
                    run_concrete(executor.program, state, executor.detectors,
                                 max_steps=executor.config.max_steps,
                                 futures=futures)

                if state.status is not running:
                    statistics.terminal_states += 1
                    if query(state):
                        solutions.append(Solution(state=state, depth=depth))
                    continue

            expanded += 1
            if room < 0:
                cut_pops += 1
                continue
            if pending is None:
                # The entry's next pop comes after every entry queued now,
                # so at most *room* chain states are ever popped.
                chained, state, pending = executor.chain(state, room)
                if chained:
                    # The successor is a chain state; the chain's later
                    # states are credits of the same entry.
                    if chained > 1:
                        credited += 1
                    frontier.append((state, depth + 1, chained - 1, pending))
                    continue
            elif pending.__class__ is not list:
                # The last chain state, advanced ahead: its exception is
                # raised at its own pop.
                raise pending

            successors = pending
            if not successors:
                statistics.pruned_states += 1
                continue
            # Queue successors up to the first that settles the cut.
            if not deduplicate:
                frontier.extend((successor, depth + 1, 0, None)
                                for successor in successors[:room + 1])
                continue
            for successor in successors:
                fingerprints += 1
                fingerprint = successor.fingerprint()
                if fingerprint in seen:
                    statistics.deduplicated_states += 1
                    continue
                seen.add(fingerprint)
                frontier.append((successor, depth + 1, 0, None))
                room -= 1
                if room < 0:
                    break

        statistics.explored_states = explored
        statistics.expanded_states = expanded
        statistics.max_frontier = max_frontier
        collapsed = executor.collapsed_loads - collapsed_before
        statistics.deduplicated_states += collapsed
        statistics.elapsed_seconds = time.monotonic() - start_time
        hub = _obs.get()
        if hub.enabled:
            # Epilogue publication: one batch of counter updates per search,
            # never per state — the hot loop stays untelemetered.
            hub.count("search.runs")
            hub.count("search.explored", statistics.explored_states)
            hub.count("search.terminal", statistics.terminal_states)
            hub.count("search.deduplicated", statistics.deduplicated_states)
            hub.count("search.fingerprints", fingerprints)
            hub.count("search.collapsed_loads", collapsed)
            hub.count("search.chain_pops", chain_pops)
            hub.count("search.chain_blocks",
                      executor.chain_blocks - blocks_before)
            hub.count("search.bulk_rounds", bulk_rounds)
            hub.count("search.cut_pops", cut_pops)
            hub.observe("search.seconds", statistics.elapsed_seconds)
            hub.count("executor.steps",
                      executor.steps_executed - steps_before)
            hub.count("executor.concrete_steps",
                      executor.concrete_steps - concrete_before)
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
