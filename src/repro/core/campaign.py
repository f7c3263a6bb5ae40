"""Symbolic fault-injection campaigns (paper Section 6.1).

A campaign sweeps a fault model over a program: for every injection point
enumerated by the model (for example "``err`` in every register used by every
instruction"), it

1. runs the program concretely up to the breakpoint (guaranteeing the fault
   is activated),
2. replaces the target location's contents with ``err``,
3. model-checks the resulting symbolic state against a search query
   (e.g. "halted with a printed value other than 1"), and
4. records the solutions, the search statistics and whether the per-injection
   search completed.

The paper splits such a campaign into independent search *tasks* executed on
a cluster.  Here every backend runs a sweep as tasks too — uncapped ones —
through :func:`run_task`; the paper's capped decomposition and the aggregate
completion statistics live in :mod:`repro.core.tasks`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .. import obs as _obs
from ..detectors import DetectorSet, EMPTY_DETECTORS
from ..errors.injector import Injection, prepare_injected_state
from ..faults.models import FAULT_MODELS, FaultModel
from ..isa.program import Program
from ..isa.values import ERR
from ..machine.executor import ConcreteFutures, ExecutionConfig, Executor
from ..machine.state import MachineState, initial_state
from .outcomes import Outcome, classify
from .queries import SearchQuery
from .search import (BoundedModelChecker, SearchResult, SearchResultCache,
                     Solution)

#: Callback invoked after each injection: (done, total, last result).
ProgressCallback = Callable[[int, int, "InjectionResult"], None]

#: Callback invoked once per completed injection experiment, as soon as the
#: executing strategy learns the result (for the pool and distributed
#: backends that is when the containing chunk completes).  Unlike the
#: ProgressCallback — which the pool backends only call with the *last*
#: result of a chunk — the sink sees every result exactly once, which is
#: what checkpoint journaling needs.
ResultSink = Callable[["Injection", "InjectionResult"], None]


@dataclass
class InjectionResult:
    """Result of model checking a single injection experiment."""

    injection: Injection
    activated: bool
    search: Optional[SearchResult] = None

    @property
    def found_solutions(self) -> bool:
        return self.search is not None and self.search.found

    @property
    def solutions(self) -> List[Solution]:
        return self.search.solutions if self.search is not None else []

    @property
    def completed(self) -> bool:
        return self.search.completed if self.search is not None else True


@dataclass
class CampaignResult:
    """Aggregate result of a symbolic campaign."""

    query_description: str
    results: List[InjectionResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def injections_run(self) -> int:
        return len(self.results)

    @property
    def injections_activated(self) -> int:
        return sum(1 for r in self.results if r.activated)

    @property
    def injections_with_solutions(self) -> int:
        return sum(1 for r in self.results if r.found_solutions)

    @property
    def total_solutions(self) -> int:
        return sum(len(r.solutions) for r in self.results)

    @property
    def all_completed(self) -> bool:
        return all(r.completed for r in self.results)

    def solutions(self) -> List[Tuple[Injection, Solution]]:
        found = []
        for result in self.results:
            for solution in result.solutions:
                found.append((result.injection, solution))
        return found

    def outcomes(self, golden_output: Optional[Sequence] = None
                 ) -> List[Tuple[Injection, Outcome]]:
        """Classify every solution state against the golden output."""
        return [(injection, classify(solution.state, golden_output))
                for injection, solution in self.solutions()]

    def describe(self) -> str:
        lines = [
            f"query                      : {self.query_description}",
            f"injections run             : {self.injections_run}",
            f"injections activated       : {self.injections_activated}",
            f"injections with solutions  : {self.injections_with_solutions}",
            f"total solutions            : {self.total_solutions}",
            f"elapsed seconds            : {self.elapsed_seconds:.3f}",
        ]
        return "\n".join(lines)


@dataclass
class SearchTask:
    """One independent search task: a slice of the injection sweep."""

    identifier: int
    injections: Tuple[Injection, ...]
    description: str = ""

    def __len__(self) -> int:
        return len(self.injections)


def chunk_injections(injections: Sequence[Injection],
                     chunk_size: int) -> List[Tuple[Injection, ...]]:
    """Split a sweep into fixed-size chunks, preserving order.

    The final chunk may be smaller; an empty sweep yields no chunks, and a
    chunk size larger than the sweep yields a single chunk.  Each chunk is
    one unit of work handed to a backend, so smaller chunks balance load
    better while larger chunks amortise dispatch overhead.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    ordered = list(injections)
    chunks = [tuple(ordered[start:start + chunk_size])
              for start in range(0, len(ordered), chunk_size)]
    assert all(chunks), "chunking must never produce an empty chunk"
    return chunks


def decompose_by_chunk(injections: Sequence[Injection],
                       chunk_size: int) -> List[SearchTask]:
    """Fixed-size chunk decomposition (sweep order, not code sections)."""
    tasks = []
    for identifier, chunk in enumerate(chunk_injections(injections, chunk_size)):
        tasks.append(SearchTask(
            identifier=identifier, injections=chunk,
            description=f"chunk {identifier} ({len(chunk)} injections)"))
    return tasks


class TaskCaps(NamedTuple):
    """Per-task caps (paper Section 6.1: at most 10 errors, 30 minutes)."""

    max_errors: int
    wall_clock: Optional[float] = None


#: What one task returns: its results in sweep order, the wall-clock
#: seconds it took, and whether it completed under its caps.
TaskOutcome = Tuple[List[InjectionResult], float, bool]


def run_task(campaign: "SymbolicCampaign", injections: Sequence[Injection],
             query: SearchQuery, cache: Optional[SearchResultCache] = None,
             caps: Optional[TaskCaps] = None) -> TaskOutcome:
    """Run one task's injections in order until a cap is hit.

    The single work unit of every backend: the serial strategy calls it
    in-process, pool and broker workers call it on their payloads.  With
    ``caps=None`` (a sweep) every injection runs.  A task is incomplete
    when its wall-clock cap cut it short, or when an injection's search hit
    its own budget without finding a solution; reaching the error cap
    completes it.
    """
    start = time.monotonic()
    results: List[InjectionResult] = []
    errors = 0
    completed = True
    for injection in injections:
        if caps is not None:
            if errors >= caps.max_errors:
                completed = True
                break
            if (caps.wall_clock is not None
                    and time.monotonic() - start > caps.wall_clock):
                completed = False
                break
        # Through the instance, so a patched run_injection sees every call.
        result = campaign.run_injection(injection, query, result_cache=cache)
        results.append(result)
        errors += len(result.solutions)
        if not result.completed and not result.found_solutions:
            completed = False
    return results, time.monotonic() - start, completed


class ExecutionStrategy:
    """How a campaign's injection experiments are executed.

    The paper distributes its searches over a cluster as capped search
    tasks; this abstraction keeps :class:`SymbolicCampaign` and
    :class:`~repro.core.tasks.TaskRunner` agnostic of *where* each task
    runs.  There is one strategy per backend: the serial strategy below
    runs tasks in-process, :mod:`repro.parallel` shards them across a
    worker pool, and :mod:`repro.distributed` / :mod:`repro.net` run them
    through a broker.  A backend implements :meth:`run_tasks`; every task
    of every backend goes through :func:`run_task`.  Wrappers compose by
    overriding :meth:`run`: checkpointing, recording into a
    :class:`~repro.results.ResultStore`, progress reporting.

    A sweep is a list of uncapped tasks (:meth:`run`), and a
    :class:`~repro.core.tasks.TaskRunner` campaign is the same list with
    caps.  The contract: given the same ``(campaign, injections, query)``,
    every strategy must return results equal to the serial strategy's, in
    submission order — backends may only change *where* searches run,
    never *what* they return (`repro bench --expect-identical` enforces
    this byte-for-byte across backends, for every fault model including
    multi-error bursts).  Each injection experiment is a pure function of
    the campaign identity, which is what makes work stealing, re-execution
    after lease expiry and checkpoint resume safe.
    """

    name: str = "abstract"

    #: Optional per-result hook (see :data:`ResultSink`).  :meth:`run`
    #: calls :meth:`emit_result` for every completed injection; wrappers
    #: such as the checkpointing strategy install a sink here.
    result_sink: Optional[ResultSink] = None

    #: When False, the strategy streams every result through
    #: :meth:`emit_result` but does not retain it: :meth:`run` returns an
    #: empty list and the coordinator's memory stays flat no matter how
    #: large the sweep is.  Only meaningful with a sink (or a
    #: :meth:`make_campaign_result` override) that consumes the stream —
    #: see :class:`repro.results.recording.RecordingStrategy`.
    retain_results: bool = True

    def emit_result(self, injection: Injection, result: InjectionResult) -> None:
        if self.result_sink is not None:
            self.result_sink(injection, result)

    def make_campaign_result(self, query: SearchQuery,
                             results: List[InjectionResult]) -> CampaignResult:
        """Build the campaign result from this strategy's view of the sweep.

        The default wraps the retained result list; streaming strategies
        override this to return a store-backed view instead.
        """
        campaign = CampaignResult(query_description=query.description)
        campaign.results = results
        return campaign

    def sweep_chunk_size(self, total: int) -> int:
        """Injections per task when :meth:`run` splits a sweep of *total*.

        One, in-process: progress and result streaming stay per-injection.
        """
        return 1

    def run_tasks(self, campaign: "SymbolicCampaign",
                  tasks: Sequence[SearchTask], query: SearchQuery,
                  caps: Optional[TaskCaps] = None,
                  ) -> Iterator[Tuple[int, TaskOutcome]]:
        """Run every task under *caps*; yield ``(index, outcome)`` pairs.

        Pairs arrive in completion order, each task exactly once; callers
        merge them by submission index.
        """
        raise NotImplementedError

    def run(self, campaign: "SymbolicCampaign", injections: Sequence[Injection],
            query: SearchQuery,
            progress: Optional[ProgressCallback] = None) -> List[InjectionResult]:
        """Execute every injection and return results in submission order.

        The sweep runs as uncapped tasks; each result is emitted as soon as
        its task finishes, and *progress* fires once per finished task.
        """
        injections = list(injections)
        tasks = decompose_by_chunk(injections,
                                   self.sweep_chunk_size(len(injections)))
        merged: Dict[int, List[InjectionResult]] = {}
        done = 0
        for index, (results, _elapsed, _completed) in self.run_tasks(
                campaign, tasks, query):
            assert len(results) == len(tasks[index]), \
                "an uncapped task must run every one of its injections"
            for injection, result in zip(tasks[index].injections, results):
                self.emit_result(injection, result)
            if self.retain_results:
                merged[index] = results
            done += len(results)
            if progress is not None and results:
                progress(done, len(injections), results[-1])
        # Deterministic merge: flatten in task-submission (= sweep) order.
        return [result for index in sorted(merged)
                for result in merged[index]]


class SerialExecutionStrategy(ExecutionStrategy):
    """Run every task in-process, one after the other."""

    name = "serial"

    def __init__(self, result_cache: Optional[SearchResultCache] = None) -> None:
        self.result_cache = result_cache

    def run_tasks(self, campaign: "SymbolicCampaign",
                  tasks: Sequence[SearchTask], query: SearchQuery,
                  caps: Optional[TaskCaps] = None,
                  ) -> Iterator[Tuple[int, TaskOutcome]]:
        for index, task in enumerate(tasks):
            yield index, run_task(campaign, task.injections, query,
                                  self.result_cache, caps)


class SymbolicCampaign:
    """Sweep a fault model over a program with symbolic fault injection."""

    def __init__(self,
                 program: Program,
                 input_values: Sequence[int] = (),
                 memory: Optional[Dict[int, int]] = None,
                 detectors: DetectorSet = EMPTY_DETECTORS,
                 fault_model: Optional[FaultModel] = None,
                 execution_config: Optional[ExecutionConfig] = None,
                 max_solutions_per_injection: int = 10,
                 max_states_per_injection: int = 50_000,
                 wall_clock_per_injection: Optional[float] = None,
                 deduplicate_states: bool = True,
                 isa: Optional[str] = None) -> None:
        self.program = program
        self.input_values = tuple(input_values)
        self.memory = dict(memory) if memory else {}
        self.detectors = detectors
        #: The :mod:`repro.faults` model that plans the injections; the
        #: paper's register sweep when none is given.
        self.fault_model = fault_model or FAULT_MODELS["register"]
        self.execution_config = execution_config or ExecutionConfig()
        self.max_solutions_per_injection = max_solutions_per_injection
        self.max_states_per_injection = max_states_per_injection
        self.wall_clock_per_injection = wall_clock_per_injection
        #: Search-state deduplication (on by default).  The parity census
        #: turns it off: dedup collapses an err-driven loop into a state
        #: cycle before the lineage reaches the watchdog, so a deduplicating
        #: any-outcome search under-reports ``hang`` terminals.
        self.deduplicate_states = deduplicate_states
        #: ISA frontend the program was retargeted through, if any; pure
        #: provenance metadata pinned into checkpoint headers and specs.
        self.isa = isa
        self._executor = Executor(program, detectors, self.execution_config)
        # Built by the first injection, not here: set-up stays as cheap as
        # decoding, and every process (campaigns are rebuilt, never
        # pickled) records its own.  The initial state comes with it: every
        # prefix copies it and none writes it, and building one hashes the
        # whole data segment.
        self._golden: Optional[ConcreteFutures] = None
        self._initial: Optional[MachineState] = None

    # ------------------------------------------------------------ enumeration

    def fresh_initial_state(self) -> MachineState:
        return initial_state(input_values=self.input_values, memory=self.memory)

    def golden_futures(self) -> ConcreteFutures:
        """The error-free run's concrete futures and checkpoints (built on
        first use)."""
        if self._golden is None:
            self._initial = self.fresh_initial_state()
            self._golden = ConcreteFutures.golden(
                self.program, self._initial.copy(), self.detectors,
                max_steps=self.execution_config.max_steps)
        return self._golden

    def enumerate_injections(self,
                             pcs: Optional[Sequence[int]] = None) -> List[Injection]:
        """All injections of the campaign's fault model."""
        return self.fault_model.enumerate(self.program, memory=self.memory,
                                          pcs=pcs)

    def plan_injections(self, sample: Optional[int] = None,
                        seed: Optional[int] = None) -> List[Injection]:
        """Plan the sweep: the full enumerated space, or a seeded sample.

        Planning happens once, on the coordinator, before any chunking or
        distribution — so a sampled sweep is the same list of specs no
        matter which backend executes it.
        """
        return self.fault_model.plan(self.program, memory=self.memory,
                                     sample=sample, seed=seed)

    # -------------------------------------------------------------- execution

    def run_injection(self, injection: Injection, query: SearchQuery,
                      result_cache: Optional[SearchResultCache] = None,
                      ) -> InjectionResult:
        """Model-check a single injection experiment.

        A :class:`~repro.faults.spec.FaultSpec` carries its own corruption
        value; a plain :class:`Injection` injects the symbolic ``ERR``.
        """
        hub = _obs.get()
        if hub.enabled:
            # Dual path so the disabled sweep never pays for the label.
            with hub.span("search.solve", injection=injection.label()):
                return self._run_injection(injection, query, result_cache)
        return self._run_injection(injection, query, result_cache)

    def _run_injection(self, injection: Injection, query: SearchQuery,
                       result_cache: Optional[SearchResultCache] = None,
                       ) -> InjectionResult:
        golden = self.golden_futures()
        injected = prepare_injected_state(
            self.program, injection, self._initial,
            value=getattr(injection, "value", ERR),
            detectors=self.detectors,
            max_prefix_steps=self.execution_config.max_steps,
            golden=golden)
        if injected is None:
            return InjectionResult(injection=injection, activated=False)
        checker = BoundedModelChecker(
            self._executor,
            max_solutions=self.max_solutions_per_injection,
            max_states=self.max_states_per_injection,
            wall_clock_seconds=self.wall_clock_per_injection,
            deduplicate=self.deduplicate_states,
            result_cache=result_cache,
            golden=golden)
        result = checker.search_single(injected, query)
        return InjectionResult(injection=injection, activated=True, search=result)

    def run(self, query: SearchQuery,
            injections: Optional[Sequence[Injection]] = None,
            progress: Optional[ProgressCallback] = None,
            strategy: Optional[ExecutionStrategy] = None) -> CampaignResult:
        """Run the whole campaign (or the provided subset of injections).

        *strategy* selects how the experiments are executed; the default
        serial strategy reproduces the original single-process sweep, and any
        strategy must return one result per injection, in submission order.
        """
        campaign_start = time.monotonic()
        if injections is None:
            injections = self.enumerate_injections()
        if strategy is None:
            strategy = SerialExecutionStrategy()
        with _obs.get().span("campaign.run", program=self.program.name,
                             strategy=strategy.name,
                             injections=len(injections)):
            results = strategy.run(self, injections, query,
                                   progress=progress)
        campaign = strategy.make_campaign_result(query, results)
        campaign.elapsed_seconds = time.monotonic() - campaign_start
        return campaign
