"""Picklable specifications for rebuilding campaigns inside workers.

Worker processes cannot receive a live :class:`~repro.core.campaign.
SymbolicCampaign` or :class:`~repro.core.queries.SearchQuery` directly: the
campaign carries an executor, and generated queries close over lambdas that
do not survive pickling (and must not, on spawn-based platforms).  Instead
the parent describes the experiment with two small picklable specs:

* :class:`CampaignSpec` — the campaign's constructor arguments (program,
  inputs, detectors, fault model, execution config and search caps);
* :class:`QuerySpec` — either one of the pre-defined query kinds of the
  query generator (paper Section 5, "Supporting Tools") or a module-level
  factory callable plus arguments.

Each worker rebuilds the campaign and query once in its initializer and
reuses them for every work unit it processes, so the (cheap) reconstruction
cost is paid once per process, not once per task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from .. import obs as _obs
from ..core.campaign import SymbolicCampaign
from ..core.queries import SearchQuery
from ..core.search import SearchResultCache
from ..detectors import DetectorSet, EMPTY_DETECTORS
from ..faults.models import FaultModel
from ..isa.program import Program
from ..machine.executor import ExecutionConfig
from ..obs import TraceContext


@dataclass(frozen=True)
class CacheSpec:
    """A picklable recipe for a worker's search-result cache.

    ``kind="local"`` builds the classic per-process
    :class:`~repro.core.search.SearchResultCache`; ``kind="shared"`` opens
    the cross-process :class:`~repro.core.shared_cache.
    SharedSearchResultCache` at *path*, so every worker of a pool or
    distributed run reuses each other's completed searches.
    """

    kind: str = "local"
    path: Optional[str] = None
    max_entries: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("local", "shared"):
            raise ValueError(f"unknown cache kind {self.kind!r}")
        if self.kind == "shared" and not self.path:
            raise ValueError("a shared cache needs a database path")

    @classmethod
    def shared(cls, path: str) -> "CacheSpec":
        return cls(kind="shared", path=path)

    def build(self):
        if self.kind == "shared":
            from ..core.shared_cache import SharedSearchResultCache
            return SharedSearchResultCache(self.path)
        return SearchResultCache(max_entries=self.max_entries)


@dataclass(frozen=True)
class QuerySpec:
    """A picklable recipe for a :class:`SearchQuery`.

    Exactly one of *kind* (a pre-defined query-generator category) or
    *factory* (an importable module-level callable returning a SearchQuery)
    must be set.
    """

    kind: Optional[str] = None
    golden_output: Optional[Tuple] = None
    expected_value: Optional[int] = None
    factory: Optional[Callable[..., SearchQuery]] = None
    factory_args: Tuple = ()

    def __post_init__(self) -> None:
        if (self.kind is None) == (self.factory is None):
            raise ValueError("exactly one of kind= or factory= must be given")

    @classmethod
    def predefined(cls, kind: str,
                   golden_output: Optional[Sequence] = None,
                   expected_value: Optional[int] = None) -> "QuerySpec":
        """Spec for one of the query generator's pre-defined kinds."""
        golden = tuple(golden_output) if golden_output is not None else None
        return cls(kind=kind, golden_output=golden,
                   expected_value=expected_value)

    @classmethod
    def from_factory(cls, factory: Callable[..., SearchQuery],
                     *args) -> "QuerySpec":
        """Spec wrapping a module-level query factory (e.g. for tests)."""
        return cls(factory=factory, factory_args=tuple(args))

    def build(self) -> SearchQuery:
        if self.factory is not None:
            return self.factory(*self.factory_args)
        from ..frontend.querygen import generate_query
        return generate_query(self.kind, golden_output=self.golden_output,
                              expected_value=self.expected_value)


@dataclass
class CampaignSpec:
    """A picklable snapshot of a :class:`SymbolicCampaign`'s configuration."""

    program: Program
    input_values: Tuple[int, ...] = ()
    memory: Dict[int, int] = field(default_factory=dict)
    detectors: DetectorSet = EMPTY_DETECTORS
    #: Pluggable fault model (:mod:`repro.faults`); FaultModels are small
    #: frozen dataclasses, so they ride the spec (and thus every broker
    #: manifest) unchanged, like the FaultSpecs they plan.  ``None`` builds
    #: the campaign's default register sweep.
    fault_model: Optional[FaultModel] = None
    execution_config: ExecutionConfig = field(default_factory=ExecutionConfig)
    max_solutions_per_injection: int = 10
    max_states_per_injection: int = 50_000
    wall_clock_per_injection: Optional[float] = None
    #: Search-state dedup; ``False`` for the parity census (see
    #: :class:`~repro.core.campaign.SymbolicCampaign`).
    deduplicate_states: bool = True
    #: ISA frontend name the program was retargeted through (``None`` = the
    #: native SymPLFIED build); plain metadata, so it pickles through pool
    #: initializers and broker manifests like ``fault_model`` does.
    isa: Optional[str] = None
    #: Campaign-scoped trace context (trace id + the coordinator span the
    #: worker's spans should parent under); ``None`` when telemetry is off.
    #: Rides every carrier the spec rides — pool initializers, broker
    #: manifests — and never reaches :class:`SymbolicCampaign` itself.
    telemetry: Optional[TraceContext] = None

    @classmethod
    def from_campaign(cls, campaign: SymbolicCampaign) -> "CampaignSpec":
        return cls(
            program=campaign.program,
            input_values=campaign.input_values,
            memory=dict(campaign.memory),
            detectors=campaign.detectors,
            fault_model=campaign.fault_model,
            execution_config=campaign.execution_config,
            max_solutions_per_injection=campaign.max_solutions_per_injection,
            max_states_per_injection=campaign.max_states_per_injection,
            wall_clock_per_injection=campaign.wall_clock_per_injection,
            deduplicate_states=campaign.deduplicate_states,
            isa=campaign.isa,
            telemetry=_obs.get().context())

    def build(self) -> SymbolicCampaign:
        return SymbolicCampaign(
            self.program,
            input_values=self.input_values,
            memory=self.memory,
            detectors=self.detectors,
            fault_model=self.fault_model,
            execution_config=self.execution_config,
            max_solutions_per_injection=self.max_solutions_per_injection,
            max_states_per_injection=self.max_states_per_injection,
            wall_clock_per_injection=self.wall_clock_per_injection,
            deduplicate_states=self.deduplicate_states,
            isa=self.isa)
