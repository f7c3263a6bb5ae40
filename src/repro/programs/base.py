"""Common workload abstraction shared by the example programs.

A :class:`Workload` bundles everything needed to run one of the paper's
evaluation programs: the assembled/compiled program, its loader-initialised
data segment, its detectors, a default input and convenience helpers for
golden runs and initial machine states.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from ..detectors import DetectorSet, EMPTY_DETECTORS
from ..isa.program import Program
from ..machine.executor import run_concrete
from ..machine.state import MachineState, Status, initial_state


@dataclass
class Workload:
    """One ready-to-analyse program plus its execution context."""

    name: str
    program: Program
    description: str = ""
    data_segment: Dict[int, int] = field(default_factory=dict)
    detectors: DetectorSet = field(default_factory=lambda: EMPTY_DETECTORS)
    default_input: Tuple[int, ...] = ()
    compiled: Optional[object] = None  # CompiledProgram when built by minic
    recommended_max_steps: int = 20_000
    #: ISA frontend the program was retargeted through (``None`` = the native
    #: SymPLFIED build).  Carried into campaigns, specs and checkpoint headers.
    isa: Optional[str] = None

    def initial_state(self, input_values: Optional[Sequence[int]] = None
                      ) -> MachineState:
        """A fresh initial machine state (loader-initialised data segment)."""
        values = self.default_input if input_values is None else tuple(input_values)
        return initial_state(input_values=values, memory=dict(self.data_segment))

    def golden_run(self, input_values: Optional[Sequence[int]] = None
                   ) -> MachineState:
        """Run the workload without errors and return the final state."""
        state = self.initial_state(input_values)
        run_concrete(self.program, state, self.detectors,
                     max_steps=self.recommended_max_steps)
        return state

    def golden_output(self, input_values: Optional[Sequence[int]] = None) -> Tuple:
        """The error-free output; raises if the golden run does not halt."""
        state = self.golden_run(input_values)
        if state.status is not Status.HALTED:
            raise RuntimeError(
                f"{self.name}: golden run ended with {state.status.value} "
                f"({state.exception})")
        return state.output_values()

    def retargeted(self, isa: str) -> "Workload":
        """This workload rebuilt through the named ISA frontend.

        The program is round-tripped through the frontend's assembly; for the
        built-in frontends the instruction sequence and label table are
        structurally identical (injection addresses stay meaningful), only the
        provenance changes.  Raises :class:`ValueError` for unknown names.
        """
        from ..isa.registry import get_frontend

        frontend = get_frontend(isa)
        return replace(self, program=frontend.retarget(self.program),
                       isa=frontend.name)

    def campaign(self, kind: str = "err-output",
                 fault_model=None,
                 expected_value: Optional[int] = None,
                 execution_config=None,
                 **campaign_options):
        """A ready-to-run ``(SymbolicCampaign, SearchQuery)`` for this workload.

        *fault_model* — a :class:`~repro.faults.models.FaultModel` or a
        registry name (e.g. ``"register"``, ``"memory"``, ``"control"``) —
        plans the sweep; omitting it sweeps registers.
        """
        from ..frontend.querygen import generate_campaign

        return generate_campaign(self, kind=kind,
                                 fault_model=fault_model,
                                 expected_value=expected_value,
                                 execution_config=execution_config,
                                 **campaign_options)

    def describe(self) -> str:
        return (f"{self.name}: {len(self.program)} instructions, "
                f"{len(self.data_segment)} data words, "
                f"{len(self.detectors)} detectors — {self.description}")
