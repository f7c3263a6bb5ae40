"""Machine model: state, execution semantics and exceptional conditions."""

from .exceptions import (DETECTOR_PREFIX, DIVIDE_BY_ZERO, ILLEGAL_ADDRESS,
                         ILLEGAL_INSTRUCTION, INPUT_EXHAUSTED, MachineModelError,
                         TIMED_OUT, detector_exception)
from .state import (CowMemory, CowRegisters, Fingerprint, MachineState,
                    Status, TraceEntry, initial_state, state_contains_err)
from .decode import (DecodedInstruction, DecodedProgram, clear_decode_cache,
                     decoded_program)
from .executor import (ConcreteFutures, ExecutionConfig, Executor,
                       GoldenCheckpoints, SymbolicValueEncountered,
                       concrete_step, concrete_step_legacy, run_concrete,
                       run_concrete_legacy, run_concrete_until,
                       run_to_breakpoint)

__all__ = [
    "DETECTOR_PREFIX", "DIVIDE_BY_ZERO", "ILLEGAL_ADDRESS", "ILLEGAL_INSTRUCTION",
    "INPUT_EXHAUSTED", "MachineModelError", "TIMED_OUT", "detector_exception",
    "CowMemory", "CowRegisters", "Fingerprint",
    "MachineState", "Status", "TraceEntry", "initial_state", "state_contains_err",
    "DecodedInstruction", "DecodedProgram", "clear_decode_cache", "decoded_program",
    "ConcreteFutures", "ExecutionConfig", "Executor", "GoldenCheckpoints",
    "SymbolicValueEncountered",
    "concrete_step", "concrete_step_legacy", "run_concrete",
    "run_concrete_legacy", "run_concrete_until", "run_to_breakpoint",
]
