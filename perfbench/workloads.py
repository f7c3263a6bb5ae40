"""The benchmark's workloads and the campaign set-up they share.

Importing this module imports nothing from ``repro``; :func:`build` does, so
a set-up probe can start its clock before the first ``repro`` import.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

#: Seed of the injection sample.  The pinned verdicts hold for this seed; the
#: benchmark's ``--seed`` only picks where in the sample the sweep starts.
SAMPLE_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    program: str
    fault_model: str
    sample: Optional[int]      # None: the whole fault space
    max_states: int
    #: Key of the pinned verdicts; workloads running one campaign share it.
    pin: str
    #: Normalised seconds one pass over the sample takes; a run makes
    #: ``max(1, seconds // pass_seconds)`` passes.
    pass_seconds: float
    store: bool = False        # stream through a SqliteResultStore
    tcp: bool = False          # broker on loopback plus one worker process
    query: str = "err-output"


WORKLOADS = {w.name: w for w in [
    Workload("replace-control", "replace", "control", sample=120,
             max_states=4000, pin="replace-control", pass_seconds=12.0),
    # State cap 1000, not 4000: a search stopped at the budget is one
    # interval between reference loops, and the host changes speed within
    # the ~1 s a 4000-state search takes.
    Workload("replace-register", "replace", "register", sample=360,
             max_states=1000, pin="replace-register", pass_seconds=22.0),
    Workload("tcas-memory-warehouse", "tcas", "memory", sample=None,
             max_states=5000, pin="tcas-memory", pass_seconds=13.0,
             store=True),
    Workload("tcas-memory-tcp", "tcas", "memory", sample=None,
             max_states=5000, pin="tcas-memory", pass_seconds=16.0,
             tcp=True),
]}

#: Injections per task on the TCP workload.
TCP_CHUNK_SIZE = 8


def build(workload: Workload):
    """Load the program, build the campaign and plan the sweep.

    Returns ``(program workload, campaign, query, injections)``: everything
    up to the first injection, which is what ``setup_s`` times.
    """
    from repro.programs import load_workload

    program = load_workload(workload.program)
    campaign, query = program.campaign(
        kind=workload.query, fault_model=workload.fault_model,
        max_states_per_injection=workload.max_states)
    injections = campaign.plan_injections(sample=workload.sample,
                                          seed=SAMPLE_SEED)
    return program, campaign, query, injections


STOP_CODES = {"exhausted": "x", "state budget exhausted": "b",
              "solution cap reached": "s", "wall-clock budget exhausted": "w"}


def verdict_code(result, outcomes) -> str:
    """One injection's verdict as a short string, compared with the pins.

    Covers activation, the search's stop reason (so whether the verdict is
    definite), the number of solutions and their outcome kinds.
    """
    if not result.activated:
        return "-"
    stop = STOP_CODES.get(result.search.stop_reason, "?")
    kinds = ",".join(sorted(outcome.kind for outcome in outcomes))
    return f"{stop}{len(result.solutions)}{':' + kinds if kinds else ''}"


def aggregates(codes) -> dict:
    """The pinned aggregates of a list of verdict codes (``None``: missing)."""
    codes = [code for code in codes if code is not None]
    outcome_counts: dict = {}
    for code in codes:
        for kind in code.partition(":")[2].split(","):
            if kind:
                outcome_counts[kind] = outcome_counts.get(kind, 0) + 1
    return {
        "injections": len(codes),
        "activated": sum(1 for code in codes if code != "-"),
        "decided": sum(1 for code in codes if code[0] in "-x"),
        "with_solutions": sum(1 for code in codes
                              if code != "-" and not code[1:].startswith("0")),
        "outcomes": dict(sorted(outcome_counts.items())),
        # Searches per stop reason: which exhaust their reachable states
        # and which stop at the budget.
        "stops": dict(sorted(Counter(code[0] for code in codes
                                     if code != "-").items())),
    }
