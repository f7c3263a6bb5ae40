"""Round trips through the cross-process carriers of an injection result.

A worker's results reach the coordinator as a broker result payload, and a
recorded campaign reads them back out of the results store; both pickle.
Random programs searched from ``err``-carrying inputs must come back equal,
field by field, through both: each solution's fingerprint, constraint map,
output, status and step count, and the result's ``completed`` flag.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings

from repro.constraints import Location
from repro.core import BoundedModelChecker, any_outcome
from repro.core.campaign import InjectionResult
from repro.distributed import FilesystemBroker
from repro.errors import Injection
from repro.machine import ExecutionConfig, Executor
from repro.results import SqliteResultStore
from repro.results.aggregates import classify_result
from strategies import _DETECTORS, _fresh_state, _machine_inputs, _program


def _searched(program, inputs) -> InjectionResult:
    """Search every outcome reachable from the drawn (erroneous) state."""
    executor = Executor(program, _DETECTORS, ExecutionConfig(max_steps=48))
    search = BoundedModelChecker(executor, max_solutions=6,
                                 max_states=300).search(
        [_fresh_state(inputs)], any_outcome())
    return InjectionResult(
        injection=Injection(breakpoint_pc=0, target=Location.register(1)),
        activated=True, search=search)


def _fields(result: InjectionResult):
    return (result.completed,
            [(solution.state.fingerprint(), solution.state.constraints,
              solution.state.output_values(), solution.state.status,
              solution.state.steps)
             for solution in result.solutions])


def _through_broker(directory: str, result: InjectionResult):
    broker = FilesystemBroker(os.path.join(directory, "queue"))
    broker.put_task(0, ((result.injection,), None))
    claim = broker.claim_next()
    # The payload a worker publishes: (campaign id, index, task outcome,
    # snapshot), the outcome being (results, elapsed, completed).
    broker.complete(claim, ("c", 0, ([result], 0.0, result.completed),
                            ("w", None, None)))
    [(index, (_, _, (results, _, _), _))] = broker.fetch_new_results(set())
    assert index == 0
    [back] = results
    return back


def _through_store(directory: str, result: InjectionResult):
    store = SqliteResultStore(os.path.join(directory, "results.sqlite"))
    try:
        campaign = store.begin_campaign({"workload": "random"})
        store.append(campaign, 0, result, classify_result(result))
        store.flush()
        return store.get(campaign, 0)
    finally:
        store.close()


def test_results_survive_the_broker_payload_and_the_store():
    drawn = []

    @settings(max_examples=200, deadline=None)
    @given(program=_program(), inputs=_machine_inputs())
    def check(program, inputs):
        result = _searched(program, inputs)
        expected = _fields(result)
        with tempfile.TemporaryDirectory() as directory:
            assert _fields(_through_broker(directory, result)) == expected
            assert _fields(_through_store(directory, result)) == expected
        drawn.append(any(len(solution.state.constraints)
                         for solution in result.solutions))

    check()
    # The draw must include solutions that carry constraints, or equality
    # would not show that constraint maps survive the trip.
    assert any(drawn)
