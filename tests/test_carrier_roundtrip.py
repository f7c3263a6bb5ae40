"""Round trips through the cross-process carriers of a campaign.

Fault specs travel to workers as broker task payloads; a worker's results
reach the coordinator as a broker result payload, and a recorded campaign
reads them back out of the results store.  Every carrier pickles, so each
shape must come back equal, field by field, through each of them:

* arbitrary machine states (overlays past the flatten thresholds, ``err``
  in the pc, registers, memory and output, relational-only constraint
  maps, every status) through pickle and both broker payloads;
* single, burst and bit-flip fault specs through the same three;
* random programs searched from ``err``-carrying inputs, as injection
  results, through a broker result payload and through the results store.

States compare by fingerprint, constraint map, output, status and step
count; results add their ``completed`` flag.
"""

from __future__ import annotations

import os
import pickle
import tempfile

from hypothesis import given, settings

from repro.constraints import Location
from repro.core import BoundedModelChecker, any_outcome
from repro.core.campaign import InjectionResult
from repro.errors import Injection
from repro.faults import BurstFaultSpec
from repro.machine import ExecutionConfig, Executor
from repro.machine.state import (_MEMORY_FLATTEN_LIMIT,
                                 _REGISTER_FLATTEN_LIMIT, Status)
from repro.net import BrokerServer, SocketBroker
from repro.results import SqliteResultStore
from repro.results.aggregates import classify_result
from strategies import (_DETECTORS, _fault_spec, _fresh_state,
                        _machine_inputs, _machine_state, _program)


def _searched(program, inputs) -> InjectionResult:
    """Search every outcome reachable from the drawn (erroneous) state."""
    executor = Executor(program, _DETECTORS, ExecutionConfig(max_steps=48))
    search = BoundedModelChecker(executor, max_solutions=6,
                                 max_states=300).search(
        [_fresh_state(inputs)], any_outcome())
    return InjectionResult(
        injection=Injection(breakpoint_pc=0, target=Location.register(1)),
        activated=True, search=search)


def _state_fields(state):
    return (state.fingerprint(), state.constraints, state.output_values(),
            state.status, state.steps)


def _fields(result: InjectionResult):
    return (result.completed,
            [_state_fields(solution.state) for solution in result.solutions])


def _through_broker(broker: SocketBroker, payload):
    """*payload* as a worker claims it from a task and as the coordinator
    fetches it from a result."""
    broker.reset()
    broker.put_task(0, payload)
    claim = broker.claim_next()
    broker.complete(claim, payload)
    [(index, result)] = broker.fetch_new_results(set())
    assert index == claim.index == 0
    return claim.payload, result


def _through_carriers(broker: SocketBroker, payload):
    """*payload* back from pickle, a broker task and a broker result."""
    return (pickle.loads(pickle.dumps(payload, protocol=4)),
            *_through_broker(broker, payload))


def _through_worker_result(broker: SocketBroker, result: InjectionResult):
    broker.reset()
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


def test_machine_states_survive_pickle_and_the_broker():
    deep, relational_only, statuses = [], [], set()
    with BrokerServer() as server, SocketBroker(server.url) as broker:

        @settings(max_examples=200, deadline=None)
        @given(state=_machine_state())
        def check(state):
            deep.append(
                len(state.registers._overlay) > _REGISTER_FLATTEN_LIMIT
                or len(state.memory._overlay) > _MEMORY_FLATTEN_LIMIT)
            backs = _through_carriers(broker, state)
            # fingerprint() may fold a deep overlay: take it only after
            # every carrier saw the state as drawn.
            expected = _state_fields(state)
            for back in backs:
                assert _state_fields(back) == expected
            relational_only.append(len(state.constraints) == 0
                                   and bool(state.constraints.relational()))
            statuses.add(state.status)

        check()
    # The draw must reach the shapes the carriers could get wrong.
    assert any(deep) and any(relational_only)
    assert statuses == set(Status)


def test_fault_specs_survive_pickle_and_the_broker():
    kinds = set()
    with BrokerServer() as server, SocketBroker(server.url) as broker:

        @settings(max_examples=100, deadline=None)
        @given(spec=_fault_spec())
        def check(spec):
            for back in _through_carriers(broker, spec):
                assert type(back) is type(spec)
                assert back == spec
                assert back.label() == spec.label()
                if isinstance(spec, BurstFaultSpec):
                    assert [c.target for c in back.components] \
                        == [c.target for c in spec.components]
            kinds.add(type(spec).__name__)

        check()
    assert kinds == {"FaultSpec", "BurstFaultSpec", "BitFlipFaultSpec"}


def test_results_survive_the_broker_payload_and_the_store():
    drawn = []
    with BrokerServer() as server, SocketBroker(server.url) as broker:

        @settings(max_examples=200, deadline=None)
        @given(program=_program(), inputs=_machine_inputs())
        def check(program, inputs):
            result = _searched(program, inputs)
            expected = _fields(result)
            assert _fields(_through_worker_result(broker, result)) \
                == expected
            with tempfile.TemporaryDirectory() as directory:
                assert _fields(_through_store(directory, result)) == expected
            drawn.append(any(len(solution.state.constraints)
                             for solution in result.solutions))

        check()
    # The draw must include solutions that carry constraints, or equality
    # would not show that constraint maps survive the trip.
    assert any(drawn)
