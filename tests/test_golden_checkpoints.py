"""Golden checkpoints: an injection prefix starts from the nearest recorded
golden state instead of from step 0.

The one golden run a campaign makes also keeps a state every golden mark and
every pc's visit steps (:class:`~repro.machine.executor.GoldenCheckpoints`).
:func:`~repro.machine.executor.run_to_breakpoint` starts from the latest
checkpoint before the (pc, occurrence) breakpoint, or answers a breakpoint
the golden run never reaches without running.  The oracle below demands
that every planned injection of two workloads comes out equal, field by
field, to the full replay from the initial state; the edge tests pin the
lookup's off-by-ones, superblocks, the golden run's endings (halt, raise,
timeout, detection) and the binding rules.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.concrete import ConcreteSimulator
from repro.constraints import Location
from repro.core import SymbolicCampaign
from repro.core.queries import any_outcome
from repro.detectors import EMPTY_DETECTORS, DetectorSet
from repro.errors import Injection, prepare_injected_state
from repro.faults import BitFlipFaultSpec, BurstFaultSpec, FaultSpec
from repro.isa.parser import assemble
from repro.isa.values import ERR
from repro.machine import (ConcreteFutures, ExecutionConfig,
                           MachineModelError, Status, concrete_step,
                           initial_state, run_concrete, run_concrete_until,
                           run_to_breakpoint)
from repro.machine.decode import SUPERBLOCK_LIMIT, decoded_program
from repro.machine.executor import GOLDEN_MARK_STRIDE
from repro.machine.state import recompute_incremental_state
from repro.programs import load_workload

#: Reads n, sums n + (n-1) + ... + 1 in a loop whose body is one superblock
#: (pcs 2-3), prints the sum, then reads and prints a second input.
SOURCE = """
        read $1              -- 0
        li $2 0              -- 1
loop:   add $2 $2 $1         -- 2
        subi $1 $1 #1        -- 3
        bne $1 0 loop        -- 4
        print $2             -- 5
        read $3              -- 6
        print $3             -- 7
        halt                 -- 8
"""

N = 500
INPUT = (N, 8)
MAX_STEPS = 100_000


def _program(source=SOURCE):
    return assemble(source, name="sum")


def _golden(program, detectors=EMPTY_DETECTORS, max_steps=MAX_STEPS):
    return ConcreteFutures.golden(program, initial_state(INPUT), detectors,
                                  max_steps)


def _fields(state):
    """Everything a state carries, incremental bookkeeping included."""
    if state is None:
        return None
    return (state.pc, state.registers.as_tuple(), state.memory.to_dict(),
            state.input, state.input_pos, tuple(state.output),
            state.constraints, state.steps, state.status, state.exception,
            state.detector_id, state.trace, state.forks,
            recompute_incremental_state(state),
            (state._loc_hash, state._out_hash, state._err_count))


def _replay(program, initial, pc, occurrence=1, detectors=EMPTY_DETECTORS,
            max_steps=MAX_STEPS):
    """The reference: a copy of *initial* replayed from its own step."""
    state = initial.copy()
    run_concrete_until(program, state, pc, occurrence=occurrence,
                       detectors=detectors, max_steps=max_steps)
    return state


def _counting(fn):
    """Run *fn* under an enabled telemetry hub; return (result, counters)."""
    previous = obs.get()
    hub = obs.set_hub(obs.Telemetry())
    try:
        result = fn()
    finally:
        obs.set_hub(previous)
    return result, hub.counters


def _assert_flat(state):
    assert not state.registers._overlay and not state.memory._overlay


def _check(program, golden, pc, occurrence, detectors=EMPTY_DETECTORS,
           max_steps=MAX_STEPS, input_values=INPUT, bound=True):
    """Checkpointed and full replays agree, both as a raw breakpoint run and
    as an injected state; returns the checkpointed run's counters."""
    initial = initial_state(input_values)
    assert golden.starts(program, detectors, initial, max_steps) is bound
    expected = _replay(program, initial, pc, occurrence, detectors, max_steps)
    state, counters = _counting(lambda: run_to_breakpoint(
        program, initial, pc, occurrence, detectors, max_steps, golden))
    assert _fields(state) == _fields(expected)
    injection = Injection(pc, Location.register(2), occurrence)
    plain = prepare_injected_state(program, injection, initial,
                                   detectors=detectors,
                                   max_prefix_steps=max_steps)
    fast = prepare_injected_state(program, injection, initial,
                                  detectors=detectors,
                                  max_prefix_steps=max_steps, golden=golden)
    assert _fields(fast) == _fields(plain)
    if fast is not None:
        _assert_flat(fast)
    return counters


# ------------------------------------------------------- the identity oracle


def _campaign_states(name, fault_model, sample):
    campaign, _ = load_workload(name).campaign(kind="err-output",
                                               fault_model=fault_model)
    injections = campaign.plan_injections(sample=sample, seed=7)
    golden = campaign.golden_futures()
    assert golden.starts(campaign.program, campaign.detectors,
                         campaign.fresh_initial_state(),
                         campaign.execution_config.max_steps)
    for injection in injections:
        arguments = dict(value=getattr(injection, "value", ERR),
                         detectors=campaign.detectors,
                         max_prefix_steps=campaign.execution_config.max_steps)
        yield (prepare_injected_state(campaign.program, injection,
                                      campaign.fresh_initial_state(),
                                      golden=golden, **arguments),
               prepare_injected_state(campaign.program, injection,
                                      campaign.fresh_initial_state(),
                                      **arguments))


@pytest.mark.parametrize("name, fault_model, sample, planned, never", [
    ("tcas", "memory", None, 2736, 752),
    # perfbench's replace-register sample.
    ("replace", "register", 360, 360, 138),
])
def test_every_planned_injection_matches_the_full_replay(
        name, fault_model, sample, planned, never):
    count = unreached = 0
    for fast, plain in _campaign_states(name, fault_model, sample):
        count += 1
        assert _fields(fast) == _fields(plain)
        if fast is None:
            unreached += 1
        else:
            _assert_flat(fast)
    assert (count, unreached) == (planned, never)


def test_the_replace_golden_run_keeps_a_checkpoint_every_mark():
    campaign, _ = load_workload("replace").campaign(fault_model="register")
    checkpoints = campaign.golden_futures().checkpoints
    assert checkpoints.steps[0] == 0
    assert len(checkpoints.states) == len(campaign.golden_futures()) + 1 == 44
    assert sum(map(len, checkpoints.visits)) == checkpoints.end.steps == 11371
    assert [state.steps for state in checkpoints.states] == checkpoints.steps


# ------------------------------------------------------------- the lookup


class TestLookup:
    def test_visits_are_every_step_of_the_run(self):
        program = _program()
        golden = _golden(program)
        checkpoints = golden.checkpoints
        by_step = sorted((step, pc) for pc, steps in
                         enumerate(checkpoints.visits) for step in steps)
        state = initial_state(INPUT)
        trail = []
        while state.is_running:
            trail.append((state.steps, state.pc))
            concrete_step(program, state)
        assert by_step == trail
        assert checkpoints.end.status is Status.HALTED

    def test_a_checkpoint_on_the_breakpoint_pc(self):
        """A checkpoint that sits exactly on the breakpoint is the start, with
        one visit to go; the visits either side of it match too."""
        program = _program()
        golden = _golden(program)
        checkpoints = golden.checkpoints
        index, state = next((i, s) for i, s in enumerate(checkpoints.states)
                            if i > 0)
        visits = checkpoints.visits[state.pc]
        occurrence = visits.index(state.steps) + 1
        start, remaining = checkpoints.resume(state.pc, occurrence)
        assert (start.steps, remaining) == (checkpoints.steps[index], 1)
        for nearby in (occurrence - 1, occurrence, occurrence + 1):
            counters = _check(program, golden, state.pc, nearby)
            replayed = counters.get("prefix.steps", 0)
            if nearby == occurrence:
                assert replayed == 0
            else:
                assert 0 < replayed < GOLDEN_MARK_STRIDE + SUPERBLOCK_LIMIT

    @pytest.mark.parametrize("pc", [2, 3, 4])
    def test_every_occurrence_across_checkpoints(self, pc):
        """Occurrences of the loop span every checkpoint; pc 3 sits inside
        the loop's superblock, which a replay must not step through."""
        program = _program()
        golden = _golden(program)
        assert len(golden.checkpoints.states) > 4
        assert decoded_program(program).block_lens[2] == 2
        for occurrence in range(1, N + 2):
            counters = _check(program, golden, pc, occurrence)
            assert (counters.get("prefix.steps", 0)
                    < GOLDEN_MARK_STRIDE + SUPERBLOCK_LIMIT)

    def test_a_breakpoint_inside_a_long_superblock(self):
        body = "\n".join(f"        addi $4 $4 #{i}" for i in range(40))
        program = _program(SOURCE.replace("        print $2",
                                          body + "\n        print $2"))
        golden = _golden(program)
        for pc in range(5, 48):
            _check(program, golden, pc, 1)

    def test_a_breakpoint_never_reached_is_answered_without_running(self):
        program = _program()
        golden = _golden(program)
        for pc, occurrence in ((2, N + 1), (5, 2), (8, 2)):
            counters = _check(program, golden, pc, occurrence)
            assert counters["prefix.answered"] == 1
            assert "prefix.steps" not in counters

    def test_pcs_outside_the_code_take_the_full_replay(self):
        """Falling off the end leaves the pc one past the code; a breakpoint
        there is a replay's business, not the record's."""
        program = _program(SOURCE.replace("halt", "nop"))
        golden = _golden(program)
        assert golden.checkpoints.resume(len(program), 1) is None
        counters = _check(program, golden, len(program), 1)
        assert "prefix.answered" not in counters
        state = run_to_breakpoint(program, initial_state(INPUT), len(program),
                                  golden=golden, max_steps=MAX_STEPS)
        assert state.is_running and state.pc == len(program)


# ------------------------------------------------ how the golden run ends


class TestGoldenRunEndings:
    def test_a_golden_run_that_raises(self):
        """Visits before the raise come from checkpoints; anything later
        falls back to the full replay, which raises as it always did."""
        program = _program(SOURCE.replace("halt", "check 9\n        halt"))
        golden = _golden(program)
        checkpoints = golden.checkpoints
        assert checkpoints.end is None and len(golden) == 0
        assert len(checkpoints.states) > 4
        for occurrence in (1, 300, N):
            _check(program, golden, 2, occurrence)
        assert checkpoints.resume(8, 1) is None
        _check(program, golden, 8, 1)  # stops before the raising check
        for pc in (2, 9):
            occurrence = N + 1 if pc == 2 else 1
            with pytest.raises(MachineModelError):
                run_to_breakpoint(program, initial_state(INPUT), pc,
                                  occurrence, max_steps=MAX_STEPS,
                                  golden=golden)
            with pytest.raises(MachineModelError):
                _replay(program, initial_state(INPUT), pc, occurrence)

    def test_a_golden_run_that_times_out_under_max_prefix_steps(self):
        program = _program()
        budget = 1_000
        golden = _golden(program, max_steps=budget)
        assert golden.checkpoints.end.status is Status.TIMEOUT
        for pc, occurrence in ((2, 100), (2, 330), (2, 334), (2, 400),
                               (5, 1), (8, 1)):
            _check(program, golden, pc, occurrence, max_steps=budget)
        state, counters = _counting(lambda: run_to_breakpoint(
            program, initial_state(INPUT), 2, 400, max_steps=budget,
            golden=golden))
        assert state.status is Status.TIMEOUT and state.steps == budget
        assert counters["prefix.answered"] == 1

    def test_a_detector_firing_in_the_prefix(self):
        source = SOURCE.replace(
            "        subi $1 $1 #1", "        check 2\n        subi $1 $1 #1"
        ).replace("        print $2", "        check 1\n        print $2")
        program = _program(source)
        detectors = DetectorSet.parse(
            "det(1, $(2), ==, (0))\ndet(2, $(1), >, (0))")
        golden = _golden(program, detectors)
        end = golden.checkpoints.end
        assert end.status is Status.DETECTED and end.detector_id == 1
        for pc, occurrence in ((2, 1), (3, 250), (4, N), (6, 1), (7, 1),
                               (9, 1)):
            _check(program, golden, pc, occurrence, detectors=detectors)


# ---------------------------------------------------------------- binding


class TestBinding:
    def test_another_start_budget_program_or_detector_set_replays(self):
        program = _program()
        golden = _golden(program)
        initial = initial_state(INPUT)
        assert golden.starts(program, EMPTY_DETECTORS, initial, MAX_STEPS)
        assert not golden.starts(program, EMPTY_DETECTORS, initial, 1_000)
        assert not golden.starts(_program(), EMPTY_DETECTORS, initial,
                                 MAX_STEPS)
        assert not golden.starts(program, DetectorSet(), initial, MAX_STEPS)
        for other in (initial_state((N, 9)), initial_state((N - 1, 8)),
                      initial_state(INPUT, memory={64: 1})):
            assert not golden.starts(program, EMPTY_DETECTORS, other,
                                     MAX_STEPS)
        moved = initial.copy()
        moved.steps = 1
        assert not golden.starts(program, EMPTY_DETECTORS, moved, MAX_STEPS)

    def test_an_unbound_golden_run_changes_nothing(self):
        program = _program()
        golden = _golden(program)
        for input_values in ((N, 9), (N - 1, 8)):
            for occurrence in (1, 250, N, N + 1):
                counters = _check(program, golden, 2, occurrence,
                                  input_values=input_values, bound=False)
                assert "prefix.answered" not in counters
        _check(program, golden, 2, 300, max_steps=1_000, bound=False)

    def test_a_search_layer_has_no_checkpoints(self):
        program = _program()
        golden = _golden(program)
        layer = ConcreteFutures(program, EMPTY_DETECTORS, INPUT, 1024,
                                parent=golden)
        assert layer.checkpoints is None
        assert not layer.starts(program, EMPTY_DETECTORS,
                                initial_state(INPUT), MAX_STEPS)


# -------------------------------------------------------------- telemetry


def test_campaign_telemetry_counts_replayed_and_answered_prefixes(tmp_path):
    """With the hub on, the metrics record carries ``prefix.steps`` (steps a
    prefix really ran, at most about a stride each) and ``prefix.answered``
    (never-reached breakpoints decided without running)."""
    program = _program()
    campaign = SymbolicCampaign(program, input_values=INPUT,
                                execution_config=ExecutionConfig(
                                    max_steps=MAX_STEPS),
                                max_states_per_injection=200)
    injections = [Injection(2, Location.register(2), occurrence)
                  for occurrence in (1, 300, N, N + 1)]
    injections.append(Injection(8, Location.register(2), 2))
    path = str(tmp_path / "tele.jsonl")
    obs.configure(sink=obs.JsonlEventSink(path), component="coordinator")
    try:
        result = campaign.run(any_outcome(), injections=injections)
    finally:
        obs.finalize()
        obs.set_hub(obs.NullTelemetry())
    assert [r.activated for r in result.results] == [True] * 3 + [False] * 2
    [metrics] = [event for event in obs.read_events(path)
                 if event["type"] == "metrics"]
    counters = metrics["counters"]
    assert counters["prefix.answered"] == 2
    full = sum(_replay(program, initial_state(INPUT), 2, occurrence).steps
               for occurrence in (1, 300, N))
    assert 0 < counters["prefix.steps"] < 3 * GOLDEN_MARK_STRIDE < full


# ------------------------------------------------------ one prefix path


class TestSimulator:
    def test_injected_runs_match_the_full_replay(self):
        program = _program()
        simulator = ConcreteSimulator(program, max_steps=MAX_STEPS)
        for pc in range(len(program)):
            for occurrence in (1, 2, 250, N + 1):
                injection = Injection(pc, Location.register(2), occurrence)
                run = simulator.run_with_injection(injection, 7, INPUT)
                state = _replay(program, initial_state(INPUT), pc, occurrence)
                activated = state.is_running and state.pc == pc
                if activated:
                    state.write_register(2, 7)
                    run_concrete(program, state, max_steps=MAX_STEPS)
                assert run.activated == activated
                assert _fields(run.state) == _fields(state)

    def test_bit_flips_share_one_golden_run(self, monkeypatch):
        program = _program()
        simulator = ConcreteSimulator(program, max_steps=MAX_STEPS)
        golden = simulator.golden(INPUT)
        built = []
        original = ConcreteFutures.golden.__func__
        monkeypatch.setattr(ConcreteFutures, "golden", classmethod(
            lambda cls, *a, **k: built.append(a) or original(cls, *a, **k)))
        for bit in range(8):
            run = simulator.run_with_spec(
                BitFlipFaultSpec(breakpoint_pc=3, occurrence=200, bit=bit,
                                 target=Location.register(1),
                                 model="bitflip"), INPUT)
            assert run.activated
        assert built == [] and simulator.golden(INPUT) is golden
        simulator.run_with_spec(
            BitFlipFaultSpec(breakpoint_pc=3, target=Location.register(1),
                             model="bitflip", bit=0), (N - 1, 8))
        assert len(built) == 1 and simulator.golden(INPUT) is not golden

    def test_an_unactivated_run_keeps_the_golden_terminal(self):
        program = _program()
        simulator = ConcreteSimulator(program, max_steps=1_000)
        run, counters = _counting(lambda: simulator.run_with_injection(
            Injection(5, Location.register(2)), 1, INPUT))
        assert not run.activated and run.state.status is Status.TIMEOUT
        assert counters["prefix.answered"] == 1
        expected = _replay(program, initial_state(INPUT), 5, max_steps=1_000)
        assert _fields(run.state) == _fields(expected)


# ------------------------------------------------ breakpoints must be real


@pytest.mark.parametrize("cls, extra", [
    (Injection, {}),
    (FaultSpec, {"model": "register"}),
    (BurstFaultSpec, {"model": "burst"}),
    (BitFlipFaultSpec, {"model": "bitflip", "bit": 3}),
])
@pytest.mark.parametrize("pc, occurrence", [(3, 0), (3, -1), (-1, 1)])
def test_an_occurrence_below_one_or_a_negative_pc_is_rejected(
        cls, extra, pc, occurrence):
    with pytest.raises(ValueError, match="occurrence >= 1"):
        cls(breakpoint_pc=pc, target=Location.register(1),
            occurrence=occurrence, **extra)
    assert cls(breakpoint_pc=3, target=Location.register(1), occurrence=1,
               **extra).occurrence == 1
