"""STATE — microbenchmarks for the per-fork hot path of the symbolic search.

The symbolic executor forks one successor per feasible error resolution, and
the bounded model checker fingerprints every successor for deduplication
(paper Sections 5.2/5.4).  Both used to be O(state-size) per fork; the
copy-on-write state makes them O(written-locations) / O(1).  These benches
pin the two costs on a replace-sized state (hundreds of memory words) so a
regression of the structural-sharing layer shows up as a step change.

``data/state_hotpath_bench.json`` records the committed before/after
end-to-end evidence: the same replace campaign fell from ~12s (seed state
layer) to ~4s with byte-identical results.
"""

import json
import statistics
import time
from pathlib import Path

import pytest

from repro import obs
from repro.machine import Status, run_concrete, run_concrete_legacy
from repro.machine.executor import ExecutionConfig, Executor
from repro.machine.state import initial_state
from repro.programs import load_workload

BENCH_RECORD = Path(__file__).resolve().parent / "data" / "state_hotpath_bench.json"

#: Memory footprint comparable to the replace benchmark's data segment.
MEMORY_WORDS = 600


def make_replace_sized_state():
    state = initial_state(memory={addr: (addr * 7) % 256
                                  for addr in range(MEMORY_WORDS)})
    for register in range(1, 12):
        state.write_register(register, register * 3)
    for item in range(20):
        state.append_output(item)
    return state


@pytest.mark.benchmark(group="state-hotpath")
def test_fork_copy_cost(benchmark):
    """copy() in fork steady state: a parent with a small dirty overlay."""
    state = make_replace_sized_state().copy()
    state.write_register(5, 1)
    state.write_memory(3, 9)

    clone = benchmark(state.copy)

    assert clone.read_memory(3) == 9
    assert clone.read_register(5) == 1
    # The clone shares the base: forking did not clone the whole memory.
    assert clone.memory._base is state.memory._base


@pytest.mark.benchmark(group="state-hotpath")
def test_fingerprint_dedup_miss_cost(benchmark):
    """fingerprint() + seen-set miss — the per-successor dedup price."""
    state = make_replace_sized_state()
    seen = set()
    counter = iter(range(10_000_000))

    def dedup_new_state():
        # Each round is a genuinely new state, as in a running search.
        state.write_register(4, next(counter))
        fingerprint = state.fingerprint()
        assert fingerprint not in seen
        seen.add(fingerprint)

    benchmark(dedup_new_state)


@pytest.mark.benchmark(group="state-hotpath")
def test_fingerprint_dedup_hit_cost(benchmark):
    """fingerprint() + seen-set hit (structural confirmation on hash match)."""
    state = make_replace_sized_state()
    seen = {state.fingerprint()}

    def dedup_duplicate_state():
        assert state.fingerprint() in seen

    benchmark(dedup_duplicate_state)


# --------------------------------------------------------------------------
# INTERP — stepping hot path (pre-decoded dispatch, superblocks).
#
# The golden factorial run is short (~36 instructions), so each benchmark
# round times one complete decode-cache-warm execution: per-instruction
# dispatch cost dominates and a regression of the decoded tables or the
# superblock planner shows up as a step change.  The legacy variant is kept
# as the in-run reference point: decoded must stay well under it.

@pytest.fixture(scope="module")
def factorial_workload():
    return load_workload("factorial")


@pytest.mark.benchmark(group="interp-hotpath")
def test_concrete_run_decoded_cost(benchmark, factorial_workload):
    """Superblock-fused ``run_concrete`` over the factorial golden run."""
    workload = factorial_workload

    def golden_run():
        state = workload.initial_state()
        run_concrete(workload.program, state, workload.detectors,
                     workload.recommended_max_steps)
        return state

    state = benchmark(golden_run)
    assert not state.is_running


@pytest.mark.benchmark(group="interp-hotpath")
def test_concrete_run_legacy_cost(benchmark, factorial_workload):
    """The legacy string-dispatch ``run_concrete_legacy`` reference."""
    workload = factorial_workload

    def golden_run():
        state = workload.initial_state()
        run_concrete_legacy(workload.program, state, workload.detectors,
                            workload.recommended_max_steps)
        return state

    state = benchmark(golden_run)
    assert not state.is_running


@pytest.mark.benchmark(group="interp-hotpath")
def test_concrete_run_replace_cost(benchmark):
    """``run_concrete`` over the replace golden run.

    About 11,400 instructions per round, mostly the stack-frame ``ldi`` /
    ``sti`` traffic that also fills the err-free tails of a replace
    campaign, so the superblock bodies dominate the time rather than the
    per-call overhead the 36-instruction factorial run measures.
    """
    workload = load_workload("replace")
    expected = workload.golden_output()

    def golden_run():
        state = workload.initial_state()
        run_concrete(workload.program, state, workload.detectors,
                     workload.recommended_max_steps)
        return state

    state = benchmark(golden_run)
    assert state.status is Status.HALTED
    assert state.output_values() == expected


@pytest.mark.benchmark(group="interp-hotpath")
def test_symbolic_search_tcas_memory_cost(benchmark):
    """One tcas memory-fault search: memory word 1006 holds ``err`` from
    the first visit to pc 11 on.

    About 3,100 search states, nearly all chain states (only successors
    that fall through to an unlabelled pc and still hold ``err``), so
    the time is the chained lineage between merge points: superblocks
    where no register holds ``err``, single steps where one does.
    """
    from repro.core import BoundedModelChecker
    from repro.core.campaign import prepare_injected_state

    workload = load_workload("tcas")
    campaign, query = workload.campaign(kind="err-output",
                                        fault_model="memory",
                                        max_states_per_injection=5000)
    [injection] = [injection for injection in campaign.plan_injections()
                   if injection.breakpoint_pc == 11
                   and injection.target.index == 1006]
    golden = campaign.golden_futures()
    state = prepare_injected_state(
        workload.program, injection, campaign.fresh_initial_state(),
        detectors=workload.detectors,
        max_prefix_steps=campaign.execution_config.max_steps, golden=golden)
    executor = Executor(workload.program, workload.detectors,
                        campaign.execution_config)
    checker = BoundedModelChecker(executor, max_states=5000, golden=golden)

    result = benchmark(checker.search, [state], query)
    assert result.completed
    assert result.statistics.explored_states > 3000


@pytest.mark.benchmark(group="interp-hotpath")
def test_symbolic_search_replace_register_cost(benchmark):
    """One replace register-fault search: the stack pointer ``$29`` holds
    ``err`` from the first visit to pc 980, and the search stops at a
    1,000-state budget.

    Every load and store through ``$29`` forks over memory, so the
    frontier outgrows the budget long before the last pop: this times
    a budget-cut search, where the pops past the settled cut step
    nothing, as 110 of the replace register sweep's searches end.
    """
    from repro.core import BoundedModelChecker
    from repro.core.campaign import prepare_injected_state

    workload = load_workload("replace")
    campaign, query = workload.campaign(kind="err-output",
                                        fault_model="register",
                                        max_states_per_injection=1000)
    [injection] = [injection for injection in campaign.plan_injections()
                   if injection.breakpoint_pc == 980
                   and injection.target.index == 29]
    golden = campaign.golden_futures()
    state = prepare_injected_state(
        workload.program, injection, campaign.fresh_initial_state(),
        detectors=workload.detectors,
        max_prefix_steps=campaign.execution_config.max_steps, golden=golden)
    executor = Executor(workload.program, workload.detectors,
                        campaign.execution_config)
    checker = BoundedModelChecker(executor, max_states=1000, golden=golden)

    result = benchmark(checker.search, [state], query)
    assert result.stop_reason == "state budget exhausted"
    assert result.statistics.explored_states == 1000


def symbolic_golden_run(workload, executor):
    state = workload.initial_state()
    while state.is_running:
        [state] = executor.step(state)
    return state


@pytest.mark.benchmark(group="interp-hotpath")
def test_symbolic_step_decoded_cost(benchmark, factorial_workload):
    """``Executor.step`` through the decoded dispatch table (golden path)."""
    workload = factorial_workload
    executor = Executor(workload.program, workload.detectors,
                        ExecutionConfig(
                            max_steps=workload.recommended_max_steps))

    state = benchmark(symbolic_golden_run, workload, executor)
    assert not state.is_running


#: Rounds and golden runs per batch of the interleaved overhead ratio.
OVERHEAD_ROUNDS = 41
OVERHEAD_BATCH = 40


def interleaved_overhead(plain_run, traced_run, hub):
    """Median per-round ratio of enabled- to disabled-telemetry time.

    Each round times a batch of plain runs under the null hub and a batch
    of traced runs under *hub*, back to back, alternating which goes
    first.  A change of host speed between rounds cancels out of every
    ratio, and one within a round moves only that round's ratio, which
    the median discards.
    """
    null_hub = obs.NullTelemetry()

    def timed(run, active_hub):
        obs.set_hub(active_hub)
        started = time.perf_counter()
        for _ in range(OVERHEAD_BATCH):
            run()
        return time.perf_counter() - started

    ratios = []
    for round_index in range(OVERHEAD_ROUNDS):
        if round_index % 2:
            disabled = timed(plain_run, null_hub)
            enabled = timed(traced_run, hub)
        else:
            enabled = timed(traced_run, hub)
            disabled = timed(plain_run, null_hub)
        ratios.append(enabled / disabled)
    return statistics.median(ratios)


@pytest.mark.benchmark(group="interp-hotpath")
def test_symbolic_step_telemetry_enabled_cost(benchmark, factorial_workload):
    """``Executor.step`` with an *enabled* telemetry hub wrapping each run.

    Telemetry must be cheap even when on: instrumentation reads step
    counters at search epilogues, never per instruction, so the only
    per-run additions are one span and two counter updates.  The CI gate
    (``telemetry_overhead`` in ``check_state_hotpath.py``) reads the
    ``overhead_ratio`` this test records, :func:`interleaved_overhead`
    against the plain decoded run, and allows <= 3% overhead.
    """

    class DiscardSink:
        """Bounds the pending-event buffer without I/O in the timed loop."""

        def write(self, event):
            pass

        def close(self):
            pass

    workload = factorial_workload
    executor = Executor(workload.program, workload.detectors,
                        ExecutionConfig(
                            max_steps=workload.recommended_max_steps))
    hub = obs.configure(sink=DiscardSink(), component="bench")

    def plain_run():
        return symbolic_golden_run(workload, executor)

    def traced_run():
        with hub.span("search.solve"):
            steps_before = executor.steps_executed
            state = symbolic_golden_run(workload, executor)
            hub.count("search.runs")
            hub.count("executor.steps",
                      executor.steps_executed - steps_before)
        return state

    try:
        state = benchmark(traced_run)
        benchmark.extra_info["overhead_ratio"] = interleaved_overhead(
            plain_run, traced_run, hub)
    finally:
        obs.set_hub(obs.NullTelemetry())
    assert not state.is_running
    assert hub.counters["search.runs"] > 0


def test_recorded_campaign_speedup_is_at_least_2x():
    """The committed before/after record must show the promised >=2x."""
    record = json.loads(BENCH_RECORD.read_text())
    before = min(record["before"]["wall_clock_seconds"])
    after = max(record["after"]["wall_clock_seconds"])
    assert before / after >= 2.0, record
    print("\n[STATE] recorded replace-campaign wall-clock: "
          f"before={record['before']['wall_clock_seconds']}s "
          f"after={record['after']['wall_clock_seconds']}s "
          f"(speedup {before / after:.2f}x, results byte-identical)")
