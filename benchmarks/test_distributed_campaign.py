"""DIST — Section 6.1: campaigns as broker-distributed tasks (PR 3).

The distributed backend must be a drop-in for the serial sweep: identical
per-injection results, in the same order, on the programs the paper
evaluates.  These benches run the tcas and replace campaign subsets (the
fixtures of ``test_parallel_campaign.py``) through real standalone worker
processes and a filesystem broker, and additionally kill-and-resume them
through the results store.
"""

import pytest

from repro.distributed import DistributedConfig, run_campaign_distributed
from repro.core import SerialExecutionStrategy
from repro.results import RecordingStrategy, SqliteResultStore

from test_parallel_campaign import (equivalence_key, replace_campaign,
                                    tcas_campaign)

WORKERS = 2


@pytest.mark.benchmark(group="distributed")
@pytest.mark.parametrize("make_campaign", [tcas_campaign, replace_campaign],
                         ids=["tcas", "replace"])
def test_distributed_matches_serial_on_paper_benchmarks(benchmark,
                                                        make_campaign):
    workload, campaign, injections, spec = make_campaign()
    golden = workload.golden_output()
    query = spec.build()

    serial = campaign.run(query, injections=injections)
    distributed = benchmark.pedantic(
        run_campaign_distributed, rounds=1, iterations=1,
        args=(campaign, spec),
        kwargs=dict(injections=injections,
                    config=DistributedConfig(workers=WORKERS, chunk_size=2,
                                             poll_interval=0.02,
                                             wall_clock_timeout=600.0)))

    assert equivalence_key(distributed, golden) == equivalence_key(serial,
                                                                   golden)
    assert distributed.injections_run == len(injections)
    print(f"\n[DIST] {workload.name}: {len(injections)} injections, "
          f"serial {serial.elapsed_seconds:.2f}s vs {WORKERS} distributed "
          f"workers {distributed.elapsed_seconds:.2f}s; "
          f"{distributed.total_solutions} solutions, identical to serial")


@pytest.mark.benchmark(group="distributed")
@pytest.mark.parametrize("make_campaign", [tcas_campaign, replace_campaign],
                         ids=["tcas", "replace"])
def test_interrupted_resume_is_identical(benchmark, make_campaign, tmp_path):
    """A campaign killed mid-sweep resumes to serial-identical results."""
    workload, campaign, injections, spec = make_campaign()
    golden = workload.golden_output()
    query = spec.build()
    store = SqliteResultStore(str(tmp_path / "results.sqlite"))

    serial = campaign.run(query, injections=injections)
    # The "killed" first attempt: only part of the sweep reaches the store.
    campaign.run(query, injections=injections[:len(injections) // 2],
                 strategy=RecordingStrategy(SerialExecutionStrategy(), store))

    def resume():
        strategy = RecordingStrategy(SerialExecutionStrategy(), store,
                                     resume=True)
        return campaign.run(query, injections=injections, strategy=strategy)

    resumed = benchmark.pedantic(resume, rounds=1, iterations=1)
    assert equivalence_key(resumed, golden) == equivalence_key(serial, golden)
    store.close()
    print(f"\n[DIST] {workload.name}: resume over "
          f"{len(injections) // 2} stored injections, identical to serial")
