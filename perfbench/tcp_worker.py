"""Launch one ``repro worker`` with the benchmark's instruments installed.

``python3 perfbench/tcp_worker.py --queue tcp://HOST:PORT --stats PATH
[--probe WORKLOAD] [--spans PATH]``.  The worker runs the searches of the TCP
workload, so the host reference runs here, between injections, and every
injection is timed.  With ``--probe`` the workload's set-up probes run here
too, spread over the campaign.  With ``--spans`` the per-layer wrappers are
installed before the worker entry point is called.  Prints ``ready`` once set
up; on exit writes the timings, reference loops, set-up times and peak RSS
to ``--stats`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

sys.path.insert(0, os.path.join(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))), "src"))

from hostref import HostClock  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--queue", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--probe", default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    from repro.core.campaign import SymbolicCampaign
    from repro.distributed.worker import WorkerConfig, run_worker

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    probes = None
    if args.probe:
        from setup_probe import SetupProbes
        from workloads import WORKLOADS
        probes = SetupProbes(WORKLOADS[args.probe])

    clock = HostClock(pause=probes)
    run_injection = SymbolicCampaign.run_injection

    def timed_injection(*call_args, **call_kwargs):
        result = run_injection(*call_args, **call_kwargs)
        clock.tick()
        return result

    SymbolicCampaign.run_injection = timed_injection
    clock.start()
    before_run = clock.paused_seconds
    print("ready", flush=True)
    run_worker(WorkerConfig(queue_dir=args.queue, poll_interval=0.01,
                            max_idle_seconds=60.0))
    # Pauses between injections fall inside the coordinator's measured
    # interval; the first reference loop and the last pause fall outside it.
    paused_seconds = clock.paused_seconds - before_run
    clock.stop()
    SymbolicCampaign.run_injection = run_injection
    setup_times = probes.finish() if probes is not None else []
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.spans, {"process": "worker"})
    with open(args.stats, "w", encoding="utf-8") as out:
        json.dump({"samples": clock.samples, "refs": clock.refs,
                   "raw_seconds": clock.raw_seconds,
                   "norm_seconds": clock.norm_seconds,
                   "paused_seconds": paused_seconds,
                   "setup_times": setup_times,
                   "peak_rss_kb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
