"""The campaign benchmark, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of :mod:`workloads` through the public campaign API,
checks every verdict against the pins in ``pinned.json`` and prints every
metric by name and unit; the last line of standard output is one JSON
object.  ``--trace 0`` measures the end-to-end metrics with nothing
instrumented.  ``--trace 1`` makes one untraced and one traced run of the
same work, reports the per-layer metrics and the tracing overhead, and
writes the spans to ``.perfbench/spans-NAME.spans`` (the worker's, on TCP,
to ``spans-NAME.worker.spans``) for ``perfbench/profile.py``.

``--seed`` picks where in the injection sample the sweep starts; the sample
itself is fixed (see :data:`workloads.SAMPLE_SEED`), so every seed measures
the same work and must produce the pinned verdicts.  ``--pin`` recomputes
the pins of the workload instead of measuring.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict, deque

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, worker stats and spans (inside the checkout).
OUT = os.path.join(ROOT, ".perfbench")
PINS = os.path.join(HERE, "pinned.json")

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

from hostref import HostClock  # noqa: E402
from setup_probe import SetupProbes  # noqa: E402
from workloads import (TCP_CHUNK_SIZE, WORKLOADS, aggregates,  # noqa: E402
                       build, verdict_code)


def percentile(samples, q: float):
    """Smoothed ``q``-percentile and the number of samples beyond it.

    A weighted mean of the order statistics with Gaussian weights over rank,
    centred on rank ``q * (n + 1)`` with the order statistic's own standard
    deviation, ``sqrt(n q (1 - q))`` ranks: a normal approximation of the
    Harrell-Davis estimator.  Verdict times cluster by injection kind, and a
    single order statistic jumps between clusters from run to run.
    Refuses (returns ``None``) when fewer than :data:`MIN_BEYOND` samples lie
    beyond rank ``ceil(q * n)``.
    """
    ordered = sorted(samples)
    count = len(ordered)
    beyond = count - max(1, math.ceil(q * count))
    if beyond < MIN_BEYOND:
        return None, beyond
    centre = q * (count + 1)
    width = math.sqrt(count * q * (1 - q))
    weights = [math.exp(-0.5 * ((rank - centre) / width) ** 2)
               for rank in range(1, count + 1)]
    value = sum(w * x for w, x in zip(weights, ordered)) / sum(weights)
    return value, beyond


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


class Pass:
    """One campaign over the whole sample, starting at one point of it."""

    def __init__(self, injections, order) -> None:
        self.injections = [injections[index] for index in order]
        self.order = order
        self.norm_seconds = self.raw_seconds = 0.0
        self.samples = []
        self.refs = []
        self.setup_times = []
        self.results = []
        self.cache = None
        self.peak_rss_kb = 0
        self.store = None
        self.store_aggregates = None
        self.counts = Counter()


def checked_serial_strategy(cache):
    """A serial strategy that leaves an injection that raises without a
    result: the check then counts it as failed, and the run goes on."""
    from repro.core.campaign import SerialExecutionStrategy

    class CheckedSerialStrategy(SerialExecutionStrategy):
        def run(self, campaign, injections, query, progress=None):
            results = []
            for index, injection in enumerate(injections):
                try:
                    result = campaign.run_injection(
                        injection, query, result_cache=self.result_cache)
                except Exception:
                    traceback.print_exc()
                    result = None
                else:
                    if self.retain_results:
                        results.append(result)
                    self.emit_result(injection, result)
                if progress is not None:
                    progress(index + 1, len(injections), result)
            return results

    return CheckedSerialStrategy(result_cache=cache)


def serial_pass(workload, campaign, query, golden, run: Pass,
                probes: bool = False) -> None:
    from repro.parallel.spec import CacheSpec

    cache = CacheSpec().build()
    strategy = checked_serial_strategy(cache)
    store = None
    if workload.store:
        from repro.results.recording import RecordingStrategy
        from repro.results.store import SqliteResultStore
        store = SqliteResultStore(os.path.join(tempfile.mkdtemp(),
                                               "results.sqlite"))
        strategy = RecordingStrategy(strategy, store, golden_output=golden,
                                     meta={"workload": workload.name})
    schedule = SetupProbes(workload) if probes else None
    clock = HostClock(pause=schedule)
    clock.start()
    result = campaign.run(query, injections=run.injections,
                          progress=lambda done, total, last: clock.tick(),
                          strategy=strategy)
    clock.stop()
    if schedule is not None:
        run.setup_times = schedule.finish()
    run.results = result.results
    if store is not None:
        run.store_aggregates = strategy.aggregates
        run.store = store
    run.cache = cache.statistics
    run.norm_seconds, run.raw_seconds = clock.norm_seconds, clock.raw_seconds
    run.samples, run.refs = clock.samples, clock.refs
    run.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def tcp_pass(workload, campaign, query, golden, run: Pass,
             probes: bool = False, worker_spans=None) -> None:
    """The campaign through ``repro broker`` on loopback and one worker.

    The worker runs the searches, so it runs the host reference and the
    set-up probes, and times the injections (see ``tcp_worker.py``).  The
    coordinator's wall time, less the worker's pauses, is scaled by the
    worker's normalised/raw ratio.
    """
    from repro.distributed.strategy import (DistributedConfig,
                                            DistributedExecutionStrategy)
    from repro.parallel.spec import QuerySpec

    stats_path = os.path.join(tempfile.mkdtemp(), "worker-stats.json")
    env = subprocess_env()
    broker = subprocess.Popen(
        [sys.executable, "-m", "repro", "broker", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env)
    try:
        line = broker.stdout.readline()
        if "broker listening on " not in line:
            raise RuntimeError(f"broker failed to start: {line!r}")
        url = line.split("broker listening on ", 1)[1].strip()
        command = [sys.executable, os.path.join(HERE, "tcp_worker.py"),
                   "--queue", url, "--stats", stats_path]
        if probes:
            command += ["--probe", workload.name]
        if worker_spans:
            command += ["--spans", worker_spans]
        worker = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                  env=env)
        try:
            if worker.stdout.readline().strip() != "ready":
                raise RuntimeError("worker failed to start")
            printed = [item for item in golden if isinstance(item, int)]
            strategy = DistributedExecutionStrategy(
                QuerySpec.predefined(workload.query, golden_output=golden,
                                     expected_value=printed[-1]
                                     if printed else None),
                DistributedConfig(workers=0, queue_dir=url,
                                  chunk_size=TCP_CHUNK_SIZE,
                                  poll_interval=0.01,
                                  # A worker that died leaves the sweep
                                  # unfinished: give up rather than wait.
                                  wall_clock_timeout=120.0))
            started = time.perf_counter()
            result = campaign.run(query, injections=run.injections,
                                  strategy=strategy)
            wall = time.perf_counter() - started
            worker.wait(timeout=120)
        finally:
            _stop(worker)
    finally:
        _stop(broker)
    with open(stats_path, encoding="utf-8") as handle:
        stats = json.load(handle)
    run.results = result.results
    run.cache = strategy.cache_statistics
    run.raw_seconds = wall - stats["paused_seconds"]
    run.norm_seconds = (run.raw_seconds * stats["norm_seconds"]
                        / stats["raw_seconds"])
    run.samples, run.refs = stats["samples"], stats["refs"]
    run.setup_times = stats["setup_times"]
    run.peak_rss_kb = stats["peak_rss_kb"]


def sweep_order(count: int, rng: random.Random) -> list:
    """Plan indices ``start, start + stride, start + 2 stride, ...`` mod n.

    The seed only picks ``start``, so every injection follows the same
    predecessor on every run: an injection's time depends on what ran just
    before it (allocator and cache state after a long search).  The stride,
    coprime with n and near n / golden ratio, spreads injections that are
    neighbours in the plan, and alike, over the whole run, so no percentile
    rests on one stretch of host speed.
    """
    stride = max(1, round(count * 0.618))
    while math.gcd(stride, count) != 1:
        stride += 1
    start = rng.randrange(count)
    return [(start + step * stride) % count for step in range(count)]


def run_passes(workload, campaign, query, golden, injections, seed: int,
               passes: int, probes: bool = False, worker_spans=None) -> list:
    runs = []
    for index in range(passes):
        order = sweep_order(len(injections),
                            random.Random(f"{seed}:{index}"))
        run = Pass(injections, order)
        if workload.tcp:
            tcp_pass(workload, campaign, query, golden, run, probes,
                     worker_spans)
        else:
            serial_pass(workload, campaign, query, golden, run, probes)
        runs.append(run)
    return runs


def verdicts(run: Pass, golden) -> list:
    """The pass's verdict codes in plan order (``None`` where missing).

    Results are matched to injections by label, so a missing result leaves
    one gap.  Also counts the searches' states and stop reasons into
    ``run.counts``.
    """
    from repro.results.aggregates import classify_result

    positions = defaultdict(deque)
    for position, injection in enumerate(run.injections):
        positions[injection.label()].append(position)
    codes = [None] * len(run.order)
    for result in run.results:
        waiting = positions.get(result.injection.label())
        if not waiting:
            continue
        codes[run.order[waiting.popleft()]] = verdict_code(
            result, classify_result(result, golden))
        if result.activated:
            statistics_ = result.search.statistics
            run.counts["states"] += statistics_.explored_states
            run.counts["deduplicated"] += statistics_.deduplicated_states
            run.counts[result.search.stop_reason] += 1
    return codes


def pins_for(workload) -> dict:
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    if workload.pin not in pins:
        raise SystemExit(f"no pinned verdicts for {workload.pin}; make them "
                         f"with --pin")
    return pins[workload.pin]


def check(workload, runs, golden, pinned) -> tuple:
    """Compare every pass with the pins: (attempted, failed, ok, codes)."""
    attempted = failed = 0
    ok = True
    codes = []
    for run in runs:
        codes = verdicts(run, golden)
        attempted += len(codes)
        failed += sum(1 for got, want in zip(codes, pinned["verdicts"])
                      if got != want)
        ok = ok and aggregates(codes) == pinned["aggregates"]
        store = run.store_aggregates
        if store is not None:
            want = pinned["aggregates"]
            ok = ok and (store.injections_run, store.injections_activated,
                         store.injections_completed,
                         store.injections_with_solutions) == (
                want["injections"], want["activated"], want["decided"],
                want["with_solutions"])
            run.store.close()
    return attempted, failed, ok and failed == 0, codes


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, runs, codes) -> dict:
    setup_times = [seconds for run in runs for seconds in run.setup_times]
    samples = [sample for run in runs for sample in run.samples]
    injections = sum(len(run.injections) for run in runs)
    norm = sum(run.norm_seconds for run in runs)
    refs = [ref for run in runs for ref in run.refs]
    p50, beyond50 = percentile(samples, 0.50)
    p90, beyond90 = percentile(samples, 0.90)
    p99, beyond99 = percentile(samples, 0.99)
    for name, value, beyond in (("p50", p50, beyond50), ("p90", p90, beyond90)):
        if value is None:
            raise SystemExit(f"refusing verdict_ms_{name}: {beyond} samples "
                             f"beyond it, {MIN_BEYOND} needed")
    decided = aggregates(codes)["decided"]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "injections_per_s": metric(injections / norm, "1/s"),
        "verdict_ms_p50": metric(p50 * 1e3, "ms"),
        "verdict_ms_p90": metric(p90 * 1e3, "ms"),
        "peak_rss_mb": metric(max(run.peak_rss_kb for run in runs) / 1024,
                              "MiB"),
        "decided_frac": metric(decided / len(codes), "fraction"),
    }
    notes = {
        "setup_s": f"median of n={len(setup_times)} fresh processes "
                   f"spread over the run",
        "injections_per_s": f"n={injections} in {norm:.3f} normalised s "
                            f"({sum(run.raw_seconds for run in runs):.3f} "
                            f"raw; reference loop median "
                            f"{1e3 * statistics.median(refs):.2f} ms)",
        "verdict_ms_p50": f"n={len(samples)}, {beyond50} beyond",
        "verdict_ms_p90": f"n={len(samples)}, {beyond90} beyond",
        "peak_rss_mb": ("worker process" if workload.tcp
                        else "benchmark process"),
        "decided_frac": f"{decided}/{len(codes)} verdicts definite",
    }
    for name, data in metrics.items():
        print(f"{name:<18} {data['value']:>12.4f} {data['unit']:<8} "
              f"{notes[name]}")
    if p99 is not None:
        print(f"{'verdict_ms_p99':<18} {p99 * 1e3:>12.4f} {'ms':<8} "
              f"n={len(samples)}, {beyond99} beyond (not gated)")
    return metrics


def per_layer(untraced, traced, tables, net_bytes) -> dict:
    from tracing import summarise

    table, nesting = {}, {}
    coordinator_decode = worker_decode = 0.0
    for process, (names, columns) in tables.items():
        rows, pairs = summarise(names, columns)
        decode = rows.pop("decode.build", [0, 0.0, 0.0])[2]
        if process == "worker":
            worker_decode += decode
        else:
            coordinator_decode += decode
        for name, row in rows.items():
            total = table.setdefault(name, [0, 0.0, 0.0])
            for column in range(3):
                total[column] += row[column]
        for pair, count in pairs.items():
            nesting[pair] = nesting.get(pair, 0) + count
    scale = (sum(run.norm_seconds for run in traced)
             / sum(run.raw_seconds for run in traced))

    def calls(name):
        return table.get(name, [0, 0.0, 0.0])[0]

    def self_s(*names):
        return scale * sum(table.get(name, [0, 0.0, 0.0])[2]
                           for name in names)

    counts = sum((run.counts for run in traced), Counter())
    lookups = nesting.get(("dedup.fingerprint", "search"), 0)
    hits = sum(run.cache.hits for run in traced)
    cache_lookups = sum(run.cache.lookups for run in traced)
    broker_ops = [name for name in table if name.startswith("broker.")]
    rate = {label: (sum(len(run.injections) for run in runs)
                    / sum(run.norm_seconds for run in runs))
            for label, runs in (("untraced", untraced), ("traced", traced))}
    values = {
        "lang.build_s": (self_s("lang.build"), "s"),
        "decode.build_s": (scale * coordinator_decode, "s"),
        "decode.worker_s": (scale * worker_decode, "s"),
        "faults.plan_s": (self_s("faults.plan"), "s"),
        "prefix.self_s": (self_s("prefix"), "s"),
        "prefix.calls": (calls("prefix"), "count"),
        "search.self_s": (self_s("search"), "s"),
        "search.states": (counts["states"], "count"),
        "search.stop.budget": (counts["state budget exhausted"], "count"),
        "search.stop.exhausted": (counts["exhausted"], "count"),
        "cache.hit_ratio": (hits / cache_lookups if cache_lookups else 0.0,
                            "ratio"),
        "step.self_s": (self_s("step"), "s"),
        "step.calls": (calls("step"), "count"),
        "concrete_tail.self_s": (self_s("concrete_tail"), "s"),
        "concrete_tail.calls": (calls("concrete_tail"), "count"),
        "constraints.self_s": (self_s("constraints"), "s"),
        "constraints.calls": (calls("constraints"), "count"),
        "dedup.fingerprint_s": (self_s("dedup.fingerprint"), "s"),
        "dedup.eq_s": (self_s("dedup.eq"), "s"),
        "dedup.eq_calls": (calls("dedup.eq"), "count"),
        "dedup.hit_ratio": (counts["deduplicated"] / lookups
                            if lookups else 0.0, "ratio"),
        "results.append_s": (self_s("results.append"), "s"),
        "results.flush_s": (self_s("results.flush"), "s"),
        "results.rows": (calls("results.append"), "count"),
        "broker.self_s": (self_s(*broker_ops), "s"),
        "broker.roundtrips": (calls("net.send"), "count"),
        "net.self_s": (self_s("net.send", "net.recv"), "s"),
        "net.bytes": (net_bytes, "B"),
        "host.ref_ms": (1e3 * statistics.median(
            ref for run in untraced + traced for ref in run.refs), "ms"),
        "host.wall_s": (sum(run.raw_seconds for run in untraced), "s"),
        "trace.untraced_injections_per_s": (rate["untraced"], "1/s"),
        "trace.traced_injections_per_s": (rate["traced"], "1/s"),
        "trace.overhead_frac": (rate["untraced"] / rate["traced"] - 1,
                                "fraction"),
    }
    for name, (value, unit) in values.items():
        print(f"{name:<32} {value:>14.4f} {unit}")
    return {name: metric(value, unit)
            for name, (value, unit) in values.items()}


def traced_run(workload, args, passes: int) -> dict:
    from tracing import Tracer, load_spans

    tracer = Tracer()
    tracer.install()
    program, campaign, query, injections = build(workload)
    tracer.uninstall()
    golden = program.golden_output()
    untraced = run_passes(workload, campaign, query, golden, injections,
                          args.seed, passes)
    spans_path = os.path.join(OUT, f"spans-{workload.name}.spans")
    worker_spans = (spans_path.replace(".spans", ".worker.spans")
                    if workload.tcp else None)
    tracer.install()
    try:
        traced = run_passes(workload, campaign, query, golden, injections,
                            args.seed, passes, worker_spans=worker_spans)
    finally:
        tracer.uninstall()
    tracer.write(spans_path, {"process": "coordinator",
                              "workload": workload.name, "seed": args.seed})
    print(f"spans: {spans_path}" + (f" and {worker_spans}"
                                    if worker_spans else ""))
    tables = {"coordinator": (tracer.names, tracer.columns)}
    net_bytes = tracer.net_bytes
    if worker_spans:
        header, names, columns = load_spans(worker_spans)
        tables["worker"] = (names, columns)
        net_bytes += header["net_bytes"]
    attempted, failed, ok, _ = check(workload, untraced + traced, golden,
                                     pins_for(workload))
    metrics = per_layer(untraced, traced, tables, net_bytes)
    return {"correct": ok, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def measured_run(workload, args, passes: int) -> dict:
    pinned = pins_for(workload)
    program, campaign, query, injections = build(workload)
    golden = program.golden_output()
    runs = run_passes(workload, campaign, query, golden, injections,
                      args.seed, passes, probes=True)
    attempted, failed, ok, codes = check(workload, runs, golden, pinned)
    print(f"check: {attempted} verdicts, {failed} differ from the pins; "
          f"aggregates {'match' if ok else 'DO NOT match'}")
    metrics = end_to_end(workload, runs, codes)
    return {"correct": ok, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def pin(workload) -> int:
    """Recompute the pinned verdicts of *workload* (one plain serial run)."""
    program, campaign, query, injections = build(workload)
    golden = program.golden_output()
    run = Pass(injections, list(range(len(injections))))
    serial_pass(workload, campaign, query, golden, run)
    codes = verdicts(run, golden)
    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as handle:
            pins = json.load(handle)
    pins[workload.pin] = {"aggregates": aggregates(codes), "verdicts": codes}
    with open(PINS, "w", encoding="utf-8") as out:
        json.dump(pins, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"pinned {workload.pin}: {aggregates(codes)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="where in the sample the sweep starts")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="normalised seconds to measure; whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="recompute this workload's pinned verdicts")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    # Stores, queues, worker logs and every child's temporary files stay
    # inside the checkout.
    tempfile.tempdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    os.environ["TMPDIR"] = tempfile.tempdir
    workload = WORKLOADS[args.workload]
    try:
        if args.pin:
            return pin(workload)
        passes = max(1, int(args.seconds // workload.pass_seconds))
        print(f"workload {workload.name}: {passes} pass(es), seed "
              f"{args.seed}", flush=True)
        run = traced_run if args.trace else measured_run
        report = run(workload, args, passes)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(tempfile.tempdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
