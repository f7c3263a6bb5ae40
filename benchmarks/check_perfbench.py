#!/usr/bin/env python
"""CI gate and trajectory point for the campaign benchmark (``perfbench/``).

Each input is the standard output of one ``perfbench/run.py`` run, in a
file named after its workload; the last line is the run's JSON result::

    for W in replace-control replace-register tcas-memory-warehouse \\
             tcas-memory-tcp; do
        python3 perfbench/run.py --workload $W --seed 1 --seconds 20 \\
            --trace 0 > $W.out
    done
    python benchmarks/check_perfbench.py *.out

The script writes ``BENCH_<sha>.json`` (schema 2) to the working directory
and fails when a workload of ``BENCHMARK.json`` has no run, a run has a
wrong verdict or a failed injection, an end-to-end metric is missing, or
an end-to-end metric is worse than the baseline by more than its
``BENCHMARK.json`` bound.  The baseline is the newest committed schema-2
point under ``benchmarks/data/trajectory/`` (by ``created``) recorded by
the same runner (``ci`` under GitHub Actions, ``local`` elsewhere), so CI
numbers are never compared with numbers from another host.  Without one,
the gate passes.

A committed ``local`` point was measured in another session, perhaps on
another host, so host drift alone can move it past a bound.  A local run
is therefore gated against runs of the parent commit made in the same
session when they are given, as files named ``<workload>.parent.out``
(the same ``perfbench/run.py`` command run in a checkout of the parent)::

    python benchmarks/check_perfbench.py *.out   # W.out and W.parent.out

A workload without a parent run falls back to the committed point.  The
CI runner always gates against its committed ``ci`` point.

Either side may hold several runs of a workload, numbered ``W.<n>.out``
and ``W.<n>.parent.out``; every run must pass the verdict checks, and each
metric is gated on its median over the runs of each side (one run per side
is gated on that run alone).  Any other file name is rejected.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_DIR = ROOT / "benchmarks" / "data" / "trajectory"
SCHEMA_VERSION = 2
#: ``W.out``, ``W.<n>.out``, ``W.parent.out`` and ``W.<n>.parent.out``.
RUN_NAME = re.compile(r"(?P<workload>[^.]+)(\.\d+)?(?P<parent>\.parent)?\.out")


def load_run(path: str):
    """The JSON result on the last line of a run's output, or ``None``."""
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
        run = json.loads(lines[-1]) if lines else None
    except (OSError, ValueError):
        return None
    return run if isinstance(run, dict) else None


def medians(results) -> dict:
    """Each metric's median over *results*, for the metrics every one has."""
    series = [{name: data["value"] for name, data
               in result.get("metrics", {}).items()} for result in results]
    return {name: statistics.median(values[name] for values in series)
            for name in series[0] if all(name in values for values in series)}


def baseline_point(runner: str):
    """The newest committed schema-2 point of *runner*, or ``None``."""
    points = []
    for path in sorted(TRAJECTORY_DIR.glob("BENCH_*.json")):
        point = json.loads(path.read_text(encoding="utf-8"))
        if (point.get("schema_version") == SCHEMA_VERSION
                and point.get("runner") == runner):
            points.append(point)
    return max(points, key=lambda point: point["created"], default=None)


def git(*args: str) -> str:
    try:
        return subprocess.run(["git", *args], capture_output=True,
                              text=True, cwd=ROOT).stdout.strip()
    except OSError:
        return ""


def head_sha() -> str:
    """HEAD's short sha, marked ``-dirty`` when tracked files differ."""
    sha = git("rev-parse", "--short=12", "HEAD") or "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return f"{sha}-dirty" if dirty else sha


def regressed(metric: dict, base: float, fresh: float) -> bool:
    if metric["better"] == "higher":
        return fresh < base * (1 - metric["bound"])
    return fresh > base * (1 + metric["bound"])


def check(paths) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = config["end_to_end"]
    runs, parents = {}, {}
    for path in paths:
        name = RUN_NAME.fullmatch(Path(path).name)
        if name is None:
            raise SystemExit(f"{path}: not a run file name (W.out, W.<n>.out, "
                             "W.parent.out or W.<n>.parent.out)")
        side = parents if name["parent"] else runs
        side.setdefault(name["workload"], []).append(load_run(path))
    runner = "ci" if os.environ.get("GITHUB_ACTIONS") else "local"
    if runner != "local":
        parents = {}  # CI gates against its own committed points only
    failures = []
    perfbench = {}
    for workload in (entry["name"] for entry in config["workloads"]):
        results = runs.get(workload)
        if not results or None in results:
            failures.append(f"{workload}: no run" if not results
                            else f"{workload}: a run has no result")
            continue
        if any(run.get("correct") is not True for run in results):
            failures.append(f"{workload}: verdicts differ from the pins")
        failed = sum(run.get("failed") or 0 for run in results)
        if any(run.get("failed") != 0 for run in results):
            failures.append(f"{workload}: {failed} failed")
        values = medians(results)
        for metric in metrics:
            if metric["name"] not in values:
                failures.append(f"{workload}: {metric['name']} missing")
        perfbench[workload] = dict(
            values, runs=len(results),
            attempted=sum(run.get("attempted") or 0 for run in results),
            failed=failed)

    baseline = baseline_point(runner)
    if baseline is None:
        print(f"no committed '{runner}' point: nothing to compare with")
    else:
        print(f"committed baseline: {baseline['sha']} ({runner}, "
              f"{baseline['created']})")
    if parents:
        print(f"same-session parent runs: {', '.join(sorted(parents))}")
    for workload, values in perfbench.items():
        base_values = (baseline or {}).get("perfbench", {}).get(workload, {})
        if workload in parents:
            if None in parents[workload]:
                failures.append(f"{workload}: parent run has no result")
                continue
            base_values = medians(parents[workload])
        for metric in metrics:
            name = metric["name"]
            base, fresh = base_values.get(name), values.get(name)
            if base is None or fresh is None:
                continue
            worse = regressed(metric, base, fresh)
            change = f"{fresh / base - 1:+7.1%}" if base else "    n/a"
            print(f"  {workload:<22} {name:<17} {base:11.4f} -> "
                  f"{fresh:11.4f} {change} (bound {metric['bound']:.0%}, "
                  f"{metric['better']} is better)"
                  f"{'  WORSE' if worse else ''}")
            if worse:
                failures.append(f"{workload}: {name} {base:.4f} -> "
                                f"{fresh:.4f}, beyond its "
                                f"{metric['bound']:.0%} bound")

    sha = head_sha()
    point = {"schema_version": SCHEMA_VERSION, "sha": sha,
             "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "runner": runner, "perfbench": perfbench}
    output = Path(f"BENCH_{sha}.json")
    output.write_text(json.dumps(point, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"trajectory point written: {output}")
    if failures:
        print("\nFAIL: campaign benchmark gate:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("campaign benchmark within its bounds")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("runs", nargs="+", metavar="WORKLOAD.out",
                        help="output of one perfbench/run.py run, named "
                             "after its workload (WORKLOAD.parent.out: the "
                             "parent commit's run in the same session; "
                             "WORKLOAD.<n>[.parent].out: one of several)")
    return check(parser.parse_args(argv).runs)


if __name__ == "__main__":
    sys.exit(main())
