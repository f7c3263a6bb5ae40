"""Steadiness mode: run one workload N times and print each metric's spread.

    python3 perfbench/steady.py --workload NAME --runs 10 [--seed 1]
        [--seconds 20] [--trace 0|1]

Run ``i`` uses seed ``--seed + i``.  For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
range as a share of the median, next to the metric's bound in
``BENCHMARK.json`` and a third of it.  Every run must report correct
results; a run that does not is listed and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def bounds() -> dict:
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry.get("bound")
            for entry in spec.get("end_to_end", [])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values: dict = {}
    units: dict = {}
    bad = []
    for index in range(args.runs):
        seed = args.seed + index
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - started
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            bad.append(seed)
            print(f"seed {seed}: exit {completed.returncode}\n"
                  f"{completed.stderr[-2000:]}", flush=True)
            continue
        report = json.loads(lines[-1])
        if not report["correct"] or report["failed"]:
            bad.append(seed)
        for name, data in report["metrics"].items():
            values.setdefault(name, []).append(data["value"])
            units[name] = data["unit"]
        print(f"seed {seed}: {wall:.1f} s, correct={report['correct']} "
              f"failed={report['failed']}/{report['attempted']} " + " ".join(
                  f"{name}={data['value']:.4g}"
                  for name, data in report["metrics"].items()), flush=True)

    limits = bounds()
    print(f"\n{'metric':<32} {'unit':<9} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8} {'bound':>6} {'bound/3':>7}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = (statistics.quantiles(series, n=4) if len(series) > 1
                     else (series[0],) * 3)
        spread = (q3 - q1) / median if median else 0.0
        bound = limits.get(name)
        print(f"{name:<32} {units[name]:<9} {median:>12.5g} {q1:>12.5g} "
              f"{q3:>12.5g} {spread:>8.4f} "
              + (f"{bound:>6} {bound / 3:>7.4f}" if bound else ""))
    if bad:
        print(f"runs not correct: seeds {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
