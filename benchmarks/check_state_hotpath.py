#!/usr/bin/env python
"""CI gate: state and interpreter hot-path microbenchmarks must not regress.

Compares a fresh pytest-benchmark JSON (``pytest
benchmarks/test_state_hotpath.py --benchmark-json=FRESH.json``) against the
committed baseline in ``benchmarks/data/state_hotpath_bench.json``.  The
baseline covers both benchmark groups: ``state-hotpath`` (CoW fork and
fingerprint costs) and ``interp-hotpath`` (decoded concrete run, the test
suite's string-dispatch ``reference_run``, symbolic stepping) — the
decoded/reference pair (``test_concrete_run_decoded_cost`` /
``test_concrete_run_legacy_cost``) keeps the dispatch speedup itself under
the gate, not just its absolute cost.  Each
benchmark's fresh mean must stay within ``tolerance_factor`` of the recorded
baseline mean — generous enough for shared-runner noise, tight enough to
catch the step change a broken CoW fork or fingerprint would cause — and a
benchmark missing from the fresh run is itself a failure (a silently
skipped gate is a regressed gate).

Usage::

    python benchmarks/check_state_hotpath.py FRESH.json [--baseline PATH]

Exit status 0 when every benchmark passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "data" \
    / "state_hotpath_bench.json"


def load_fresh(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    return {entry["name"]: entry for entry in report.get("benchmarks", [])}


def compare_means(baseline_means: dict, fresh_means: dict, tolerance: float,
                  unit_scale: float = 1e6, unit: str = "us") -> list:
    """Compare per-name fresh means against baseline means.

    Prints one verdict line per baseline entry and returns the list of
    failure strings: a fresh mean beyond ``baseline * tolerance`` fails,
    and a baseline entry missing from the fresh run is itself a failure (a
    silently skipped gate is a regressed gate).
    """
    failures = []
    width = max(len(name) for name in baseline_means)
    for name, base_mean in sorted(baseline_means.items()):
        base_mean = float(base_mean)
        allowed = base_mean * tolerance
        mean = fresh_means.get(name)
        if mean is None:
            print(f"  {name:<{width}}  MISSING from the fresh run")
            failures.append(f"{name}: not measured")
            continue
        ratio = mean / base_mean
        verdict = "ok" if mean <= allowed else "REGRESSED"
        print(f"  {name:<{width}}  {mean * unit_scale:9.3f}{unit}  "
              f"(baseline {base_mean * unit_scale:.3f}{unit}, "
              f"{ratio:5.2f}x, allowed <= {allowed * unit_scale:.3f}{unit})"
              f"  {verdict}")
        if mean > allowed:
            failures.append(f"{name}: {mean:.3e}s vs allowed {allowed:.3e}s")
    return failures


def check_telemetry_overhead(config: dict, fresh: dict) -> list:
    """Gate the telemetry-enabled stepping cost against its disabled twin.

    Unlike the absolute-mean gates above, this reads the ratio that
    ``benchmark`` records in its ``extra_info``: the median per-round ratio
    of enabled to disabled (``reference``) golden runs timed interleaved
    in one process, so host speed cancels out and the budget can be
    tight: an enabled hub must cost at most ``budget_factor`` of the plain
    decoded stepping path.
    """
    if not config:
        return []
    name = config["benchmark"]
    reference = config["reference"]
    budget = float(config["budget_factor"])
    ratio = fresh.get(name, {}).get("extra_info", {}).get("overhead_ratio")
    print(f"telemetry-overhead gate (budget {budget:g}x of {reference}):")
    if ratio is None:
        print(f"  {name}  overhead_ratio MISSING from the fresh run")
        return [f"{name}: not measured (telemetry-overhead gate)"]
    verdict = "ok" if ratio <= budget else "REGRESSED"
    print(f"  {name}  median interleaved ratio {ratio:5.3f}x "
          f"(allowed <= {budget:g}x)  {verdict}")
    if ratio > budget:
        return [f"{name}: {ratio:.3f}x of {reference}, "
                f"allowed <= {budget:g}x"]
    return []


def check(fresh_path: str, baseline_path: str) -> int:
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)["microbench_baseline"]
    tolerance = float(baseline["tolerance_factor"])
    fresh = load_fresh(fresh_path)
    fresh_means = {name: entry["stats"]["mean"]
                   for name, entry in fresh.items()}

    print(f"state hot-path benchmark gate (tolerance {tolerance:g}x):")
    baseline_means = {name: record["mean_seconds"]
                      for name, record in baseline["benchmarks"].items()}
    failures = compare_means(baseline_means, fresh_means, tolerance)
    failures += check_telemetry_overhead(baseline.get("telemetry_overhead"),
                                         fresh)

    if failures:
        print("\nFAIL: state hot-path timings regressed beyond tolerance:",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("all state hot-path benchmarks within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="pytest-benchmark JSON of this run")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="committed baseline JSON")
    args = parser.parse_args(argv)
    return check(args.fresh, args.baseline)


if __name__ == "__main__":
    sys.exit(main())
