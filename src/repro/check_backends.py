"""Backend byte-identity check (``repro check-backends``).

Runs the same ``repro analyze`` sweep through several backends — local
broker workers, TCP broker variants, the ``--results`` store-backed view, a
``--resume`` of a half-recorded store and worker-kill recovery — and
diffs each normalized output against the serial baseline.  Everything but
the timing and backend-identity lines must be byte-identical; the
``smoke-*`` CI jobs gate on it.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from .cli import _positive_int

_NORMALIZE_DROP_CONTAINS = ("elapsed seconds",)
#: The variants ``--backends`` may name; each is diffed against serial.
VARIANTS = ("distributed", "results", "resume", "tcp", "tcp-kill")
_NORMALIZE_DROP_PREFIXES = ("workers", "backend")


def normalize_output(text: str) -> str:
    """Strip timing/backend-identity lines — the same normalization the CI
    smoke jobs used (``grep -v "elapsed seconds" -e "^workers" -e
    "^backend"``); everything left must be byte-identical across backends."""
    kept = []
    for line in text.splitlines():
        if any(token in line for token in _NORMALIZE_DROP_CONTAINS):
            continue
        if line.startswith(_NORMALIZE_DROP_PREFIXES):
            continue
        kept.append(line)
    return "\n".join(kept) + "\n"


class _TcpBroker:
    """A ``repro broker`` subprocess bound to a free port."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "broker", "--listen",
             "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if "broker listening on " not in line:
            self.stop()
            raise RuntimeError(f"broker failed to start: {line!r}")
        self.url = line.split("broker listening on ", 1)[1].strip()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.process.kill()
                self.process.wait()


def _spawn_worker(queue: str, lease_seconds: Optional[float] = None,
                  ) -> subprocess.Popen:
    command = [sys.executable, "-m", "repro", "worker", "--queue", queue,
               "--max-idle", "120"]
    if lease_seconds is not None:
        command += ["--lease-seconds", str(lease_seconds)]
    return subprocess.Popen(command, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _stop_workers(workers: Sequence[subprocess.Popen]) -> None:
    for worker in workers:
        if worker.poll() is None:
            worker.terminate()
    for worker in workers:
        try:
            worker.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover
            worker.kill()
            worker.wait()


def _sweep_argv(args: argparse.Namespace) -> List[str]:
    argv = [sys.executable, "-m", "repro", "analyze",
            "--workload", args.workload, "--query", args.query]
    if args.fault_model:
        argv += ["--fault-model", args.fault_model]
    if getattr(args, "burst_k", None) is not None:
        argv += ["--burst-k", str(args.burst_k)]
    if getattr(args, "isa", None):
        argv += ["--isa", args.isa]
    if args.sample is not None:
        argv += ["--sample", str(args.sample)]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    if args.max_injections is not None:
        argv += ["--max-injections", str(args.max_injections)]
    if args.max_states is not None:
        argv += ["--max-states", str(args.max_states)]
    return argv


def _run_analyze(argv: List[str], timeout: float,
                 env: Optional[Dict[str, str]] = None) -> str:
    completed = subprocess.run(argv, capture_output=True, text=True,
                               timeout=timeout, env=env)
    if completed.returncode != 0:
        raise RuntimeError(f"analyze failed (exit {completed.returncode}): "
                           f"{' '.join(argv)}\n{completed.stderr}")
    return completed.stdout


def _run_variant(variant: str, args: argparse.Namespace, scratch: str,
                 timeout: float, sweep: int) -> str:
    """Run one backend variant of the *sweep*-injection sweep and return
    its raw stdout."""
    base = _sweep_argv(args)
    if variant == "serial":
        return _run_analyze(base, timeout)
    if variant == "distributed":
        return _run_analyze(base + ["--workers", "2"], timeout)
    if variant == "results":
        # Serial sweep streamed into a store: proves the store-backed lazy
        # CampaignResult prints byte-identically to the in-memory one.
        path = os.path.join(scratch, "results-variant.sqlite")
        if os.path.exists(path):
            os.unlink(path)
        return _run_analyze(base + ["--results", path], timeout)
    if variant == "resume":
        # The first half of the sweep streams into a fresh store (the last
        # --max-injections wins), then --resume runs the full sweep: it
        # must skip the stored half and print the uninterrupted output.
        path = os.path.join(scratch, "resume-variant.sqlite")
        if os.path.exists(path):
            os.unlink(path)
        _run_analyze(base + ["--results", path,
                             "--max-injections", str((sweep + 1) // 2)],
                     timeout)
        return _run_analyze(base + ["--results", path, "--resume"], timeout)
    if variant in ("tcp", "tcp-kill"):
        broker = _TcpBroker()
        workers: List[subprocess.Popen] = []
        killer = None
        try:
            extra = ["--workers", "0", "--queue", broker.url]
            lease = 3.0 if variant == "tcp-kill" else None
            if variant == "tcp-kill":
                extra += ["--lease-seconds", "3"]
            workers = [_spawn_worker(broker.url, lease_seconds=lease)
                       for _ in range(2)]
            if variant == "tcp-kill":
                # SIGKILL one worker mid-campaign; the expired lease must
                # requeue its claim onto the survivor.
                import threading
                victim = workers[0]
                killer = threading.Timer(2.0, victim.kill)
                killer.start()
            return _run_analyze(base + extra, timeout)
        finally:
            if killer is not None:
                killer.cancel()
            _stop_workers(workers)
            broker.stop()
    raise AssertionError(f"unhandled variant {variant!r}")


def run_expect_identical(args: argparse.Namespace) -> int:
    """Backend-equivalence gate: every variant must match serial exactly."""
    variants = [name.strip() for name in args.backends.split(",")
                if name.strip()]
    unknown = [name for name in variants if name not in VARIANTS]
    if unknown:
        raise SystemExit(f"unknown check-backends variant(s) "
                         f"{', '.join(unknown)}; valid variants: "
                         f"{', '.join(VARIANTS)}")
    scratch = tempfile.mkdtemp(prefix="repro-check-backends-")
    try:
        isa_note = f" isa={args.isa}" if getattr(args, "isa", None) else ""
        print(f"check-backends: workload={args.workload} "
              f"query={args.query} fault_model={args.fault_model}{isa_note} "
              f"variants={variants}", flush=True)
        serial = _run_variant("serial", args, scratch, args.timeout, 0)
        sweep = int(re.search(r"^injections\s*: (\d+)$", serial,
                              re.M).group(1))
        baseline = normalize_output(serial)
        failures = []
        for variant in variants:
            started = time.perf_counter()
            output = normalize_output(
                _run_variant(variant, args, scratch, args.timeout, sweep))
            elapsed = time.perf_counter() - started
            if output == baseline:
                print(f"  {variant:<12} identical ({elapsed:.1f}s)",
                      flush=True)
                continue
            failures.append(variant)
            print(f"  {variant:<12} DIFFERS from the serial baseline:",
                  flush=True)
            diff = difflib.unified_diff(
                baseline.splitlines(keepends=True),
                output.splitlines(keepends=True),
                fromfile="serial", tofile=variant)
            sys.stdout.writelines(diff)
        if failures:
            print(f"FAIL: backends not identical to serial: {failures}",
                  file=sys.stderr)
            return 1
        print("all backends identical to the serial baseline")
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def add_check_backends_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout", type=float, default=900.0,
                        help="per-variant subprocess timeout")
    parser.add_argument("--backends", default="distributed",
                        help="comma-separated variants to compare with the "
                             f"serial baseline: {', '.join(VARIANTS)}")
    parser.add_argument("--workload", default="factorial",
                        help="workload to sweep")
    parser.add_argument("--fault-model", default=None,
                        help="fault model of the sweep")
    parser.add_argument("--burst-k", type=int, default=None, metavar="K",
                        help="burst size with --fault-model burst (passed "
                             "through to 'repro analyze --burst-k')")
    parser.add_argument("--isa", default=None, metavar="NAME",
                        help="ISA frontend (retargets the workload, e.g. "
                             "mips or rv32im)")
    parser.add_argument("--query", default="err-output",
                        help="query of the sweep")
    parser.add_argument("--sample", type=_positive_int, default=None,
                        help="'repro analyze --sample'")
    parser.add_argument("--seed", type=int, default=None,
                        help="'repro analyze --seed'")
    parser.add_argument("--max-injections", type=_positive_int, default=None,
                        help="'repro analyze --max-injections'")
    parser.add_argument("--max-states", type=_positive_int, default=None,
                        help="'repro analyze --max-states'")
