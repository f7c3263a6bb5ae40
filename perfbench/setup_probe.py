"""Time one fresh process's set-up: ``python3 perfbench/setup_probe.py NAME``.

The clock starts at this file's first statement, before ``import repro``, and
stops when the campaign is built and the sweep planned, right before the
first injection would run.  Prints ``{"setup_s": ..., "injections": ...}``.

:class:`SetupProbes` runs :data:`SETUP_PROBES` such processes spread over one
pass of a campaign, so that their median does not rest on one stretch of
host speed.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh processes timed per pass; ``setup_s`` is their median.
SETUP_PROBES = 7


def probe(name: str) -> float:
    """``setup_s`` of one fresh process set up for workload *name*."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), name],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(completed.stdout.splitlines()[-1])["setup_s"]


class SetupProbes:
    """Set-up probes spread evenly over one pass of *workload*.

    Given to :class:`hostref.HostClock` as its pause, so it is called between
    blocks of campaign time; it runs a probe every ``pass_seconds /
    (BLOCK_SECONDS * SETUP_PROBES)`` blocks.  Each probe's time is normalised
    by the mean of two reference loops, one just before it and one just
    after.  :meth:`finish` runs the probes a pass shorter than expected left
    over and returns every probe's normalised time.
    """

    def __init__(self, workload) -> None:
        from hostref import BLOCK_SECONDS, REF_NOMINAL_S, time_reference

        self.name = workload.name
        self.every = workload.pass_seconds / BLOCK_SECONDS / SETUP_PROBES
        self.blocks = 0
        self.times = []
        self._nominal, self._reference = REF_NOMINAL_S, time_reference

    def _probe(self) -> None:
        before = self._reference()
        seconds = probe(self.name)
        ref = (before + self._reference()) / 2
        self.times.append(seconds * self._nominal / ref)

    def __call__(self) -> None:
        self.blocks += 1
        if (len(self.times) < SETUP_PROBES
                and self.blocks >= (len(self.times) + 0.5) * self.every):
            self._probe()

    def finish(self) -> list:
        while len(self.times) < SETUP_PROBES:
            self._probe()
        return self.times


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from workloads import WORKLOADS, build

    _, _, _, injections = build(WORKLOADS[sys.argv[1]])
    elapsed = time.perf_counter() - _STARTED
    print(json.dumps({"setup_s": elapsed, "injections": len(injections)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
