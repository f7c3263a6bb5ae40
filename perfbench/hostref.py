"""Host-speed reference for normalising campaign timings.

This module is standard library only and imports nothing from ``repro``, so
no change to the program under test can move it.  A fixed pure-Python loop
is timed about every :data:`BLOCK_SECONDS` of campaign time, between
injections, while the searches are idle.  Its own time is excluded from
every measured interval.  Each block of campaign time is then scaled by
``REF_NOMINAL_S / ref_measured``, where ``ref_measured`` is the mean of the
two loops that bracket the block.  A normalised second is a second of a host
on which the loop takes :data:`REF_NOMINAL_S`.

The loop does two kinds of work the interpreter does: random reads from a
table larger than the per-core caches, and allocation of small objects
through method calls.  On a shared host both slow down with the campaign;
a loop of integer arithmetic alone swings about twice as far as the
campaign does.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

#: Reads and object steps of one reference loop.
REF_READS = 20_000
REF_STEPS = 10_000
#: The reference loop's nominal time, in seconds.  Fixed: changing it rescales
#: every normalised figure.
REF_NOMINAL_S = 0.0125
#: Campaign time between reference loops, in seconds.
BLOCK_SECONDS = 0.25

_TABLE_SIZE = 1 << 20
_table: List[int] = []


class _Cell:
    __slots__ = ("pc", "value")

    def __init__(self, pc: int, value: int) -> None:
        self.pc = pc
        self.value = value

    def step(self, x: int) -> "_Cell":
        return _Cell(self.pc + 1, (self.value ^ x) & 0xFFFF)


def reference_loop() -> int:
    # Objects made here die young, so the campaign's heap does not change
    # what the garbage collector costs the loop.
    table, mask, x, total = _table, _TABLE_SIZE - 1, 12345, 0
    for _ in range(REF_READS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += table[x & mask]
    cell, stored = _Cell(0, 1), {}
    for _ in range(REF_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        cell = cell.step(x)
        stored[x & 511] = cell.value
    return total + len(stored) + cell.pc


def time_reference() -> float:
    """Seconds one reference loop takes on this host, right now."""
    if not _table:
        _table.extend(i & 127 for i in range(_TABLE_SIZE))
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


class HostClock:
    """Measure a run of work units in blocks bracketed by reference loops.

    Call :meth:`start` before the first unit, :meth:`tick` after each unit
    completes and :meth:`stop` after the last.  ``samples`` holds each unit's
    normalised seconds (the interval since the previous tick), and
    ``raw_seconds`` / ``norm_seconds`` the whole run, reference loops
    excluded.  *pause*, if given, is called between blocks, before the
    reference loop; like the loops, its time is left out of every measured
    interval.  ``paused_seconds`` is the time of both.
    """

    def __init__(self, pause: Optional[Callable[[], None]] = None) -> None:
        self.pause = pause
        self.refs: List[float] = []
        self.samples: List[float] = []
        self.raw_seconds = 0.0
        self.norm_seconds = 0.0
        self.paused_seconds = 0.0
        self._pending: List[float] = []
        self._block_start = self._last = 0.0

    def _reference(self) -> None:
        started = time.perf_counter()
        self.refs.append(time_reference())
        self.paused_seconds += time.perf_counter() - started

    def start(self) -> None:
        self._reference()
        self._pending = []
        self._block_start = self._last = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        self._pending.append(now - self._last)
        self._last = now
        if now - self._block_start >= BLOCK_SECONDS:
            self._close(now)

    def stop(self) -> None:
        self._close(time.perf_counter())

    def _close(self, now: float) -> None:
        raw = now - self._block_start
        before = self.refs[-1]
        if self.pause is not None:
            started = time.perf_counter()
            self.pause()
            self.paused_seconds += time.perf_counter() - started
        self._reference()
        scale = REF_NOMINAL_S / ((before + self.refs[-1]) / 2)
        self.raw_seconds += raw
        self.norm_seconds += raw * scale
        self.samples.extend(sample * scale for sample in self._pending)
        self._pending = []
        self._block_start = self._last = time.perf_counter()
