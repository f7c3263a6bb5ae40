"""Append-only JSONL event sink.

One JSON object per line, appended with a per-process lock.  A crash can
tear at most the final line, so :func:`read_events` tolerates (and skips)
a torn tail instead of failing the whole file.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List


class JsonlEventSink:
    """Thread-safe append-only JSON-lines writer."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._handle = open(path, "a", encoding="utf-8")

    def write(self, event: Dict[str, Any]) -> None:
        line = json.dumps(event, separators=(",", ":"), sort_keys=True,
                          default=str)
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL event file, skipping blank lines and a torn tail."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except ValueError:
            if index == len(lines) - 1:
                continue  # torn tail from a crash mid-append
            raise
    return events
