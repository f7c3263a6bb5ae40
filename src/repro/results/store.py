"""The results warehouse: columnar campaign storage with streaming ingestion.

Campaign output used to live only in in-memory
:class:`~repro.core.campaign.CampaignResult` lists merged at the
coordinator, which caps sweeps far below the paper's "millions of
injections" scale.  A :class:`SqliteResultStore` is the durable
replacement: the coordinator appends each
:class:`~repro.core.campaign.InjectionResult` as it arrives (see
:class:`~repro.results.recording.RecordingStrategy`), inserts are batched,
and the columnar schema — campaign metadata, one ``injections`` row per
experiment, one ``outcomes`` row per classified solution with an index on
``(campaign_id, kind)`` — answers the cross-campaign queries of
``repro report`` without unpickling a single result blob.

One sqlite file holds any number of campaigns; WAL where the filesystem
supports it; multiple coordinator processes may append concurrently
(sqlite serialises the writers).  ``":memory:"`` gives a private
in-process store.  The conformance suite in ``tests/test_result_store.py``
is the executable form of the contract.

Durability contract: rows become visible to readers (and survive a crash)
exactly when they are flushed — explicitly, when a batch fills, when the
oldest buffered row has waited :data:`FLUSH_INTERVAL_SECONDS`, or at
:meth:`~SqliteResultStore.finish_campaign`.  A crash mid-batch loses only
the unflushed tail, about a second of finished injections at most;
reopening the store finds every flushed row and a campaign row still
marked unfinished, which ``repro analyze --resume`` continues.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
import time
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from .. import obs as _obs
from ..core.campaign import InjectionResult
from .aggregates import OutcomeAggregates, SolutionOutcome

#: Metadata keys promoted to their own (queryable) campaign columns.
_META_COLUMNS = ("workload", "program", "query", "fault_model", "backend")

#: The longest a buffered row waits for its batch: an append flushes once
#: the oldest buffered row is this old, so a killed coordinator loses about
#: a second of finished injections at most (resume re-runs them).
FLUSH_INTERVAL_SECONDS = 1.0


@dataclass(frozen=True)
class CampaignRecord:
    """One campaign's row in the warehouse."""

    campaign_id: int
    created_at: float
    meta: Dict[str, object] = field(default_factory=dict)
    elapsed_seconds: Optional[float] = None
    finished: bool = False

    def describe(self) -> str:
        bits = [f"campaign {self.campaign_id}"]
        for key in _META_COLUMNS:
            value = self.meta.get(key)
            if value not in (None, ""):
                bits.append(f"{key}={value}")
        if not self.finished:
            bits.append("(unfinished)")
        return " ".join(bits)


_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id INTEGER PRIMARY KEY AUTOINCREMENT,
    created_at REAL NOT NULL,
    workload TEXT, program TEXT, query TEXT, fault_model TEXT, backend TEXT,
    meta TEXT NOT NULL,
    elapsed_seconds REAL,
    finished INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS injections (
    campaign_id INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    label TEXT NOT NULL,
    model TEXT,
    breakpoint_pc INTEGER NOT NULL,
    target TEXT NOT NULL,
    activated INTEGER NOT NULL,
    completed INTEGER NOT NULL,
    solutions INTEGER NOT NULL,
    latent INTEGER NOT NULL,
    result BLOB NOT NULL,
    PRIMARY KEY (campaign_id, seq)
);
CREATE TABLE IF NOT EXISTS outcomes (
    campaign_id INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    solution_index INTEGER NOT NULL,
    kind TEXT NOT NULL,
    detector_id INTEGER,
    exception TEXT,
    PRIMARY KEY (campaign_id, seq, solution_index)
);
CREATE INDEX IF NOT EXISTS idx_outcomes_kind ON outcomes (campaign_id, kind);
CREATE INDEX IF NOT EXISTS idx_injections_model
    ON injections (campaign_id, model);
"""


class SqliteResultStore:
    """The results warehouse (see module docstring).

    Writers: :meth:`begin_campaign` -> many :meth:`append` -> optional
    :meth:`flush` -> :meth:`finish_campaign`.  Appends buffer into batches
    of *batch_size* rows; an unflushed row is invisible to every reader.

    Readers: :meth:`campaigns`, :meth:`count`, :meth:`get`,
    :meth:`iter_results` (submission order, streaming), and the columnar
    aggregate queries :meth:`aggregates` / :meth:`outcome_distribution` /
    :meth:`outcome_kinds_by_point`, which equal a full-scan re-fold of the
    stored results.
    """

    def __init__(self, path: str, batch_size: int = 256,
                 busy_timeout_seconds: float = 30.0) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.path = path
        self.batch_size = batch_size
        self._connection = sqlite3.connect(path, timeout=busy_timeout_seconds)
        try:
            self._connection.execute("PRAGMA journal_mode=WAL")
        except sqlite3.DatabaseError:  # pragma: no cover - filesystem-specific
            pass  # e.g. network filesystems; the rollback journal still works
        self._connection.executescript(_SCHEMA)
        self._connection.commit()
        #: Buffered rows by (campaign_id, seq): a re-append replaces the
        #: buffered row, so one flush never writes two versions of a seq.
        self._buffer: Dict[Tuple[int, int], Tuple[Tuple, List[Tuple]]] = {}
        self._buffered_since = 0.0

    # -------------------------------------------------------------- ingestion

    def begin_campaign(self, meta: Dict[str, object]) -> int:
        """Register a campaign; the returned id keys every later call.

        The campaign row is durable immediately (not batched), so a crashed
        run is discoverable in the warehouse."""
        columns = [meta.get(key) for key in _META_COLUMNS]
        cursor = self._connection.execute(
            "INSERT INTO campaigns (created_at, workload, program, query, "
            "fault_model, backend, meta) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (time.time(), *columns, json.dumps(meta, default=str)))
        self._connection.commit()
        return int(cursor.lastrowid)

    def append(self, campaign_id: int, seq: int, result: InjectionResult,
               outcomes: Sequence[SolutionOutcome]) -> None:
        """Buffer one result at submission index *seq*, replacing any row
        already stored there; flush on a full batch or a stale buffer."""
        injection = result.injection
        if not self._buffer:
            self._buffered_since = time.monotonic()
        self._buffer[campaign_id, seq] = (
            (campaign_id, seq, injection.label(),
             getattr(injection, "model", None), injection.breakpoint_pc,
             repr(injection.target), int(result.activated),
             int(result.completed), len(result.solutions),
             sum(1 for outcome in outcomes if outcome.latent),
             pickle.dumps(result, protocol=4)),
            [(campaign_id, seq, index, outcome.kind, outcome.detector_id,
              outcome.exception) for index, outcome in enumerate(outcomes)])
        if (len(self._buffer) >= self.batch_size
                or time.monotonic() - self._buffered_since
                >= FLUSH_INTERVAL_SECONDS):
            self.flush()

    def flush(self) -> None:
        """Make every buffered row visible and durable."""
        if not self._buffer:
            return
        rows = len(self._buffer)
        with _obs.get().span("store.flush", rows=rows):
            # A re-appended seq may carry fewer solutions than the row it
            # replaces: its old outcome rows go before the new ones land.
            self._connection.executemany(
                "DELETE FROM outcomes WHERE campaign_id = ? AND seq = ?",
                list(self._buffer))
            self._connection.executemany(
                "INSERT OR REPLACE INTO injections (campaign_id, seq, label, "
                "model, breakpoint_pc, target, activated, completed, "
                "solutions, latent, result) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [injection for injection, _ in self._buffer.values()])
            self._connection.executemany(
                "INSERT INTO outcomes (campaign_id, seq, solution_index, "
                "kind, detector_id, exception) VALUES (?, ?, ?, ?, ?, ?)",
                [outcome for _, outcomes in self._buffer.values()
                 for outcome in outcomes])
            self._connection.commit()
        hub = _obs.get()
        if hub.enabled:
            hub.count("store.rows", rows)
        self._buffer = {}

    def finish_campaign(self, campaign_id: int,
                        elapsed_seconds: float) -> None:
        """Flush and mark the campaign complete."""
        self.flush()
        self._connection.execute(
            "UPDATE campaigns SET elapsed_seconds = ?, finished = 1 "
            "WHERE campaign_id = ?", (elapsed_seconds, campaign_id))
        self._connection.commit()

    def prune(self, campaign_id: int, labels: Sequence[str]) -> Set[int]:
        """Keep only the rows of the sweep *labels*; return their seqs.

        A stored row survives when its seq is a position of the sweep and
        its label is the one at that position.  Every other row — a
        different injection at that position, or a position past the
        sweep's end — is deleted with its outcomes, so the campaign's
        aggregates count this sweep's injections only.
        """
        self.flush()
        stored = self._connection.execute(
            "SELECT seq, label FROM injections WHERE campaign_id = ?",
            (campaign_id,)).fetchall()
        kept = {seq for seq, label in stored
                if seq < len(labels) and labels[seq] == label}
        stale = [(campaign_id, seq) for seq, _ in stored if seq not in kept]
        for table in ("injections", "outcomes"):
            self._connection.executemany(
                f"DELETE FROM {table} WHERE campaign_id = ? AND seq = ?",
                stale)
        self._connection.commit()
        return kept

    # ---------------------------------------------------------------- queries

    def campaigns(self) -> List[CampaignRecord]:
        rows = self._connection.execute(
            "SELECT campaign_id, created_at, meta, elapsed_seconds, finished "
            "FROM campaigns ORDER BY campaign_id").fetchall()
        return [CampaignRecord(campaign_id=int(row[0]), created_at=row[1],
                               meta=json.loads(row[2]),
                               elapsed_seconds=row[3],
                               finished=bool(row[4]))
                for row in rows]

    def campaign(self, campaign_id: int) -> CampaignRecord:
        for record in self.campaigns():
            if record.campaign_id == campaign_id:
                return record
        raise KeyError(f"no campaign {campaign_id} in the results store")

    def count(self, campaign_id: int) -> int:
        row = self._connection.execute(
            "SELECT COUNT(*) FROM injections WHERE campaign_id = ?",
            (campaign_id,)).fetchone()
        return int(row[0])

    def get(self, campaign_id: int, seq: int) -> InjectionResult:
        row = self._connection.execute(
            "SELECT result FROM injections WHERE campaign_id = ? AND seq = ?",
            (campaign_id, seq)).fetchone()
        if row is None:
            raise IndexError(
                f"campaign {campaign_id} has no result at seq {seq}")
        return pickle.loads(row[0])

    def iter_results(self, campaign_id: int) -> Iterator[InjectionResult]:
        """Stream results in submission order without materialising them."""
        cursor = self._connection.execute(
            "SELECT result FROM injections WHERE campaign_id = ? "
            "ORDER BY seq", (campaign_id,))
        while True:
            rows = cursor.fetchmany(64)
            if not rows:
                return
            for row in rows:
                yield pickle.loads(row[0])

    def aggregates(self, campaign_id: int) -> OutcomeAggregates:
        """Aggregates recomputed from the columnar data (no unpickling)."""
        row = self._connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(activated), 0), "
            "COALESCE(SUM(solutions > 0), 0), COALESCE(SUM(completed), 0), "
            "COALESCE(SUM(solutions), 0), COALESCE(SUM(latent), 0) "
            "FROM injections WHERE campaign_id = ?", (campaign_id,)).fetchone()
        aggregates = OutcomeAggregates(
            injections_run=int(row[0]),
            injections_activated=int(row[1]),
            injections_with_solutions=int(row[2]),
            injections_completed=int(row[3]),
            total_solutions=int(row[4]),
            latent_solutions=int(row[5]))
        aggregates.outcome_counts.update(self.outcome_distribution(campaign_id))
        return aggregates

    def outcome_distribution(self, campaign_id: int) -> Dict[str, int]:
        """Per-outcome-kind solution counts (indexed query)."""
        rows = self._connection.execute(
            "SELECT kind, COUNT(*) FROM outcomes WHERE campaign_id = ? "
            "GROUP BY kind", (campaign_id,)).fetchall()
        return {row[0]: int(row[1]) for row in rows}

    def outcome_kinds_by_point(self, campaign_id: int
                               ) -> Dict[Tuple[int, str],
                                         Tuple[FrozenSet[str], bool]]:
        """Outcome kinds per injection point, for the parity report.

        Maps ``(breakpoint_pc, repr(target))`` to ``(kinds, completed)``:
        the set of outcome kinds any *activated* injection at that point
        recorded, and whether every search at the point ran to completion
        (an incomplete search may hide outcomes — the parity report's
        hang rule keys off this).  Multiple injections can share a point
        (e.g. one bit-flip campaign row per bit); their kinds union.
        Columnar only — joins ``injections`` with ``outcomes``, never
        unpickles a result blob.
        """
        kinds: Dict[Tuple[int, str], set] = {}
        complete: Dict[Tuple[int, str], bool] = {}
        rows = self._connection.execute(
            "SELECT i.breakpoint_pc, i.target, i.completed, o.kind "
            "FROM injections i LEFT JOIN outcomes o "
            "ON o.campaign_id = i.campaign_id AND o.seq = i.seq "
            "WHERE i.campaign_id = ? AND i.activated = 1",
            (campaign_id,)).fetchall()
        for breakpoint_pc, target, completed, kind in rows:
            point = (int(breakpoint_pc), target)
            bucket = kinds.setdefault(point, set())
            if kind is not None:
                bucket.add(kind)
            complete[point] = complete.get(point, True) and bool(completed)
        return {point: (frozenset(bucket), complete[point])
                for point, bucket in kinds.items()}

    def close(self) -> None:
        self.flush()
        self._connection.close()

    def __enter__(self) -> "SqliteResultStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
