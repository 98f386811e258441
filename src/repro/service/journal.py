"""The SQLite job journal: the lifting service's only job queue.

Every job a :class:`repro.service.scheduler.JobScheduler` runs is a row in
one SQLite database.  Workers claim rows from it, every state transition
is a single atomic ``UPDATE ... WHERE state = ?`` statement, and the
scheduler's queue depth, dedup and retry bookkeeping are all queries over
it.  Without ``--journal`` the database is a private ``:memory:`` one: the
same schema and SQL, gone with the process.  With a file (WAL mode) the
queue is durable: on startup the scheduler replays it, so a ``kill -9``,
an OOM kill or a plain restart loses no submissions.

Design points:

* **One ``jobs`` table, keyed by job id.**  Rows carry the request digest,
  state, priority, timeout, the JSON-encoded payload (so a fresh process
  can re-materialise the job), attempt/backoff bookkeeping and the full
  provenance timestamps.  A partial unique index over *active* digests
  enforces in-flight deduplication, across processes when a file is
  shared: two servers on one volume cannot both enqueue the same digest.
* **Atomic transitions.**  ``claim``/``finish``/``requeue`` are single
  guarded ``UPDATE`` statements; the rowcount says whether this worker
  won the transition.  N workers — threads or whole server processes —
  drain one queue without a coordinator.
* **Bounded size.**  Finishing a job deletes terminal rows once
  :data:`TERMINAL_ROW_RETENTION` newer rows exist; active rows are never
  deleted.  The surviving rows answer status lookups for jobs that aged
  out of the scheduler's in-memory retention ring.
* **Crash recovery.**  :meth:`recover` re-adopts ``QUEUED`` rows and marks
  orphaned ``RUNNING`` rows (owner process dead, or stale past its budget
  plus grace) ``INTERRUPTED``, then re-enqueues them with exponential
  backoff + deterministic jitter up to a bounded ``max_attempts`` —
  recorded in the row, so ``repro jobs`` can audit every retry.
* **Counters survive restarts.**  A small ``meta`` table persists the
  service's lifetime counters (``recovered``, ``rejected``, ...) across
  graceful shutdowns.

The journal deliberately stores *no reports*: results live in the
content-addressed :class:`repro.service.store.ResultStore`, keyed by
digest.  The journal only remembers which digests were asked for and how
far each ask got — which is exactly what must survive a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import faults

#: Canonical journal filename suffix — also what the bench cold-path guard
#: looks for when refusing to measure through a service directory.
JOURNAL_SUFFIX = ".journal.sqlite3"

#: Default filename when a directory is given as the journal path.
DEFAULT_JOURNAL_NAME = f"jobs{JOURNAL_SUFFIX}"

#: Bounded retry budget for interrupted/transiently-failed jobs.
DEFAULT_MAX_ATTEMPTS = 3

#: Backoff schedule: ``base * 2**(attempt-1)`` seconds, capped, plus a
#: deterministic jitter derived from the job id (so tests are stable and
#: a thundering herd of recovered jobs still spreads out).
BACKOFF_BASE_SECONDS = 0.25
BACKOFF_CAP_SECONDS = 30.0

#: When a job finishes, terminal rows with at least this many newer rows
#: are deleted; active rows never are.
TERMINAL_ROW_RETENTION = 4096

#: The ``JobJournal`` path of a private, non-durable in-memory queue.
MEMORY = ":memory:"

#: Extra slack past ``started_at + timeout`` before a RUNNING row owned by
#: an unreachable process (e.g. another host on a shared volume) is
#: declared orphaned during recovery.
STALE_GRACE_SECONDS = 30.0

_ACTIVE_STATES = ("queued", "running")
_TERMINAL_STATES = ("succeeded", "failed", "cancelled")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id          TEXT PRIMARY KEY,
    digest      TEXT NOT NULL,
    state       TEXT NOT NULL,
    priority    INTEGER NOT NULL DEFAULT 0,
    timeout     REAL,
    payload     TEXT NOT NULL DEFAULT '{}',
    attempts    INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    not_before  REAL NOT NULL DEFAULT 0,
    error       TEXT NOT NULL DEFAULT '',
    cached      INTEGER NOT NULL DEFAULT 0,
    submissions INTEGER NOT NULL DEFAULT 1,
    owner       TEXT NOT NULL DEFAULT '',
    created_at  REAL NOT NULL,
    started_at  REAL,
    finished_at REAL
);
CREATE INDEX IF NOT EXISTS idx_jobs_state
    ON jobs (state, priority);
CREATE UNIQUE INDEX IF NOT EXISTS idx_jobs_active_digest
    ON jobs (digest) WHERE state IN ('queued', 'running');
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

_ROW_COLUMNS = (
    "id", "digest", "state", "priority", "timeout", "payload", "attempts",
    "max_attempts", "not_before", "error", "cached", "submissions", "owner",
    "created_at", "started_at", "finished_at",
)


class JournalError(RuntimeError):
    """The journal could not record or transition a job."""


class DuplicateActiveDigest(JournalError):
    """An insert collided with an active (queued/running) row for the digest."""

    def __init__(self, digest: str, existing_id: str) -> None:
        super().__init__(f"digest {digest[:12]} is already active as {existing_id}")
        self.digest = digest
        self.existing_id = existing_id


def backoff_seconds(job_id: str, attempt: int) -> float:
    """Exponential backoff with deterministic per-job jitter.

    ``attempt`` counts runs already consumed (>= 1 for the first retry).
    The jitter is a stable function of (job id, attempt) so the schedule a
    journal records is reproducible — randomness would break replayed
    recovery audits.
    """
    base = BACKOFF_BASE_SECONDS * (2 ** max(0, attempt - 1))
    seed = hashlib.sha256(f"{job_id}:{attempt}".encode("utf-8")).digest()
    jitter = (seed[0] / 255.0) * base * 0.5
    return min(base + jitter, BACKOFF_CAP_SECONDS)


def resolve_journal_path(path: Union[str, Path]) -> Path:
    """The database file a ``--journal`` argument names (dirs get a default)."""
    resolved = Path(path)
    if resolved.is_dir() or (not resolved.suffix and not resolved.exists()):
        return resolved / DEFAULT_JOURNAL_NAME
    return resolved


def owner_token() -> str:
    """``host:pid`` — identifies which process claimed a RUNNING row."""
    return f"{socket.gethostname()}:{os.getpid()}"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, other user
        return True
    except OSError:  # pragma: no cover - defensive
        return False
    return True


def _owner_alive(owner: str) -> Optional[bool]:
    """Whether the owning process is alive; None when undecidable (other host)."""
    host, _, raw_pid = owner.rpartition(":")
    if not host or not raw_pid.isdigit():
        return None
    if host != socket.gethostname():
        return None
    return _pid_alive(int(raw_pid))


class JobRow:
    """One journal row, attribute-accessible and JSON-friendly."""

    __slots__ = _ROW_COLUMNS

    def __init__(self, values: Sequence[object]) -> None:
        for name, value in zip(_ROW_COLUMNS, values):
            setattr(self, name, value)

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL_STATES

    def status_dict(self) -> Dict[str, object]:
        """The ``GET /status`` shape for a journal-only (e.g. pre-crash) job."""
        status: Dict[str, object] = {
            "id": self.id,
            "digest": self.digest,
            "state": self.state,
            "priority": self.priority,
            "cached": bool(self.cached),
            "submissions": self.submissions,
            "attempts": self.attempts,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error:
            status["error"] = self.error
        return status


class JobJournal:
    """The SQLite job queue behind the scheduler.

    ``path`` names a database file (or a directory that gets
    :data:`DEFAULT_JOURNAL_NAME`); :data:`MEMORY` opens a private in-memory
    database instead.  The one connection is shared across threads under
    the journal's lock.
    """

    def __init__(self, path: Union[str, Path] = MEMORY) -> None:
        self._path = None if str(path) == MEMORY else resolve_journal_path(path)
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        # Autocommit: every statement is its own transaction, with no
        # separate BEGIN/COMMIT round trips (each releases the GIL).
        self._conn = sqlite3.connect(
            str(self._path or MEMORY),
            check_same_thread=False,
            timeout=30.0,
            isolation_level=None,
        )
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.executescript(_SCHEMA)

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Optional[Path]:
        """The database file, or None for an in-memory journal."""
        return self._path

    @staticmethod
    def _now() -> float:
        """Journal time: wall clock plus any injected skew (fault point)."""
        return time.time() + faults.clock_skew()

    def _execute(self, sql: str, params: Sequence[object] = ()) -> sqlite3.Cursor:
        with self._lock:
            return self._conn.execute(sql, params)

    def _write_terminal(self, sql: str, params: Sequence[object]) -> int:
        """Run a statement that makes a row terminal, then prune old ones.

        Returns the statement's rowcount.  The prune deletes terminal rows
        below the newest :data:`TERMINAL_ROW_RETENTION` rowids; ``+state``
        keeps SQLite on the rowid range instead of scanning the state index.
        """
        with self._lock:
            changed = self._conn.execute(sql, params).rowcount
            if changed:
                self._conn.execute(
                    "DELETE FROM jobs WHERE rowid <= (SELECT MAX(rowid) FROM jobs)"
                    " - ? AND +state IN ('succeeded', 'failed', 'cancelled')",
                    (TERMINAL_ROW_RETENTION,),
                )
            return changed

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def insert(
        self,
        job_id: str,
        digest: str,
        payload_json: str,
        priority: int = 0,
        timeout: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        """Journal a fresh QUEUED job.

        Raises :class:`DuplicateActiveDigest` when another row for the same
        digest is already queued or running — the scheduler's in-flight
        deduplication, across every process sharing the journal.
        """
        try:
            self._execute(
                "INSERT INTO jobs (id, digest, state, priority, timeout, payload,"
                " max_attempts, created_at) VALUES (?, ?, 'queued', ?, ?, ?, ?, ?)",
                (job_id, digest, priority, timeout, payload_json,
                 max(1, int(max_attempts)), self._now()),
            )
        except sqlite3.IntegrityError:
            row = self.active_for_digest(digest)
            if row is not None:
                raise DuplicateActiveDigest(digest, row.id) from None
            raise JournalError(f"could not journal job {job_id}") from None

    def record_attach(self, job_id: str) -> None:
        """Count one more submission coalesced onto an active job."""
        self._execute(
            "UPDATE jobs SET submissions = submissions + 1 WHERE id = ?", (job_id,)
        )

    def record_cached(
        self,
        job_id: str,
        digest: str,
        payload_json: str,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> None:
        """Journal a store-answered job directly in its terminal state."""
        now = self._now()
        self._write_terminal(
            "INSERT OR IGNORE INTO jobs (id, digest, state, priority, timeout,"
            " payload, cached, created_at, finished_at)"
            " VALUES (?, ?, 'succeeded', ?, ?, ?, 1, ?, ?)",
            (job_id, digest, priority, timeout, payload_json, now, now),
        )

    # ------------------------------------------------------------------ #
    # Atomic transitions
    # ------------------------------------------------------------------ #
    def claim(self, job_id: str, owner: Optional[str] = None) -> bool:
        """QUEUED → RUNNING iff still queued and eligible; True when won.

        This is *the* multi-worker arbitration point: every worker (in this
        process or any other sharing the volume) issues the same guarded
        UPDATE, and exactly one rowcount comes back 1.
        """
        cursor = self._execute(
            "UPDATE jobs SET state = 'running', owner = ?, started_at = ?,"
            " attempts = attempts + 1"
            " WHERE id = ? AND state = 'queued' AND not_before <= ?",
            (owner or owner_token(), self._now(), job_id, self._now()),
        )
        return cursor.rowcount == 1

    def finish(
        self,
        job_id: str,
        state: str,
        error: str = "",
        cached: bool = False,
        from_states: Sequence[str] = ("queued", "running", "interrupted"),
    ) -> bool:
        """Move a job to a terminal state (guarded by its current state)."""
        if state not in _TERMINAL_STATES:
            raise ValueError(f"finish() needs a terminal state, got {state!r}")
        marks = ", ".join("?" for _ in from_states)
        return self._write_terminal(
            f"UPDATE jobs SET state = ?, error = ?, cached = ?, finished_at = ?"
            f" WHERE id = ? AND state IN ({marks})",
            (state, error, int(cached), self._now(), job_id, *from_states),
        ) == 1

    def requeue(
        self, job_id: str, error: str = "", from_state: str = "running"
    ) -> Optional[float]:
        """RUNNING → QUEUED with backoff; returns ``not_before`` or None.

        Refuses (returns None) once the row's bounded ``max_attempts`` is
        spent — the caller should then :meth:`finish` the job as failed.
        """
        row = self.row(job_id)
        if row is None or row.state != from_state:
            return None
        if row.attempts >= row.max_attempts:
            return None
        delay = backoff_seconds(job_id, row.attempts)
        not_before = self._now() + delay
        cursor = self._execute(
            "UPDATE jobs SET state = 'queued', owner = '', not_before = ?,"
            " error = ? WHERE id = ? AND state = ?",
            (not_before, error, job_id, from_state),
        )
        return not_before if cursor.rowcount == 1 else None

    def requeue_terminal(self, job_id: str) -> bool:
        """Re-enqueue a failed/cancelled/interrupted job (``repro jobs --requeue``).

        Resets the attempt budget: an operator re-running a job has decided
        the earlier attempts should not count against it.
        """
        cursor = self._execute(
            "UPDATE jobs SET state = 'queued', owner = '', not_before = 0,"
            " attempts = 0, error = '', finished_at = NULL"
            " WHERE id = ? AND state IN ('failed', 'cancelled', 'interrupted')",
            (job_id,),
        )
        return cursor.rowcount == 1

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def row(self, job_id: str) -> Optional[JobRow]:
        cursor = self._execute(
            f"SELECT {', '.join(_ROW_COLUMNS)} FROM jobs WHERE id = ?", (job_id,)
        )
        values = cursor.fetchone()
        return JobRow(values) if values is not None else None

    def rows(
        self, state: Optional[str] = None, limit: int = 200
    ) -> List[JobRow]:
        """Newest-first listing (``repro jobs``)."""
        if state is not None:
            cursor = self._execute(
                f"SELECT {', '.join(_ROW_COLUMNS)} FROM jobs WHERE state = ?"
                f" ORDER BY rowid DESC LIMIT ?",
                (state, limit),
            )
        else:
            cursor = self._execute(
                f"SELECT {', '.join(_ROW_COLUMNS)} FROM jobs"
                f" ORDER BY rowid DESC LIMIT ?",
                (limit,),
            )
        return [JobRow(values) for values in cursor.fetchall()]

    def active_for_digest(self, digest: str) -> Optional[JobRow]:
        cursor = self._execute(
            f"SELECT {', '.join(_ROW_COLUMNS)} FROM jobs"
            f" WHERE digest = ? AND state IN ('queued', 'running') LIMIT 1",
            (digest,),
        )
        values = cursor.fetchone()
        return JobRow(values) if values is not None else None

    def eligible(self, limit: int = 8) -> List[JobRow]:
        """Queued rows whose backoff window has passed, best-priority first."""
        cursor = self._execute(
            f"SELECT {', '.join(_ROW_COLUMNS)} FROM jobs"
            f" WHERE state = 'queued' AND not_before <= ?"
            f" ORDER BY priority ASC, rowid ASC LIMIT ?",
            (self._now(), limit),
        )
        return [JobRow(values) for values in cursor.fetchall()]

    def queue_depth(self) -> int:
        cursor = self._execute("SELECT COUNT(*) FROM jobs WHERE state = 'queued'")
        return int(cursor.fetchone()[0])

    def oldest_queued_age(self) -> Optional[float]:
        cursor = self._execute(
            "SELECT MIN(created_at) FROM jobs WHERE state = 'queued'"
        )
        oldest = cursor.fetchone()[0]
        if oldest is None:
            return None
        # Clock skew (or an injected skew fault) must never yield a negative
        # age — monitoring treats the field as a backlog gauge.
        return max(0.0, self._now() - float(oldest))

    def counts(self) -> Dict[str, int]:
        cursor = self._execute("SELECT state, COUNT(*) FROM jobs GROUP BY state")
        return {state: int(count) for state, count in cursor.fetchall()}

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    def recover(self) -> Tuple[List[JobRow], List[JobRow]]:
        """Replay the journal after a (re)start.

        Returns ``(runnable, failed)``:

        * ``runnable`` — QUEUED rows (including just-re-enqueued interrupted
          ones) for the scheduler to adopt.
        * ``failed`` — orphaned RUNNING rows whose attempt budget was
          already spent; they are finished as FAILED here.

        Orphan detection: a RUNNING row is orphaned when its owning process
        is provably dead (same host, dead pid) or when it is stale — past
        ``started_at + timeout + grace`` — for owners we cannot probe
        (another host on a shared volume, or a pre-crash row with no owner).
        """
        failed: List[JobRow] = []
        now = self._now()
        cursor = self._execute(
            f"SELECT {', '.join(_ROW_COLUMNS)} FROM jobs WHERE state = 'running'"
        )
        for values in cursor.fetchall():
            row = JobRow(values)
            alive = _owner_alive(row.owner) if row.owner else False
            if alive:
                continue
            if alive is None:
                started = row.started_at or row.created_at
                budget = row.timeout if row.timeout is not None else 0.0
                if now < started + budget + STALE_GRACE_SECONDS:
                    continue  # possibly still running on another box
            # Atomically mark the orphan INTERRUPTED; a concurrent recoverer
            # losing this UPDATE simply skips the row.
            marked = self._execute(
                "UPDATE jobs SET state = 'interrupted', owner = ''"
                " WHERE id = ? AND state = 'running'",
                (row.id,),
            )
            if marked.rowcount != 1:
                continue
            if row.attempts >= row.max_attempts:
                self.finish(
                    row.id,
                    "failed",
                    error=(
                        f"interrupted by a crash after {row.attempts} attempt(s); "
                        f"max_attempts={row.max_attempts} exhausted"
                    ),
                    from_states=("interrupted",),
                )
                failed.append(self.row(row.id))
                continue
            delay = backoff_seconds(row.id, row.attempts)
            self._execute(
                "UPDATE jobs SET state = 'queued', not_before = ?, error = ?"
                " WHERE id = ? AND state = 'interrupted'",
                (
                    now + delay,
                    f"interrupted by a crash (attempt {row.attempts})",
                    row.id,
                ),
            )
        runnable = [
            JobRow(values)
            for values in self._execute(
                f"SELECT {', '.join(_ROW_COLUMNS)} FROM jobs WHERE state = 'queued'"
                f" ORDER BY priority ASC, rowid ASC"
            ).fetchall()
        ]
        return runnable, failed

    # ------------------------------------------------------------------ #
    # Persistent counters
    # ------------------------------------------------------------------ #
    def meta_get(self, key: str, default: int = 0) -> int:
        cursor = self._execute("SELECT value FROM meta WHERE key = ?", (key,))
        value = cursor.fetchone()
        if value is None:
            return default
        try:
            return int(json.loads(value[0]))
        except (ValueError, TypeError):
            return default

    def meta_set(self, key: str, value: int) -> None:
        self._execute(
            "INSERT INTO meta (key, value) VALUES (?, ?)"
            " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, json.dumps(int(value))),
        )
