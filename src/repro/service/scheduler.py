"""Async job scheduler for the lifting service.

The scheduler runs lift jobs from one queue, a
:class:`repro.service.journal.JobJournal`, with a pool of workers that
drain it.  Without a journal argument the queue is a private in-memory
SQLite database; with one it is a durable file that survives restarts and
can be shared by several server processes.  Either way there is one code
path.  Service-level behaviours live here rather than in the synthesizer:

* **Deduplication** — a submission whose request digest matches a job that
  is already queued or running attaches to that job instead of enqueueing
  a second copy; the journal's partial unique index refuses a second
  active row per digest, no matter which process inserted the first.  A
  submission whose digest is already in the result store completes
  immediately and is recorded as a terminal row without being queued.
* **Prioritisation** — jobs carry an integer priority (lower runs first);
  ties are broken by submission order, so equal-priority traffic is FIFO.
* **Claiming** — a worker asks the journal for eligible rows and wins one
  with its atomic ``claim``.  It runs the local :class:`Job` handle when
  this process submitted the job and the handle is live; otherwise (a
  recovered row, another process's submission, a row requeued by ``repro
  jobs --requeue``) it materialises a fresh handle from the row.
* **The row is the authority** — a local handle this process is not
  running follows its row when another process sharing the journal acts
  on it: a row claimed elsewhere answers for itself, a row finished
  elsewhere finishes the handle, and a row queued again replaces a
  finished handle.  Lookups check this, and idle workers check every
  queued handle.
* **Durability** — every state transition is a guarded SQLite
  ``UPDATE``.  With a journal file the queue outlives the process, and
  construction replays it: ``QUEUED`` rows are adopted and orphaned
  ``RUNNING`` rows are marked ``INTERRUPTED`` and re-enqueued with
  exponential backoff + deterministic jitter, up to each row's bounded
  ``max_attempts``.
* **Retry with backoff** — a *transient* failure (``OSError``, which
  covers oracle socket flakes, injected :class:`~repro.service.faults.
  TransientFault`\\ s and kin) re-enqueues the job with backoff instead of
  failing it, up to ``max_attempts`` runs; deterministic failures
  (anything that is not an ``OSError``) fail immediately.  Result-store
  writes get their own small in-place retry loop.
* **Timeouts & cancellation** — each job runs under a cooperative
  :class:`repro.lifting.Budget` built from its wall-clock timeout.  The
  executor (such as :func:`repro.service.api.execute_request`) takes it as
  ``budget=`` and threads it through the whole pipeline — oracle, search
  and validator all poll it — so a deadline stops the synthesis and
  reports ``timed_out`` instead of abandoning the worker, and ``cancel()``
  stops a running job.

Workers are threads; the ``execution`` backend decides where a job's lift
runs.  On threads the worker calls the executor in-process (cheap, shares
the synthesizer's in-memory caches) and the job's ``stage`` field tracks
live pipeline progress for ``GET /status``.  On processes the worker runs
the executor in one child process through the portfolio race's run loop
(:func:`repro.portfolio.scheduler.race` with a single member) for CPU
isolation: the child polls a token the worker sets on ``cancel()`` or at
the deadline, and it is joined before the job finishes, so no child
outlives its job.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Optional, Tuple

from ..core.result import SynthesisReport
from ..lifting import Budget, LiftObserver
from ..lifting.executor import ExecutionConfig
from ..lifting.observer import CompositeObserver, tagged_member
from ..obs import MetricsRegistry
from ..obs import trace as obs_trace
from ..obs.trace import TracingObserver, job_span_id
from ..portfolio.scheduler import race, transport_for
from . import faults
from .journal import (
    DEFAULT_MAX_ATTEMPTS,
    DuplicateActiveDigest,
    JobJournal,
    JobRow,
    owner_token,
)
from .store import ResultStore

#: How many *terminal* job handles the scheduler keeps for status/result
#: lookups.  Older finished jobs answer from their journal rows (and their
#: results from the store, keyed by digest), which bounds memory in a
#: long-lived service.
DEFAULT_JOB_RETENTION = 1024

#: Longest an idle worker sleeps before asking the journal for work again
#: (submissions and retries wake it sooner; rows that other processes
#: insert, or whose backoff expires, are found by this poll).
CLAIM_POLL_SECONDS = 0.1

#: In-place retry budget for result-store writes (transient ``OSError``).
STORE_WRITE_ATTEMPTS = 3

#: Fallback per-job duration estimate (s) for Retry-After before any job
#: has completed.
DEFAULT_DRAIN_ESTIMATE_SECONDS = 60.0


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: A journal-only transient state: the row was RUNNING when its owner
    #: died; recovery immediately re-enqueues or fails it.
    INTERRUPTED = "interrupted"

    @property
    def terminal(self) -> bool:
        return self in (JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED)


@dataclass
class Job:
    """One scheduled lift."""

    id: str
    digest: str
    payload: object
    priority: int = 0
    timeout: Optional[float] = None
    state: JobState = JobState.QUEUED
    report: Optional[SynthesisReport] = None
    error: str = ""
    #: True when the job was answered from the result store without running.
    cached: bool = False
    #: How many submissions were coalesced onto this job (1 = no dedup).
    submissions: int = 1
    #: How many runs this job has consumed (restart-interrupted and
    #: transiently-failed runs count; the journal persists this).
    attempts: int = 0
    #: Live pipeline progress ("oracle", "search:2048", ...) on threads.
    stage: str = ""
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: The cooperative budget bounding this job's run (set by the claim).
    budget: Optional[Budget] = field(default=None, repr=False)
    #: Set (under the scheduler lock) once the finished report is committed:
    #: from then on `cancel()` refuses rather than racing the store write.
    _committed: bool = field(default=False, repr=False)
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state (True on arrival)."""
        return self._done.wait(timeout)

    def status_dict(self) -> Dict[str, object]:
        """JSON-safe status snapshot (what ``GET /status`` serves)."""
        status: Dict[str, object] = {
            "id": self.id,
            "digest": self.digest,
            "state": self.state.value,
            "priority": self.priority,
            "cached": self.cached,
            "submissions": self.submissions,
            "attempts": self.attempts,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.stage:
            status["stage"] = self.stage
        if self.error:
            status["error"] = self.error
        if self.state is JobState.SUCCEEDED and self.report is not None:
            status["success"] = self.report.success
        return status


class _JobObserver(LiftObserver):
    """Mirror pipeline progress onto the job so ``GET /status`` shows it live."""

    def __init__(self, job: "Job") -> None:
        self._job = job
        self._racing = False

    def _member_of(self, task_name: str) -> str:
        """The ``[member]`` attribution a portfolio tags stage events with.

        Only consulted once a ``member_started`` event marked this job as a
        race — a plain lift of a task whose *name* contains brackets must
        not be mistaken for a portfolio member.
        """
        if not self._racing:
            return ""
        return tagged_member(task_name)

    def stage_started(self, stage: str, task_name: str) -> None:
        member = self._member_of(task_name)
        self._job.stage = f"portfolio[{member}]:{stage}" if member else stage

    def stage_skipped(self, stage: str, task_name: str) -> None:
        member = self._member_of(task_name)
        if member:
            # Racing members resume from the portfolio's shared oracle state
            # — their skipped stages are shared work, not store replays.
            self._job.stage = f"portfolio[{member}]:{stage} (shared)"
        else:
            self._job.stage = f"{stage} (cached)"

    def search_progress(self, nodes_expanded: int, candidates_tried: int,
                        nodes_per_sec: float = 0.0,
                        duplicates_pruned: int = 0) -> None:
        prefix = "portfolio search" if self._racing else "search"
        self._job.stage = f"{prefix}:{nodes_expanded}"

    # Portfolio jobs: surface the race itself, not just pipeline stages.
    # Member events arrive from racing threads; the stage field is a plain
    # last-writer-wins snapshot, which is exactly what a live view wants.
    def member_started(self, member: str, task_name: str) -> None:
        self._racing = True
        self._job.stage = f"portfolio:{member}"

    def member_cancelled(self, member: str, task_name: str) -> None:
        self._job.stage = f"portfolio:{member} cancelled"

    def portfolio_winner(self, member: str, task_name: str) -> None:
        self._job.stage = f"portfolio winner:{member}"


def _execute(
    executor: Callable, payload: object, budget: Budget, observer: object
) -> SynthesisReport:
    """A job as a race member: runs in the child process."""
    return executor(payload, budget=budget, observer=observer)


def _is_transient(error: BaseException) -> bool:
    """Transient = worth a backoff retry.

    ``OSError`` covers the real transient universe here — socket flakes
    talking to an oracle, interrupted store writes, injected
    :class:`~repro.service.faults.TransientFault`\\ s.  Everything else
    (bad requests, synthesis bugs, deterministic
    :class:`~repro.service.faults.FaultError`\\ s) is deterministic: the
    same input would fail the same way, so retrying only burns budget.
    """
    return isinstance(error, OSError)


class JobScheduler:
    """Worker pool over one :class:`JobJournal` queue, with dedup, store
    hits and retries (an in-memory journal unless one is given)."""

    def __init__(
        self,
        executor: Callable[..., SynthesisReport],
        store: Optional[ResultStore] = None,
        workers: int = 2,
        provenance: Optional[Callable[[object], Dict[str, object]]] = None,
        job_retention: int = DEFAULT_JOB_RETENTION,
        journal: Optional[JobJournal] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        payload_codec: Optional[
            Tuple[Callable[[object], str], Callable[[str], object]]
        ] = None,
        metrics: Optional[MetricsRegistry] = None,
        retrieval_probe: Optional[Callable[[object], int]] = None,
        execution: Optional[ExecutionConfig] = None,
    ) -> None:
        if execution is not None:
            workers = execution.resolved_workers()
        if workers < 1:
            raise ValueError(f"scheduler needs at least one worker, got {workers}")
        #: Called as ``executor(payload, budget=..., observer=...)``.
        self._executor = executor
        #: The child-process transport for process-backed jobs, else None.
        self._transport = None
        if execution is not None and execution.uses_processes:
            self._transport = transport_for(execution)
        self._store = store
        self._provenance = provenance
        #: On a store miss, ``retrieval_probe(payload)`` reports how many
        #: similar solved kernels the retrieval index can seed the cold job
        #: with (0 when the index is disarmed).  Purely observational — the
        #: seeding itself happens inside the executor's pipeline.
        self._retrieval_probe = retrieval_probe
        self._journal = journal if journal is not None else JobJournal()
        self._owner = owner_token()
        self._max_attempts = max(1, int(max_attempts))
        encode, decode = payload_codec or (json.dumps, json.loads)
        self._encode_payload = encode
        self._decode_payload = decode
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        #: id -> live handle: this process's queued/running jobs plus the
        #: newest terminal ones (the retention ring).
        self._jobs: Dict[str, Job] = {}
        self._retention = max(1, int(job_retention))
        self._finished_order: deque = deque()  # terminal job ids, oldest first
        self._shutdown = False
        self._drain_on_shutdown = True
        # Lifetime counters live on the metrics registry, so GET /stats and
        # GET /metrics read the same cells and can never drift apart.  Call
        # sites hold direct Counter references — no registry lookup on the
        # job paths.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._deduplicated = self.metrics.counter(
            "repro_jobs_deduplicated_total",
            "Submissions coalesced onto an already queued/running digest",
        )
        self._store_answers = self.metrics.counter(
            "repro_jobs_store_answers_total",
            "Submissions answered from the content-addressed result store",
        )
        self._budget_truncated = self.metrics.counter(
            "repro_jobs_budget_truncated_total",
            "Jobs cut short by their wall-clock budget",
        )
        self._retried = self.metrics.counter(
            "repro_jobs_retried_total",
            "Transiently-failed jobs re-enqueued with backoff",
        )
        self._recovered = self.metrics.counter(
            "repro_jobs_recovered_total",
            "Journal rows re-adopted at startup after a crash",
        )
        self._store_write_retries = self.metrics.counter(
            "repro_store_write_retries_total",
            "Transient result-store write failures retried in place",
        )
        self._retrieval_probes = self.metrics.counter(
            "repro_retrieval_probes_total",
            "Store-miss submissions probed against the retrieval index",
        )
        self._retrieval_seedable = self.metrics.counter(
            "repro_retrieval_seedable_total",
            "Probed submissions with at least one similar solved neighbor",
        )
        self._retrieval_seed_attempts = self.metrics.counter(
            "repro_retrieval_seed_attempts_total",
            "Finished jobs whose lift ran with similarity seeding armed",
        )
        self._retrieval_seed_hits = self.metrics.counter(
            "repro_retrieval_seed_hits_total",
            "Finished jobs answered by a tier-0 seeded candidate (search skipped)",
        )
        self._finished_counts = {
            state: self.metrics.counter(
                "repro_jobs_finished_total",
                "Jobs reaching a terminal state, by state",
                labels={"state": state.value},
            )
            for state in (JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED)
        }
        self._job_duration = self.metrics.histogram(
            "repro_job_duration_seconds",
            "Run time of terminal jobs (claim to finish; p50/p95/p99 derivable)",
        )
        self._job_queue_wait = self.metrics.histogram(
            "repro_job_queue_wait_seconds",
            "Time terminal jobs spent queued before being claimed",
        )
        self.metrics.gauge(
            "repro_queue_depth", "Jobs waiting to run", fn=self.queue_depth
        )
        self.metrics.gauge(
            "repro_oldest_queued_age_seconds",
            "Age of the oldest queued job",
            fn=self.oldest_queued_age,
        )
        #: (finished_at, duration) of recent terminal jobs — the drain-rate
        #: sample backing Retry-After estimates.
        self._recent_finishes: deque = deque(maxlen=32)
        self._recover_from_journal()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"lift-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------ #
    # Journal rows -> job handles
    # ------------------------------------------------------------------ #
    @property
    def journal(self) -> JobJournal:
        return self._journal

    def _materialize(self, row: JobRow, payload: object = None) -> Job:
        """A :class:`Job` handle for a journal row.

        Decodes the row's payload unless the caller already holds it;
        raises when the journaled payload is unreadable.
        """
        job = Job(
            id=row.id,
            digest=row.digest,
            payload=self._decode_payload(row.payload) if payload is None else payload,
            priority=int(row.priority),
            timeout=row.timeout,
            state=JobState(row.state),
            submissions=int(row.submissions),
            attempts=int(row.attempts),
            created_at=float(row.created_at),
        )
        job.error = row.error or ""
        return job

    def _recover_from_journal(self) -> None:
        """Replay the journal at startup (crash recovery).

        Recovered rows stay queued in the journal; a worker materialises
        each one when it claims it.
        """
        runnable, _failed = self._journal.recover()
        for row in runnable:
            faults.log_event(
                "job.recovered", id=row.id, digest=row.digest, attempts=row.attempts
            )
        self._recovered.inc(len(runnable))
        if runnable:
            self._journal.meta_set(
                "recovered_total",
                self._journal.meta_get("recovered_total") + len(runnable),
            )

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        payload: object,
        digest: str,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> Job:
        """Schedule a lift; may return an existing (deduplicated) job.

        The returned job is immediately terminal when the digest was
        already answered in the result store.  Otherwise the submission is
        a journal row before this returns, so with a journal file it
        survives a crash from this point on.
        """
        with self._lock:
            if self._shutdown:
                raise RuntimeError("scheduler is shut down")
        active = self._journal.active_for_digest(digest)
        if active is not None:
            return self._attach(active.id, digest, payload)
        job = Job(
            id=f"job-{uuid.uuid4().hex[:10]}-{digest[:8]}",
            digest=digest,
            payload=payload,
            priority=priority,
            timeout=timeout,
        )
        encoded = self._encode_json_payload(payload)
        if self._store is not None:
            entry = self._store.get(digest)
            if entry is not None:
                job.report = entry.report
                job.cached = True
                with self._lock:
                    self._store_answers.inc()
                self._journal.record_cached(
                    job.id, digest, encoded, priority=priority, timeout=timeout
                )
                self._finish(job, JobState.SUCCEEDED)
                return job
        # Cold work from here on: before queueing, ask the retrieval layer
        # whether similar solved kernels exist to seed this lift with.
        self._probe_retrieval(payload, digest)
        with self._work_ready:
            try:
                self._journal.insert(
                    job.id,
                    digest,
                    encoded,
                    priority=priority,
                    timeout=timeout,
                    max_attempts=self._max_attempts,
                )
            except DuplicateActiveDigest as duplicate:
                existing_id = duplicate.existing_id
            else:
                # Registered under the lock workers claim under, so a claim
                # finds this handle rather than materialising another.
                existing_id = None
                self._jobs[job.id] = job
                self._work_ready.notify()
        if existing_id is not None:
            # Another thread or process queued the digest since the
            # active-row check above.
            return self._attach(existing_id, digest, payload)
        self._trace_job_event(job, "job.queued", ts=job.created_at)
        return job

    def _probe_retrieval(self, payload: object, digest: str) -> None:
        """Count how seedable a store-missed submission is (best-effort).

        Disarmed (no probe callback, or an empty index behind it) this is
        one ``is None`` check per cold submission; a broken probe must
        never fail the submission it was only describing.
        """
        if self._retrieval_probe is None:
            return
        try:
            neighbors = int(self._retrieval_probe(payload))
        except Exception:  # noqa: BLE001 - observational only
            return
        with self._lock:
            self._retrieval_probes.inc()
            if neighbors > 0:
                self._retrieval_seedable.inc()
        if neighbors > 0:
            faults.log_event(
                "job.seedable", digest=digest, neighbors=neighbors
            )

    def _count_seed_outcome(self, report: SynthesisReport) -> None:
        """Fold the report's seed-stage verdict into the lifetime counters."""
        details = getattr(report, "details", None)
        retrieval = details.get("retrieval") if isinstance(details, dict) else None
        if not isinstance(retrieval, dict) or not retrieval.get("armed"):
            return
        with self._lock:
            self._retrieval_seed_attempts.inc()
            if retrieval.get("hit"):
                self._retrieval_seed_hits.inc()

    def _encode_json_payload(self, payload: object) -> str:
        try:
            return self._encode_payload(payload)
        except Exception:  # noqa: BLE001 - journal a marker, not nothing
            return json.dumps({"unencodable": repr(payload)})

    def _attach(self, job_id: str, digest: str, payload: object) -> Job:
        """Coalesce a submission onto the active job *job_id*.

        The caller gets this process's handle for the job (see
        :meth:`_current_locked`).  An active row with no local handle
        belongs to another process sharing the journal; the caller gets a
        snapshot whose id resolves through the journal.
        """
        with self._lock:
            self._deduplicated.inc()
            job = self._current_locked(job_id)
            if job is not None:
                job.submissions += 1
        self._journal.record_attach(job_id)
        if job is not None:
            return job
        row = self._journal.row(job_id)
        if row is None:  # pragma: no cover - row pruned mid-attach
            return Job(id=job_id, digest=digest, payload=payload)
        return self._materialize(row, payload)

    def _current_locked(self, job_id: str) -> Optional[Job]:
        """This process's handle for *job_id*, brought in line with its row.

        A running handle is the authority; any other handle follows the
        journal row, which another process sharing the file may have moved:

        * row claimed elsewhere (handle still queued): None, the row answers;
        * row finished elsewhere: the handle is finished from the row;
        * row queued again after the handle finished (``repro jobs
          --requeue``): the old handle's done event is already set, so a
          fresh handle from the row replaces it.

        A finished handle whose row is still running is returned as is:
        its finish is being written, and its ``wait()`` has returned.
        """
        job = self._jobs.get(job_id)
        if job is None or job.state is JobState.RUNNING:
            return job
        row = self._journal.row(job_id)
        if row is None:
            if job.state is JobState.QUEUED:  # finished elsewhere, pruned since
                del self._jobs[job_id]
                return None
            return job
        if row.state == JobState.QUEUED.value:
            if job.state.terminal:
                job = self._fresh_handle_locked(row, job)
            return job
        if job.state is JobState.QUEUED:
            if not row.terminal:
                return None
            self._settle_locked(job, row)
        return job

    def _fresh_handle_locked(self, row: JobRow, old: Optional[Job]) -> Job:
        """Materialise *row* as this process's handle, replacing *old* (a
        finished handle, or None).  Raises when the payload is unreadable."""
        job = self._materialize(row, old.payload if old is not None else None)
        if old is not None:
            self._finished_order.remove(row.id)
        self._jobs[row.id] = job
        return job

    def _settle_locked(self, job: Job, row: JobRow) -> None:
        """Finish a local queued handle from a row another process finished."""
        job.state = JobState(row.state)
        job.error = row.error or ""
        job.cached = bool(row.cached)
        job.attempts = int(row.attempts)
        job.started_at = row.started_at
        job.finished_at = row.finished_at
        if job.state is JobState.SUCCEEDED and self._store is not None:
            entry = self._store.get(job.digest)
            if entry is not None:
                job.report = entry.report
        self._retire_locked(job)
        job._done.set()

    # ------------------------------------------------------------------ #
    # Introspection / control
    # ------------------------------------------------------------------ #
    def job(self, job_id: str) -> Optional[Job]:
        """This process's handle for *job_id* (None: the row answers)."""
        with self._lock:
            return self._current_locked(job_id)

    def is_active(self, digest: str) -> bool:
        """Whether *digest* has a queued/running job (in any process sharing
        the journal) that a submission would join."""
        return self._journal.active_for_digest(digest) is not None

    def journal_row(self, job_id: str) -> Optional[JobRow]:
        """The journal's view of a job (survives restarts and the ring)."""
        return self._journal.row(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job.

        Queued jobs (including journal rows this process holds no handle
        for) are cancelled immediately.  A *running* job can be
        cancelled on either backend: its budget's cancellation token is
        flipped and the synthesis pipeline winds down at its next poll
        point, after which the job finishes as CANCELLED (its truncated
        report is never written to the store).
        """
        with self._lock:
            job = self._current_locked(job_id)
            if job is None:
                # A recovered row not yet claimed, or another process's.
                return self._journal.finish(
                    job_id, JobState.CANCELLED.value, from_states=("queued",)
                )
            if job.state is JobState.RUNNING:
                # A committed job's report is (being) stored; refuse rather
                # than report a cancellation that can no longer take effect.
                if job._committed:
                    return False
                job.budget.cancel()
                return True
            # The guarded transition runs under the lock workers claim
            # under, so no worker can claim the row once it is cancelled.
            if job.state is not JobState.QUEUED or not self._journal.finish(
                job.id, JobState.CANCELLED.value, from_states=("queued",)
            ):
                return False
            job.state = JobState.CANCELLED
        self._finish(job, JobState.CANCELLED)
        return True

    def queue_depth(self) -> int:
        """Jobs waiting to run, journal-wide."""
        return self._journal.queue_depth()

    def oldest_queued_age(self) -> Optional[float]:
        """Age (s) of the oldest queued job — the backlog staleness gauge."""
        return self._journal.oldest_queued_age()

    def estimate_retry_after(self, depth: Optional[int] = None) -> int:
        """Seconds an overloaded client should wait, from the drain rate.

        Recent terminal jobs give an average service time; the backlog
        divided across the worker pool turns that into a drain estimate.
        Before any job has finished a conservative default is used.
        """
        if depth is None:
            depth = self.queue_depth()
        with self._lock:
            recent = list(self._recent_finishes)
            workers = len(self._workers)
        if recent:
            average = sum(duration for _, duration in recent) / len(recent)
        else:
            average = DEFAULT_DRAIN_ESTIMATE_SECONDS
        estimate = math.ceil(max(1, depth) * average / max(1, workers))
        return int(min(max(estimate, 1), 600))

    def stats(self) -> Dict[str, object]:
        """Lifetime counters (terminal counts survive job eviction)."""
        counts = self._journal.counts()
        oldest = self.oldest_queued_age()
        with self._lock:
            return {
                "queued": counts.get(JobState.QUEUED.value, 0),
                "running": counts.get(JobState.RUNNING.value, 0),
                "succeeded": int(self._finished_counts[JobState.SUCCEEDED].value),
                "failed": int(self._finished_counts[JobState.FAILED].value),
                "cancelled": int(self._finished_counts[JobState.CANCELLED].value),
                "deduplicated": int(self._deduplicated.value),
                "store_answers": int(self._store_answers.value),
                "budget_truncated": int(self._budget_truncated.value),
                "queue_depth": counts.get(JobState.QUEUED.value, 0),
                "oldest_queued_age": oldest,
                "retried": int(self._retried.value),
                "recovered": int(self._recovered.value),
                "store_write_retries": int(self._store_write_retries.value),
                "retrieval_probes": int(self._retrieval_probes.value),
                "retrieval_seedable": int(self._retrieval_seedable.value),
                "retrieval_seed_attempts": int(
                    self._retrieval_seed_attempts.value
                ),
                "retrieval_seed_hits": int(self._retrieval_seed_hits.value),
            }

    def shutdown(
        self,
        wait: bool = True,
        timeout: Optional[float] = 10.0,
        drain: Optional[bool] = None,
    ) -> None:
        """Stop the workers.

        ``drain`` controls what happens to still-queued jobs: True finishes
        them first, False stops after the jobs already running.  The
        default drains an in-memory journal (dropping its rows would lose
        work forever) and leaves a journal file's queued rows for the next
        start to adopt.
        """
        if drain is None:
            drain = self._journal.path is None
        with self._lock:
            self._shutdown = True
            self._drain_on_shutdown = drain
            self._work_ready.notify_all()
        if wait:
            for thread in self._workers:
                thread.join(timeout)

    # ------------------------------------------------------------------ #
    # Job lifecycle tracing (no-ops unless a trace writer is armed)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _task_label(job: Job) -> str:
        for attr in ("benchmark", "name"):
            value = getattr(job.payload, attr, None)
            if value:
                return str(value)
        return job.digest[:12]

    def _trace_job_event(self, job: Job, name: str,
                         ts: Optional[float] = None, **attrs: object) -> None:
        tracer = obs_trace.writer()
        if tracer is not None:
            tracer.event(job.id, job_span_id(job.id), name, ts=ts,
                         digest=job.digest, **attrs)

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            job = self._claim_next()
            if job is None:
                return
            self._run_job(job)

    def _claim_next(self) -> Optional[Job]:
        """Block until this worker claims a job (None = shutdown).

        Rows are read and claimed under the scheduler lock, so a
        submission's wake-up cannot slip in between a worker's empty read
        and its wait.  An idle worker brings queued handles in line with
        their rows, so a job another process claimed or cancelled still
        completes here.
        """
        with self._work_ready:
            while True:
                try:
                    if self._shutdown and (
                        not self._drain_on_shutdown
                        or not self._journal.queue_depth()
                    ):
                        return None
                    for row in self._journal.eligible(limit=8):
                        job = self._claim_locked(row)
                        if job is not None:
                            return job
                    queued = [
                        job.id for job in self._jobs.values()
                        if job.state is JobState.QUEUED
                    ]
                    for job_id in queued:
                        self._current_locked(job_id)
                except Exception:  # noqa: BLE001 - a sick journal must not kill workers
                    if self._shutdown:
                        return None
                self._work_ready.wait(CLAIM_POLL_SECONDS)

    def _claim_locked(self, row: JobRow) -> Optional[Job]:
        """Win *row* for this worker and mark its handle RUNNING."""
        if not self._journal.claim(row.id, self._owner):
            return None  # another worker or process won the row
        job = self._jobs.get(row.id)
        if job is None or job.state.terminal:
            # A recovered row, another process's submission, or a job that
            # finished here and was requeued since.
            try:
                job = self._fresh_handle_locked(row, job)
            except Exception as error:  # noqa: BLE001 - rot must not kill workers
                self._journal.finish(
                    row.id, "failed", error=f"unreadable journaled payload: {error}"
                )
                return None
        # State flip + budget creation happen under the same lock
        # acquisition, so cancel() never observes a running job without a
        # budget to cancel.
        job.state = JobState.RUNNING
        job.started_at = time.time()
        job.attempts = int(row.attempts) + 1
        job.budget = Budget(timeout_seconds=job.timeout)
        return job

    def _run_in_child(self, job: Job) -> SynthesisReport:
        """Run *job*'s executor in a child process under the job's budget.

        The race loop with one member: ``cancel()`` or the deadline expires
        ``job.budget``, the loop sets the child's token, and the child is
        joined before this returns.
        """
        (run,), _winner = race(
            [(job.id, functools.partial(_execute, self._executor, job.payload))],
            task_name=self._task_label(job),
            transport=self._transport,
            budget=job.budget,
        )
        if run.exception is not None:
            raise run.exception
        return run.report

    def _maybe_retry(self, job: Job) -> bool:
        """Re-enqueue a transiently-failed job with backoff (True = retried).

        The journal refuses once the row's ``max_attempts`` are spent.
        """
        with self._work_ready:
            if self._shutdown and not self._drain_on_shutdown:
                return False
            if job.budget.cancelled:
                return False
            not_before = self._journal.requeue(job.id, error=job.error)
            if not_before is None:
                return False
            job.state = JobState.QUEUED
            job.started_at = None
            job.budget = None
            job.stage = ""
            self._retried.inc()
            self._work_ready.notify()
        faults.log_event(
            "job.retry",
            id=job.id,
            digest=job.digest,
            attempts=job.attempts,
            not_before=not_before,
            error=job.error,
        )
        return True

    def _store_put_with_retry(self, job: Job, report: SynthesisReport) -> None:
        """Persist the report, riding out transient write failures in place."""
        try:
            provenance = self._provenance(job.payload) if self._provenance else {}
        except Exception as error:  # noqa: BLE001 - provenance is best-effort
            provenance = {"provenance_error": f"{type(error).__name__}: {error}"}
        last_error: Optional[OSError] = None
        for attempt in range(STORE_WRITE_ATTEMPTS):
            try:
                self._store.put(job.digest, report, provenance=provenance)
                return
            except OSError as error:
                last_error = error
                if attempt + 1 < STORE_WRITE_ATTEMPTS:
                    with self._lock:
                        self._store_write_retries.inc()
                    time.sleep(0.05 * (2 ** attempt))
        job.error = f"result store write failed: {last_error}"

    def _run_job(self, job: Job) -> None:
        faults.log_event(
            "job.started", id=job.id, digest=job.digest, attempts=job.attempts
        )
        self._trace_job_event(
            job, "job.claimed", ts=job.started_at, attempts=job.attempts
        )
        if self._store is not None:
            # A job may have been answered between journaling and claiming
            # (by another process, or by a pre-crash worker that stored the
            # result but died before finishing the row).  Serving the stored
            # answer here is what makes "no digest is synthesized twice"
            # hold across processes and restarts.
            entry = self._store.get(job.digest)
            if entry is not None:
                job.report = entry.report
                job.cached = True
                with self._lock:
                    self._store_answers.inc()
                self._finish(job, JobState.SUCCEEDED)
                return
        lift_tracer: Optional[TracingObserver] = None
        try:
            if self._transport is not None:
                report = self._run_in_child(job)
            else:
                # The job's deadline is a cooperative budget (created by
                # the claim, under the lock) threaded through the whole
                # pipeline (oracle, search, validator), so a timeout stops
                # the synthesis instead of abandoning the thread, and
                # `cancel()` can stop a running job.
                observer: LiftObserver = _JobObserver(job)
                tracer = obs_trace.writer()
                if tracer is not None:
                    # Armed tracing: the lift's span tree hangs under the
                    # job's lifetime span (trace_id = job id).
                    self._trace_job_event(job, "job.running")
                    lift_tracer = TracingObserver(
                        tracer,
                        task=self._task_label(job),
                        trace_id=job.id,
                        parent_id=job_span_id(job.id),
                    )
                    observer = CompositeObserver(observer, lift_tracer)
                report = self._executor(
                    job.payload, budget=job.budget, observer=observer
                )
        except BaseException as error:  # noqa: BLE001 - never kill a worker
            job.error = f"{type(error).__name__}: {error}"
            if lift_tracer is not None:
                lift_tracer.close(success=False, error=job.error)
            if _is_transient(error) and self._maybe_retry(job):
                return
            self._finish(job, JobState.FAILED)
            return
        job.report = report
        self._count_seed_outcome(report)
        if lift_tracer is not None:
            lift_tracer.close(success=report.success, timed_out=report.timed_out)
        # Commit point: decided under the lock so it serializes with
        # cancel() — either the cancellation landed first (the run was
        # truncated; finish CANCELLED, never store) or the job is committed
        # and cancel() refuses from now on.
        with self._lock:
            cancelled = job.budget.cancelled
            job._committed = not cancelled
            # Deadline truncations are first-class service telemetry: a job
            # whose report was cut short by its wall-clock budget (but not
            # explicitly cancelled) counts once, surfaced via GET /stats.
            if not cancelled and report.timed_out:
                self._budget_truncated.inc()
        if cancelled:
            # An explicitly cancelled run stops at an arbitrary point, so its
            # truncated report is not the deterministic answer for this
            # digest — surface it on the job but never store it.
            self._finish(job, JobState.CANCELLED)
            return
        # Deadline-timed-out reports ARE stored: the job's budget equals the
        # request timeout, which LiftingService bakes into the digest before
        # scheduling, so a budget-driven timeout is the deterministic answer
        # for this digest — exactly as config-timeout reports were before
        # cooperative budgets existed (warm replays must reproduce them).
        if self._store is not None:
            self._store_put_with_retry(job, report)
        self._finish(job, JobState.SUCCEEDED)

    def _retire_locked(self, job: Job) -> None:
        """Keep a terminal handle in the retention ring.

        Bounds memory: handles are kept only for the newest terminal jobs;
        older ones answer from their journal rows, and completed results
        stay in the store.
        """
        self._jobs[job.id] = job
        self._finished_order.append(job.id)
        while len(self._finished_order) > self._retention:
            self._jobs.pop(self._finished_order.popleft(), None)

    def _finish(self, job: Job, state: JobState) -> None:
        with self._lock:
            job.state = state
            # The stage field reports *live* progress; a terminal state is
            # the authority once the job is done.
            job.stage = ""
            job.finished_at = time.time()
            self._finished_counts[state].inc()
            duration = max(0.0, job.finished_at - (job.started_at or job.created_at))
            self._job_duration.observe(duration)
            if job.started_at is not None:
                self._job_queue_wait.observe(
                    max(0.0, job.started_at - job.created_at)
                )
            self._recent_finishes.append((job.finished_at, duration))
            self._retire_locked(job)
        try:
            self._journal.finish(
                job.id, state.value, error=job.error, cached=job.cached
            )
        except Exception:  # noqa: BLE001 - a sick journal must not wedge jobs
            pass
        faults.log_event(
            "job.finished",
            id=job.id,
            digest=job.digest,
            state=state.value,
            cached=job.cached,
        )
        tracer = obs_trace.writer()
        if tracer is not None:
            self._trace_job_event(
                job, "job.done", ts=job.finished_at,
                state=state.value, cached=job.cached,
            )
            # The job's lifetime span, written now that its end is known;
            # lifecycle events referenced its deterministic id all along.
            tracer.span(
                job.id, job_span_id(job.id), None, "job",
                job.created_at, job.finished_at,
                id=job.id, digest=job.digest, state=state.value,
                cached=job.cached, attempts=job.attempts,
                task=self._task_label(job),
            )
        job._done.set()
