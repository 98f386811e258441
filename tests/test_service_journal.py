"""Tests for the crash-safe SQLite job journal and its scheduler wiring.

The unit half drives :class:`JobJournal` directly — atomic transitions,
duplicate-digest refusal, bounded-retry requeues, orphan recovery.  The
integration half runs journal-backed :class:`JobScheduler` instances
through submit/retry/restart flows, including the "pretend this process
just crashed" path: write rows into a journal, open a *new* scheduler on
it, and watch the work come back.
"""

from __future__ import annotations

import json
import socket
import subprocess
import threading
import time

import pytest

from repro.core.result import SynthesisReport
from repro.service import (
    JobJournal,
    JobScheduler,
    JobState,
    LiftRequest,
    LiftingService,
    ResultStore,
    backoff_seconds,
    resolve_journal_path,
)
from repro.service import faults
from repro.service.journal import (
    BACKOFF_CAP_SECONDS,
    MEMORY,
    TERMINAL_ROW_RETENTION,
    DuplicateActiveDigest,
    owner_token,
)


def _report(name: str = "t", success: bool = True) -> SynthesisReport:
    return SynthesisReport(task_name=name, method="test", success=success)


def _echo(payload, budget=None, observer=None) -> SynthesisReport:
    """An executor whose report is named after its payload."""
    return _report(str(payload))


def _eventually(predicate, timeout: float = 10.0) -> bool:
    """Poll *predicate* until it holds or *timeout* seconds pass."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def _dead_pid() -> int:
    """A pid that provably belonged to a process that has exited."""
    process = subprocess.Popen(["true"])
    process.wait()
    return process.pid


@pytest.fixture(params=["file", "memory"])
def journal(request, tmp_path):
    """Each unit test runs on a WAL file and on a private in-memory journal."""
    path = tmp_path / "jobs.journal.sqlite3" if request.param == "file" else MEMORY
    journal = JobJournal(path)
    yield journal
    journal.close()


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    faults.reset()


# ---------------------------------------------------------------------- #
# Unit: backoff and path resolution
# ---------------------------------------------------------------------- #
def test_backoff_is_deterministic_exponential_and_capped():
    assert backoff_seconds("job-a", 1) == backoff_seconds("job-a", 1)
    assert backoff_seconds("job-a", 1) != backoff_seconds("job-b", 1)
    assert backoff_seconds("job-a", 2) > backoff_seconds("job-a", 1)
    assert backoff_seconds("job-a", 50) == BACKOFF_CAP_SECONDS


def test_resolve_journal_path(tmp_path):
    directory = tmp_path / "data"
    directory.mkdir()
    assert resolve_journal_path(directory).name == "jobs.journal.sqlite3"
    explicit = tmp_path / "custom.journal.sqlite3"
    assert resolve_journal_path(explicit) == explicit
    # A not-yet-existing extensionless path is treated as a directory.
    assert (resolve_journal_path(tmp_path / "fresh")).name == "jobs.journal.sqlite3"


# ---------------------------------------------------------------------- #
# Unit: transitions
# ---------------------------------------------------------------------- #
class TestTransitions:
    def test_insert_and_row_round_trip(self, journal):
        journal.insert("j1", "d1" * 8, '{"x": 1}', priority=2, timeout=30.0)
        row = journal.row("j1")
        assert row.state == "queued"
        assert row.priority == 2
        assert row.timeout == 30.0
        assert row.attempts == 0
        assert not row.terminal
        assert journal.queue_depth() == 1
        assert journal.oldest_queued_age() >= 0.0

    def test_duplicate_active_digest_is_refused(self, journal):
        journal.insert("j1", "dup" * 4, "{}")
        with pytest.raises(DuplicateActiveDigest) as excinfo:
            journal.insert("j2", "dup" * 4, "{}")
        assert excinfo.value.existing_id == "j1"
        # Once the first row is terminal, the digest is free again.
        assert journal.claim("j1")
        assert journal.finish("j1", "succeeded")
        journal.insert("j2", "dup" * 4, "{}")

    def test_claim_is_single_winner(self, journal):
        journal.insert("j1", "d1", "{}")
        assert journal.claim("j1", "worker-a")
        assert not journal.claim("j1", "worker-b")  # already running
        row = journal.row("j1")
        assert row.state == "running"
        assert row.owner == "worker-a"
        assert row.attempts == 1

    def test_claim_respects_backoff_window(self, journal):
        journal.insert("j1", "d1", "{}")
        assert journal.claim("j1")
        assert journal.requeue("j1", error="flake") is not None
        # not_before is in the future, so an immediate claim loses.
        assert not journal.claim("j1")
        assert journal.row("j1").state == "queued"

    def test_finish_is_guarded_by_state(self, journal):
        journal.insert("j1", "d1", "{}")
        assert journal.claim("j1")
        assert journal.finish("j1", "succeeded")
        assert not journal.finish("j1", "failed")  # already terminal
        assert journal.row("j1").state == "succeeded"
        with pytest.raises(ValueError):
            journal.finish("j1", "queued")

    def test_requeue_respects_max_attempts(self, journal):
        journal.insert("j1", "d1", "{}", max_attempts=2)
        assert journal.claim("j1")
        not_before = journal.requeue("j1", error="flake 1")
        assert not_before is not None and not_before > time.time()
        time.sleep(max(0.0, not_before - time.time()) + 0.01)
        assert journal.claim("j1")
        # Second requeue would exceed max_attempts=2: refused.
        assert journal.requeue("j1", error="flake 2") is None
        assert journal.row("j1").attempts == 2

    def test_requeue_terminal_resets_the_attempt_budget(self, journal):
        journal.insert("j1", "d1", "{}", max_attempts=1)
        assert journal.claim("j1")
        assert journal.finish("j1", "failed", error="boom")
        assert journal.requeue_terminal("j1")
        row = journal.row("j1")
        assert row.state == "queued"
        assert row.attempts == 0
        assert row.error == ""
        # Active (queued/running) rows cannot be operator-requeued.
        assert not journal.requeue_terminal("j1")

    def test_finishing_prunes_old_terminal_rows_but_never_active_ones(self, journal):
        journal.insert("queued-1", "dq", "{}")
        journal.insert("running-1", "dr", "{}")
        assert journal.claim("running-1")
        finished = TERMINAL_ROW_RETENTION + 50
        for i in range(finished):
            journal.insert(f"j{i}", f"d{i}", "{}")
            assert journal.finish(f"j{i}", "succeeded")
        counts = journal.counts()
        terminal = sum(counts.get(s, 0) for s in ("succeeded", "failed", "cancelled"))
        assert 0 < terminal <= TERMINAL_ROW_RETENTION
        assert journal.row("j0") is None  # the oldest terminal rows are gone
        assert journal.row(f"j{finished - 1}").state == "succeeded"
        assert journal.row("queued-1").state == "queued"
        assert journal.row("running-1").state == "running"

    def test_counts_and_meta(self, journal):
        journal.insert("j1", "d1", "{}")
        journal.insert("j2", "d2", "{}")
        assert journal.claim("j2")
        assert journal.counts() == {"queued": 1, "running": 1}
        assert journal.meta_get("rejected_total") == 0
        journal.meta_set("rejected_total", 7)
        assert journal.meta_get("rejected_total") == 7


# ---------------------------------------------------------------------- #
# Unit: crash recovery
# ---------------------------------------------------------------------- #
class TestRecovery:
    def test_recover_requeues_orphans_of_dead_processes(self, journal):
        journal.insert("j1", "d1", "{}")
        dead_owner = f"{socket.gethostname()}:{_dead_pid()}"
        assert journal.claim("j1", dead_owner)
        runnable, failed = journal.recover()
        assert failed == []
        assert [row.id for row in runnable] == ["j1"]
        row = journal.row("j1")
        assert row.state == "queued"
        assert row.not_before > time.time()  # backoff applied
        assert "interrupted by a crash" in row.error

    def test_recover_leaves_live_owners_alone(self, journal):
        journal.insert("j1", "d1", "{}")
        assert journal.claim("j1", owner_token())  # this process: alive
        runnable, failed = journal.recover()
        assert runnable == [] and failed == []
        assert journal.row("j1").state == "running"

    def test_recover_fails_orphans_past_their_attempt_budget(self, journal):
        journal.insert("j1", "d1", "{}", max_attempts=1)
        dead_owner = f"{socket.gethostname()}:{_dead_pid()}"
        assert journal.claim("j1", dead_owner)
        runnable, failed = journal.recover()
        assert runnable == []
        assert [row.id for row in failed] == ["j1"]
        row = journal.row("j1")
        assert row.state == "failed"
        assert "max_attempts=1 exhausted" in row.error

    def test_recover_declares_unprobeable_owners_stale_after_grace(self, journal):
        journal.insert("j1", "d1", "{}", timeout=1.0)
        assert journal.claim("j1", "elsewhere:12345")  # other host: unprobeable
        runnable, _ = journal.recover()
        assert runnable == []  # within timeout + grace: assumed running
        # An injected clock skew pushes the journal past the staleness
        # horizon without sleeping through the real grace period.
        faults.configure({"clock": "skew3600"})
        runnable, _ = journal.recover()
        assert [row.id for row in runnable] == ["j1"]


# ---------------------------------------------------------------------- #
# Integration: journal-backed scheduler
# ---------------------------------------------------------------------- #
class TestJournalScheduler:
    def test_submission_is_journaled_through_to_terminal(self, tmp_path):
        journal = JobJournal(tmp_path)
        scheduler = JobScheduler(
            _echo, workers=1, journal=journal
        )
        try:
            job = scheduler.submit("x", digest="d1" * 8)
            assert job.wait(10)
            assert job.state is JobState.SUCCEEDED
            row = journal.row(job.id)
            assert row.state == "succeeded"
            assert row.attempts == 1
        finally:
            scheduler.shutdown()
            journal.close()

    def test_transient_failures_retry_with_backoff_then_succeed(self, tmp_path):
        journal = JobJournal(tmp_path)
        calls = []

        def flaky(payload, budget=None, observer=None):
            calls.append(payload)
            if len(calls) < 3:
                raise OSError("oracle connection reset")
            return _report(str(payload))

        scheduler = JobScheduler(flaky, workers=1, journal=journal)
        try:
            job = scheduler.submit("x", digest="df" * 8)
            assert job.wait(30)
            assert job.state is JobState.SUCCEEDED
            assert len(calls) == 3
            assert job.attempts == 3
            assert scheduler.stats()["retried"] == 2
            assert journal.row(job.id).attempts == 3
        finally:
            scheduler.shutdown()
            journal.close()

    def test_deterministic_failures_do_not_retry(self, tmp_path):
        journal = JobJournal(tmp_path)
        calls = []

        def broken(payload, budget=None, observer=None):
            calls.append(payload)
            raise ValueError("bad grammar")

        scheduler = JobScheduler(broken, workers=1, journal=journal)
        try:
            job = scheduler.submit("x", digest="db" * 8)
            assert job.wait(10)
            assert job.state is JobState.FAILED
            assert len(calls) == 1
            assert scheduler.stats()["retried"] == 0
            assert journal.row(job.id).state == "failed"
        finally:
            scheduler.shutdown()
            journal.close()

    def test_attempts_are_bounded(self, tmp_path):
        journal = JobJournal(tmp_path)
        calls = []

        def always_flaky(payload, budget=None, observer=None):
            calls.append(payload)
            raise OSError("still down")

        scheduler = JobScheduler(
            always_flaky, workers=1, journal=journal, max_attempts=2
        )
        try:
            job = scheduler.submit("x", digest="da" * 8)
            assert job.wait(30)
            assert job.state is JobState.FAILED
            assert len(calls) == 2
            assert journal.row(job.id).attempts == 2
        finally:
            scheduler.shutdown()
            journal.close()

    def test_new_scheduler_adopts_journaled_work(self, tmp_path):
        # A row journaled by a previous (crashed) process, never claimed.
        setup = JobJournal(tmp_path)
        setup.insert("job-prior-1", "dq" * 8, json.dumps("carried-over"))
        setup.close()
        journal = JobJournal(tmp_path)
        calls = []

        def executor(payload, budget=None, observer=None):
            calls.append(payload)
            return _report(str(payload))

        scheduler = JobScheduler(executor, workers=1, journal=journal)
        try:
            assert scheduler.stats()["recovered"] == 1
            deadline = time.time() + 10
            while time.time() < deadline:
                if journal.row("job-prior-1").state == "succeeded":
                    break
                time.sleep(0.05)
            assert journal.row("job-prior-1").state == "succeeded"
            assert calls == ["carried-over"]
            assert journal.meta_get("recovered_total") == 1
        finally:
            scheduler.shutdown()
            journal.close()

    def test_new_scheduler_recovers_interrupted_running_work(self, tmp_path):
        setup = JobJournal(tmp_path)
        setup.insert("job-prior-2", "dr" * 8, json.dumps("interrupted"))
        dead_owner = f"{socket.gethostname()}:{_dead_pid()}"
        assert setup.claim("job-prior-2", dead_owner)
        setup.close()
        journal = JobJournal(tmp_path)
        scheduler = JobScheduler(
            _echo, workers=1, journal=journal
        )
        try:
            deadline = time.time() + 10
            while time.time() < deadline:
                if journal.row("job-prior-2").state == "succeeded":
                    break
                time.sleep(0.05)
            row = journal.row("job-prior-2")
            assert row.state == "succeeded"
            assert row.attempts == 2  # the pre-crash run counted
        finally:
            scheduler.shutdown()
            journal.close()

    def test_recovered_work_with_stored_digest_is_not_resynthesized(self, tmp_path):
        digest = "ds" * 8
        store = ResultStore(tmp_path / "store")
        store.put(digest, _report("already-answered"))
        setup = JobJournal(tmp_path / "data")
        setup.insert("job-prior-3", digest, json.dumps("x"))
        setup.close()
        journal = JobJournal(tmp_path / "data")
        calls = []

        def executor(payload, budget=None, observer=None):  # pragma: no cover - must not run
            calls.append(payload)
            return _report(str(payload))

        scheduler = JobScheduler(executor, store=store, workers=1, journal=journal)
        try:
            deadline = time.time() + 10
            while time.time() < deadline:
                row = journal.row("job-prior-3")
                if row.state == "succeeded":
                    break
                time.sleep(0.05)
            row = journal.row("job-prior-3")
            assert row.state == "succeeded"
            assert bool(row.cached)
            assert calls == []
        finally:
            scheduler.shutdown()
            journal.close()

    def test_local_dedup_records_attach_in_journal(self, tmp_path):
        journal = JobJournal(tmp_path)
        release = threading.Event()

        def gated(payload, budget=None, observer=None):
            assert release.wait(10)
            return _report(str(payload))

        scheduler = JobScheduler(gated, workers=1, journal=journal)
        try:
            first = scheduler.submit("x", digest="dd" * 8)
            second = scheduler.submit("x", digest="dd" * 8)
            assert second is first
            release.set()
            assert first.wait(10)
            assert journal.row(first.id).submissions == 2
        finally:
            scheduler.shutdown()
            journal.close()


    def test_requeued_job_reruns_on_the_live_scheduler(self, tmp_path):
        journal = JobJournal(tmp_path)
        calls = []

        def fails_once(payload, budget=None, observer=None):
            calls.append(payload)
            if len(calls) == 1:
                raise ValueError("deterministic first failure")
            return _report(str(payload))

        scheduler = JobScheduler(fails_once, workers=1, journal=journal)
        try:
            job = scheduler.submit("x", digest="dq" * 8)
            assert job.wait(10)
            assert job.state is JobState.FAILED
            # What `repro jobs --journal <path> --requeue <id>` does: a second
            # connection moves the row back to queued.
            operator = JobJournal(tmp_path)
            try:
                assert operator.requeue_terminal(job.id)
            finally:
                operator.close()
            deadline = time.time() + 5
            while time.time() < deadline:
                if journal.row(job.id).state == "succeeded":
                    break
                time.sleep(0.05)
            assert journal.row(job.id).state == "succeeded"
            assert calls == ["x", "x"]
            # The finished handle's done event was already set, so the rerun
            # runs on a fresh handle under the same id.
            rerun = scheduler.job(job.id)
            assert rerun is not job
            assert rerun.state is JobState.SUCCEEDED
        finally:
            scheduler.shutdown()
            journal.close()

    def test_submission_racing_a_finish_attaches_to_the_finishing_job(self, tmp_path):
        class BlockingFinish(JobJournal):
            """Holds the finish of a succeeded row until released."""

            finishing = threading.Event()
            release = threading.Event()

            def finish(self, job_id, state, *args, **kwargs):
                if state == "succeeded":
                    self.finishing.set()
                    assert self.release.wait(10)
                return super().finish(job_id, state, *args, **kwargs)

        journal = BlockingFinish(tmp_path)
        scheduler = JobScheduler(_echo, workers=1, journal=journal)
        try:
            job = scheduler.submit("x", digest="dr" * 8)
            assert journal.finishing.wait(10)
            # The handle is already terminal; its row is still running.
            assert job.state is JobState.SUCCEEDED
            assert journal.row(job.id).state == "running"
            attached = []
            racer = threading.Thread(
                target=lambda: attached.append(scheduler.submit("x", digest="dr" * 8))
            )
            racer.start()
            racer.join(10)
            journal.release.set()
            assert attached and attached[0] is job
            assert attached[0].wait(5)
            assert journal.row(job.id).submissions == 2
        finally:
            journal.release.set()
            scheduler.shutdown()
            journal.close()

    def _busy_scheduler(self, tmp_path, release, calls, store=None):
        """A one-worker file-journal scheduler whose worker is held by a
        ``"block"`` job until *release* is set."""

        def executor(payload, budget=None, observer=None):
            calls.append(payload)
            if payload == "block":
                assert release.wait(10)
            elif calls.count(payload) == 1 and payload == "fails-once":
                raise ValueError("deterministic first failure")
            return _report(str(payload))

        scheduler = JobScheduler(
            executor, store=store, workers=1, journal=JobJournal(tmp_path)
        )
        blocker = scheduler.submit("block", digest="db" * 8)
        assert _eventually(lambda: blocker.state is JobState.RUNNING)
        return scheduler

    def test_job_another_scheduler_runs_completes_the_local_handle(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        release, calls = threading.Event(), []
        a = self._busy_scheduler(tmp_path, release, calls, store=store)
        b = None
        try:
            job = a.submit("x", digest="dx" * 8)
            # A second server on the same file claims the job while A's only
            # worker is busy.
            b_release = threading.Event()

            def b_executor(payload, budget=None, observer=None):
                assert b_release.wait(10)
                return _report(str(payload))

            b = JobScheduler(
                b_executor, store=store, workers=1, journal=JobJournal(tmp_path)
            )
            assert _eventually(lambda: a.journal_row(job.id).state == "running")
            # Running elsewhere: the row, not A's queued handle, answers.
            assert a.job(job.id) is None
            b_release.set()
            assert _eventually(lambda: a.journal_row(job.id).state == "succeeded")
            assert a.job(job.id) is job
            assert job.wait(0)
            assert job.state is JobState.SUCCEEDED
            assert job.report.task_name == "x"
            assert "x" not in calls
        finally:
            release.set()
            if b is not None:
                b.shutdown()
                b.journal.close()
            a.shutdown()
            a.journal.close()

    def test_job_cancelled_through_another_connection_completes_the_local_handle(
        self, tmp_path
    ):
        release, calls = threading.Event(), []
        scheduler = self._busy_scheduler(tmp_path, release, calls)
        try:
            job = scheduler.submit("x", digest="dx" * 8)
            other = JobJournal(tmp_path)
            try:
                assert other.finish(job.id, "cancelled", from_states=("queued",))
            finally:
                other.close()
            release.set()
            # No lookup: the idle worker finishes the handle from its row.
            assert job.wait(5)
            assert job.state is JobState.CANCELLED
            assert calls == ["block"]
            assert scheduler.job(job.id) is job
        finally:
            release.set()
            scheduler.shutdown()
            scheduler.journal.close()

    @pytest.mark.parametrize("then", ["resubmit", "cancel"])
    def test_requeued_row_gets_a_fresh_handle_before_its_claim(self, tmp_path, then):
        release, calls = threading.Event(), []
        scheduler = self._busy_scheduler(tmp_path, release, calls)
        try:
            release.set()
            failed = scheduler.submit("fails-once", digest="dq" * 8)
            assert failed.wait(10)
            assert failed.state is JobState.FAILED
            release.clear()
            blocker = scheduler.submit("block", digest="dc" * 8)
            assert _eventually(lambda: blocker.state is JobState.RUNNING)
            operator = JobJournal(tmp_path)
            try:
                assert operator.requeue_terminal(failed.id)
            finally:
                operator.close()
            # The row is queued again but no worker is free to claim it.
            if then == "cancel":
                assert scheduler.cancel(failed.id)
                assert scheduler.journal_row(failed.id).state == "cancelled"
                assert scheduler.job(failed.id).state is JobState.CANCELLED
                return
            again = scheduler.submit("fails-once", digest="dq" * 8)
            assert again is not failed
            assert again.id == failed.id
            assert again.state is JobState.QUEUED
            assert scheduler.job(failed.id) is again
            release.set()
            assert again.wait(10)
            assert again.state is JobState.SUCCEEDED
            assert calls.count("fails-once") == 2
        finally:
            release.set()
            scheduler.shutdown()
            scheduler.journal.close()


# ---------------------------------------------------------------------- #
# Integration: LiftingService across a simulated restart
# ---------------------------------------------------------------------- #
class TestServiceRestart:
    def test_status_and_result_survive_a_service_restart(self, tmp_path):
        request = LiftRequest(benchmark="darknet.copy_cpu", timeout=30.0)
        service = LiftingService(
            cache_dir=tmp_path / "store", workers=1, journal=tmp_path / "data"
        )
        job = service.submit(request)
        assert job.wait(60)
        assert job.state is JobState.SUCCEEDED
        service.close()

        reborn = LiftingService(
            cache_dir=tmp_path / "store", workers=1, journal=tmp_path / "data"
        )
        try:
            status = reborn.status(job.id)
            assert status is not None
            assert status["state"] == "succeeded"
            result = reborn.result(job.id)
            assert result["report"] is not None
            assert result["report"]["success"] is True
            # Resubmitting the same request is a store answer, not a rerun.
            again = reborn.submit(request)
            assert again.cached
        finally:
            reborn.close()

    def test_queued_jobs_survive_a_non_draining_shutdown(self, tmp_path):
        journal = JobJournal(tmp_path)
        release = threading.Event()
        started = threading.Event()

        def gated(payload, budget=None, observer=None):
            started.set()
            assert release.wait(10)
            return _report(str(payload))

        scheduler = JobScheduler(gated, workers=1, journal=journal)
        blocked = scheduler.submit("a", digest="d1" * 8)
        assert started.wait(10)
        queued = scheduler.submit("b", digest="d2" * 8)
        # Journal-backed default: stop without draining the queue.  The
        # shutdown flag is raised before the running job is released, so
        # the worker finishes "a" but must not pick up "b".
        scheduler.shutdown(wait=False)
        release.set()
        assert blocked.wait(10)
        scheduler.shutdown()
        assert journal.row(queued.id).state == "queued"
        journal.close()

        # The queued row is adopted by the next scheduler on this journal.
        journal2 = JobJournal(tmp_path)
        scheduler2 = JobScheduler(
            _echo, workers=1, journal=journal2
        )
        try:
            assert scheduler2.stats()["recovered"] == 1
            deadline = time.time() + 10
            while time.time() < deadline:
                if journal2.row(queued.id).state == "succeeded":
                    break
                time.sleep(0.05)
            assert journal2.row(queued.id).state == "succeeded"
        finally:
            scheduler2.shutdown()
            journal2.close()
