"""Determinism and lifecycle tests for the process-backed portfolio race.

The PR-10 acceptance suite: the same task and seed produce identical
`SynthesisReport` programs and winner attribution whether members race on
threads or processes (for in-budget runs), the first win cancels the
losers cooperatively across the process boundary, and no child process
ever outlives the race.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time

import pytest

from repro.lifting import ExecutionConfig, RecordingObserver, resolve_method
from repro.portfolio import race, transport_for
from repro.portfolio.process_scheduler import _pickle_lifter
from repro.suite import get_benchmark

PORTFOLIO = "Portfolio(STAGG_TD,STAGG_BU)"


def _task(name: str = "darknet.copy_cpu"):
    return get_benchmark(name).task()


def _lift(method: str, backend: str, task_name: str = "darknet.copy_cpu"):
    lifter = resolve_method(
        method,
        timeout_seconds=30.0,
        oracle_seed=2025,
        execution=ExecutionConfig(backend=backend, workers=2),
    )
    return lifter.lift(_task(task_name))


def _no_orphans():
    for child in multiprocessing.active_children():
        child.join(5)
    return not multiprocessing.active_children()


# ---------------------------------------------------------------------- #
# The determinism suite: threads vs. processes, same outcome
# ---------------------------------------------------------------------- #
class TestDeterminism:
    @pytest.mark.parametrize(
        "kernel", ["darknet.copy_cpu", "blend.add_pixels", "simpl_array.sum_three"]
    )
    def test_portfolio_program_matches_threads(self, kernel):
        threaded = _lift(PORTFOLIO, "threads", kernel)
        processed = _lift(PORTFOLIO, "processes", kernel)
        assert threaded.success and processed.success
        assert str(processed.lifted_program) == str(threaded.lifted_program)
        assert processed.attempts == threaded.attempts

    def test_portfolio_winner_attribution_matches_threads(self):
        threaded = _lift(PORTFOLIO, "threads")
        processed = _lift(PORTFOLIO, "processes")
        thread_race = threaded.details["portfolio"]
        process_race = processed.details["portfolio"]
        assert process_race["winner"] == thread_race["winner"]
        assert [m["name"] for m in process_race["members"]] == [
            m["name"] for m in thread_race["members"]
        ]
        assert [m["success"] for m in process_race["members"]] == [
            m["success"] for m in thread_race["members"]
        ]

    def test_llm_baseline_matches_threads(self):
        # The sharded-validation path: the LLM baseline partitions its
        # candidate stream over the pool and must accept the same
        # candidate with the same attempt count as the sequential scan.
        threaded = _lift("LLM", "threads")
        processed = _lift("LLM", "processes")
        assert processed.success == threaded.success
        assert str(processed.lifted_program) == str(threaded.lifted_program)
        assert str(processed.template) == str(threaded.template)
        assert processed.attempts == threaded.attempts

    def test_process_report_round_trips_json(self):
        report = _lift(PORTFOLIO, "processes")
        from repro.core.result import SynthesisReport

        clone = SynthesisReport.from_json_dict(report.to_json_dict())
        assert clone.success and str(clone.lifted_program) == str(
            report.lifted_program
        )


# ---------------------------------------------------------------------- #
# Cancellation and child lifecycle
# ---------------------------------------------------------------------- #
class TestRaceLifecycle:
    def test_no_child_outlives_the_race(self):
        report = _lift(PORTFOLIO, "processes")
        assert report.success
        assert _no_orphans()

    def test_loser_is_cancelled_or_finished(self):
        # Both members solve copy_cpu; the lowest-index success wins and
        # the other member either finished before the token flipped or was
        # cancelled at a poll point — it must never be left running.
        report = _lift(PORTFOLIO, "processes")
        race = report.details["portfolio"]
        assert race["winner"] is not None
        for member in race["members"]:
            assert member["success"] or member["cancelled"] or member["error"]
        assert _no_orphans()

    def test_observer_sees_the_full_race(self):
        observer = RecordingObserver()
        lifter = resolve_method(
            PORTFOLIO,
            timeout_seconds=30.0,
            oracle_seed=2025,
            execution=ExecutionConfig("processes", workers=2),
        )
        report = lifter.lift(_task(), observer=observer)
        assert report.success
        events = [event[0] for event in observer.events]
        assert events.count("member_started") == 2
        assert "portfolio_winner" in events
        started = [
            events.index("member_started"),
            events.index("member_started", events.index("member_started") + 1),
        ]
        assert max(started) < events.index("portfolio_winner")

    def test_parent_budget_expiry_cancels_children(self):
        from repro.lifting import Budget

        lifter = resolve_method(
            PORTFOLIO,
            timeout_seconds=30.0,
            oracle_seed=2025,
            execution=ExecutionConfig("processes", workers=2),
        )
        report = lifter.lift(_task(), budget=Budget(0.0))
        assert not report.success
        assert report.timed_out
        assert _no_orphans()


# ---------------------------------------------------------------------- #
# Loud pickling errors for race members
# ---------------------------------------------------------------------- #
class _UnpicklableLifter:
    label = "Unpicklable"

    def __init__(self) -> None:
        self.hook = lambda: None  # lambdas never pickle

    def lift(self, task, budget=None, observer=None):  # pragma: no cover
        raise AssertionError("never raced")


class TestMemberPickling:
    def test_unpicklable_member_is_named(self):
        with pytest.raises(TypeError, match="Unpicklable"):
            _pickle_lifter("Unpicklable", _UnpicklableLifter())

    def test_registered_members_pickle(self):
        for name in ("STAGG_TD", "STAGG_BU"):
            lifter = resolve_method(name, timeout_seconds=30.0)
            assert pickle.loads(_pickle_lifter(name, lifter)).__class__ is (
                lifter.__class__
            )


# ---------------------------------------------------------------------- #
# The scheduler surface used by PortfolioLifter
# ---------------------------------------------------------------------- #
class TestProcessRace:
    def test_race_returns_ordered_runs_and_winner(self):
        members = [
            (name, resolve_method(name, timeout_seconds=30.0, oracle_seed=2025))
            for name in ("STAGG_TD", "STAGG_BU")
        ]
        transport = transport_for(ExecutionConfig("processes", workers=2))
        runs, winner = race(
            transport.runners(members, _task(), None),
            task_name="darknet.copy_cpu",
            transport=transport,
        )
        assert [run.name for run in runs] == ["STAGG_TD", "STAGG_BU"]
        assert winner is not None and winner.succeeded
        # Thread-scheduler parity: the winner is the lowest-index success.
        successes = [run for run in runs if run.succeeded]
        assert winner.name == successes[0].name
        assert _no_orphans()


# ---------------------------------------------------------------------- #
# Process-backed service jobs: cooperative, cancellable, reaped
# ---------------------------------------------------------------------- #
class TestProcessServiceJobs:
    #: STAGG_TD searches darknet.axpy_cpu for seconds before it solves.
    SLOW = {"benchmark": "darknet.axpy_cpu", "method": "STAGG_TD"}

    def _service(self, tmp_path):
        from repro.service import LiftingService

        return LiftingService(
            cache_dir=tmp_path / "store", execution=ExecutionConfig("processes", 1)
        )

    def test_cancelled_running_job_is_reaped_and_not_stored(self, tmp_path):
        from repro.service import JobState, LiftRequest

        with self._service(tmp_path) as service:
            job = service.submit(LiftRequest(timeout=60.0, **self.SLOW))
            deadline = time.monotonic() + 30
            while not multiprocessing.active_children():
                assert time.monotonic() < deadline, "the job never started a child"
                time.sleep(0.01)
            assert job.state is JobState.RUNNING
            assert service.scheduler.cancel(job.id)
            assert job.wait(30)
            assert job.state is JobState.CANCELLED
            assert service.store.get(job.digest) is None
            assert multiprocessing.active_children() == []

    def test_job_timeout_reports_timed_out_without_leftover_child(self, tmp_path):
        from repro.service import JobState, LiftRequest

        with self._service(tmp_path) as service:
            job = service.submit(LiftRequest(timeout=1.0, **self.SLOW))
            assert job.wait(30)
            assert job.state is JobState.SUCCEEDED
            assert job.report.timed_out and not job.report.success
            # Slack over the 1 s budget: fork, oracle prep and the result
            # pickle, not a runaway child.
            assert job.finished_at - job.started_at < 6.0
            assert multiprocessing.active_children() == []
