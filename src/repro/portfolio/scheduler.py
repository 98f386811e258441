"""The member race: one run loop over threads or processes, first verified win.

One :func:`race` call runs N member runners against the same task.  Every
member, on either backend, runs :func:`run_member` under a
:class:`~repro.lifting.executor.TokenBudget` — the shared deadline (the
portfolio's wall-clock window and/or the caller's
:class:`~repro.lifting.budget.Budget`) plus one token shared by the whole
race — and posts one result tuple to the race's queue.  The first member to
produce a *successful* report (validated on the I/O examples and verified
by the bounded checker) sets the token, and the losers wind down at their
next poll point (searches poll every queue pop, the validator every 64
substitutions).  The calling thread drains the queue, sets the token when
the caller's budget expires, records workers that die without reporting,
and joins every worker before returning, so no member outlives the race.

The backends differ only in their :class:`Transport`: the worker
(``Thread`` or ``Process``), the token (``threading.Event`` or a process
``Event``) and the result queue.  Thread members share the oracle-derived
:class:`~repro.lifting.pipeline.PipelineState` by reference and forward
member-tagged stage events, but serialize the CPU-bound searches behind
the GIL; process members (:mod:`.process_scheduler`) race on their own
cores and forward no member-internal events.

Determinism: the winner is the *lowest-index* member among those that
succeeded.  Usually exactly one member succeeds before the others are
cancelled, so "first win" and "lowest index" coincide; when two members
succeed within one poll window, member order — the order in the portfolio
spec — breaks the tie the same way on every run and on either backend.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.result import SynthesisReport
from ..lifting.budget import Budget
from ..lifting.executor import ExecutionConfig, TokenBudget
from ..lifting.observer import LiftObserver, safe_notify, tag_member
from ..lifting.pipeline import PipelineState

#: A member runner: execute one member's lift under (budget, observer).
MemberRunner = Callable[[Budget, Optional[LiftObserver]], SynthesisReport]

#: How often the calling thread polls the result queue; bounds how late a
#: parent deadline/cancel or a dead worker is noticed.
POLL_INTERVAL_SECONDS = 0.02

#: How long workers get to exit once the race is over before a process
#: worker is terminated.  Poll points are dense, so reaching this is a bug.
JOIN_GRACE_SECONDS = 10.0

#: Empty-queue polls with a dead worker before its result is declared lost
#: (a process queue flushes on exit, so in-flight results land in a poll or
#: two).
_DEAD_WORKER_STRIKES = 10


@dataclass
class MemberRun:
    """One member's outcome in a race."""

    name: str
    index: int
    report: Optional[SynthesisReport] = None
    #: What the runner raised (member lifts normally report errors instead
    #: of raising, so this is a harness-level failure).
    exception: Optional[BaseException] = None
    elapsed_seconds: float = 0.0
    #: True when the token was set before the member finished and it did
    #: not succeed: the run was cut short, not finished on its own.
    cancelled: bool = False

    @property
    def error(self) -> str:
        if self.exception is None:
            return ""
        return f"{type(self.exception).__name__}: {self.exception}"

    @property
    def succeeded(self) -> bool:
        return self.report is not None and self.report.success

    @property
    def timed_out(self) -> bool:
        return self.report is not None and self.report.timed_out


@dataclass(frozen=True)
class Transport:
    """What a race backend supplies: three primitives and member packaging."""

    #: ``worker(target=, args=, name=, daemon=)``: a Thread or Process.
    worker: Callable[..., Any]
    token: Callable[[], Any]
    queue: Callable[[], Any]
    #: ``runners(members, task, shared_state)`` -> ``[(name, runner)]``.
    runners: Callable[..., List[Tuple[str, MemberRunner]]]
    #: Thread members share this process and forward member-tagged events
    #: to the race's observer.  Process members forward none, can be
    #: terminated, and post to a queue that must be closed.
    in_process: bool


class _MemberObserver(LiftObserver):
    """Forward one member's events, tagging stage events ``task[member]``
    so interleaved progress (``-v``, traces, the service's live stage)
    stays attributable."""

    def __init__(self, parent: Optional[LiftObserver], member: str) -> None:
        self._parent = parent
        self._member = member

    def stage_started(self, stage: str, task_name: str) -> None:
        tagged = tag_member(task_name, self._member)
        safe_notify(self._parent, "stage_started", stage, tagged)

    def stage_finished(self, stage: str, task_name: str, seconds: float) -> None:
        tagged = tag_member(task_name, self._member)
        safe_notify(self._parent, "stage_finished", stage, tagged, seconds)

    def stage_skipped(self, stage: str, task_name: str) -> None:
        tagged = tag_member(task_name, self._member)
        safe_notify(self._parent, "stage_skipped", stage, tagged)

    def search_progress(self, *args: object) -> None:
        safe_notify(self._parent, "search_progress", *args)

    def candidate_accepted(self, program: str) -> None:
        safe_notify(self._parent, "candidate_accepted", program)

    def validator_stats(self, *args: object) -> None:
        safe_notify(self._parent, "validator_stats", *args)


def run_member(
    index: int,
    runner: MemberRunner,
    timeout_seconds: Optional[float],
    token: Any,
    results: Any,
    observer: Optional[LiftObserver],
) -> None:
    """Worker entry point on either backend: run one member, post one result.

    The budget is built here, in the worker: budgets hold a live
    ``threading.Event`` and never cross process boundaries.
    """
    budget = TokenBudget(timeout_seconds, token)
    report: Optional[SynthesisReport] = None
    exception: Optional[BaseException] = None
    started = time.monotonic()
    try:
        report = runner(budget, observer)
    except Exception as error:  # noqa: BLE001 - never kill the race
        exception = error
    elapsed = time.monotonic() - started
    succeeded = report is not None and report.success
    cancelled = budget.cancelled and not succeeded
    if succeeded:
        # First verified win: set the token here rather than when the result
        # reaches the calling thread, so losers stop at their next poll.
        token.set()
    results.put((index, report, exception, elapsed, cancelled))


def member_runners(
    members: Sequence[Tuple[str, object]],
    task: object,
    shared_state: Optional[PipelineState],
) -> List[Tuple[str, MemberRunner]]:
    """One runner per member lifter (fork-and-resume when sharable)."""

    def runner_for(lifter: Any) -> MemberRunner:
        if shared_state is not None and hasattr(lifter, "lift_from_state"):
            return lambda budget, observer: lifter.lift_from_state(
                shared_state.fork(), budget=budget, observer=observer
            )
        return lambda budget, observer: lifter.lift(
            task, budget=budget, observer=observer
        )

    return [(name, runner_for(lifter)) for name, lifter in members]


THREADS = Transport(
    worker=threading.Thread,
    token=threading.Event,
    queue=queue.Queue,
    runners=member_runners,
    in_process=True,
)


def transport_for(execution: Optional[ExecutionConfig]) -> Transport:
    """The transport an execution config selects (threads unless processes)."""
    if execution is not None and execution.uses_processes:
        # Imported lazily: thread races never need the process machinery.
        from .process_scheduler import process_transport

        return process_transport()
    return THREADS


def race(
    entries: Sequence[Tuple[str, MemberRunner]],
    *,
    task_name: str,
    transport: Transport = THREADS,
    budget: Optional[Budget] = None,
    deadline_seconds: Optional[float] = None,
    observer: Optional[LiftObserver] = None,
) -> Tuple[List[MemberRun], Optional[MemberRun]]:
    """Run every entry concurrently; return (runs, winner or None).

    ``budget`` is the caller's budget: its expiry or cancellation sets the
    token.  ``deadline_seconds`` is the portfolio's own remaining window;
    every member's deadline is the tighter of the two at race start (the
    members race concurrently, so they share one window).  Lifecycle
    events come from the calling thread, in the order ``member_started`` <
    ``member_finished`` < ``portfolio_winner`` < ``member_cancelled``, so a
    reader learns *why* the losers stopped.
    """
    if not entries:
        raise ValueError("cannot race an empty member list")
    windows = [max(0.0, deadline_seconds)] if deadline_seconds is not None else []
    remaining = budget.remaining() if budget is not None else None
    if remaining is not None:
        windows.append(remaining)
    timeout = min(windows) if windows else None
    token, results = transport.token(), transport.queue()
    runs = [MemberRun(name=name, index=index) for index, (name, _) in enumerate(entries)]
    pending = set(range(len(runs)))

    def finish(index, report, exception, elapsed, cancelled) -> None:
        run = runs[index]
        run.report, run.exception = report, exception
        run.elapsed_seconds, run.cancelled = elapsed, cancelled
        pending.discard(index)
        safe_notify(
            observer, "member_finished",
            run.name, task_name, run.succeeded, run.elapsed_seconds,
        )

    workers = []
    try:
        for run, (_, runner) in zip(runs, entries):
            member_observer = (
                _MemberObserver(observer, run.name) if transport.in_process else None
            )
            worker = transport.worker(
                target=run_member,
                args=(run.index, runner, timeout, token, results, member_observer),
                name=f"portfolio-{task_name}-{run.name}",
                daemon=True,
            )
            safe_notify(observer, "member_started", run.name, task_name)
            worker.start()
            workers.append(worker)
        strikes = dict.fromkeys(pending, 0)
        while pending:
            try:
                finish(*results.get(timeout=POLL_INTERVAL_SECONDS))
            except queue.Empty:
                if budget is not None and budget.expired():
                    token.set()
                # A worker that died without reporting must not hang the
                # race: give its result a few polls to flush, then record it.
                for index in sorted(pending):
                    alive = workers[index].is_alive()
                    strikes[index] = 0 if alive else strikes[index] + 1
                    if strikes[index] >= _DEAD_WORKER_STRIKES:
                        code = getattr(workers[index], "exitcode", None)
                        lost = RuntimeError(
                            f"worker exited without a result (exitcode {code})"
                        )
                        finish(index, None, lost, 0.0, False)
    finally:
        token.set()  # idempotent: guarantees losers see the stop signal
        deadline = time.monotonic() + JOIN_GRACE_SECONDS
        for worker in workers:
            worker.join(max(0.0, deadline - time.monotonic()))
            if worker.is_alive() and not transport.in_process:  # pragma: no cover
                worker.terminate()
                worker.join()
        if not transport.in_process:
            results.close()
            results.join_thread()

    # Runs are in member order, so the first success is the lowest index.
    winner = next((run for run in runs if run.succeeded), None)
    if winner is not None:
        safe_notify(observer, "portfolio_winner", winner.name, task_name)
        for run in runs:
            if run is not winner and run.cancelled:
                safe_notify(observer, "member_cancelled", run.name, task_name)
    return runs, winner
