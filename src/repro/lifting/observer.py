"""Observation hooks for lifting runs.

A :class:`LiftObserver` receives coarse-grained progress events from the
pipeline (stage start/finish), the searches (periodic expansion counts) and
the checker (successful validations).  Observers power ``repro lift -v`` and
the service's live ``GET /status`` stage field without the pipeline knowing
who is watching.

Observer contract
-----------------

* Callbacks run on the lifting thread and must be cheap — they sit on the
  search hot path (albeit only every ``SearchLimits.progress_interval``
  expansions, :data:`SEARCH_PROGRESS_INTERVAL` by default).
* Observer exceptions never abort a lift: every notification goes through
  :func:`safe_notify` (canonical implementation in
  :mod:`repro.core.search`), which swallows them.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

from ..core.search import SEARCH_PROGRESS_INTERVAL, safe_notify

__all__ = [
    "CompositeObserver",
    "LiftObserver",
    "PrintObserver",
    "RecordingObserver",
    "SEARCH_PROGRESS_INTERVAL",
    "safe_notify",
    "tag_member",
    "tagged_member",
]


def tag_member(task_name: str, member: str) -> str:
    """Tag a stage event's task name with the racing member emitting it.

    Portfolio members share one observer; stage events carry the member as
    ``task[member]`` so interleaved progress stays attributable.  This is
    the *only* definition of the tag format — consumers recover the member
    with :func:`tagged_member`.
    """
    return f"{task_name}[{member}]"


def tagged_member(task_name: str) -> str:
    """The member a :func:`tag_member`-tagged task name carries ('' if none)."""
    if task_name.endswith("]") and "[" in task_name:
        return task_name[task_name.rfind("[") + 1 : -1]
    return ""


class LiftObserver:
    """Base observer: every callback is a no-op; override what you need."""

    def stage_started(self, stage: str, task_name: str) -> None:
        """A pipeline stage began executing."""

    def stage_finished(self, stage: str, task_name: str, seconds: float) -> None:
        """A pipeline stage completed (with its wall-clock duration)."""

    def stage_skipped(self, stage: str, task_name: str) -> None:
        """A stage was skipped because its artifacts were already populated."""

    def search_progress(self, nodes_expanded: int, candidates_tried: int,
                        nodes_per_sec: float = 0.0,
                        duplicates_pruned: int = 0) -> None:
        """Periodic heartbeat from inside a running search."""

    def candidate_accepted(self, program: str) -> None:
        """A candidate passed validation and bounded verification."""

    def retrieval_seeded(self, task_name: str, neighbors: int, hit: bool) -> None:
        """The seed stage finished: how many neighbors were retrieved and
        whether one passed tier-0 validate-then-verify (skipping search)."""

    def validator_stats(self, candidates: int, screen_rejects: int,
                        exact_checks: int, seconds: float) -> None:
        """Tier counters from the validator after a search completes.

        Emitted once per search stage (cold path): total candidates seen,
        how many the float screen rejected, how many reached the exact
        tier, and the search's wall clock — candidates/sec is derivable.
        """

    # -------------------------------------------------------------- #
    # Portfolio events (see repro.portfolio): they arrive from the
    # race's calling thread, while thread members' stage events arrive
    # from their own threads, so observers that aggregate must lock.
    # -------------------------------------------------------------- #
    def member_started(self, member: str, task_name: str) -> None:
        """A portfolio member began racing the task."""

    def member_finished(
        self, member: str, task_name: str, success: bool, seconds: float
    ) -> None:
        """A portfolio member returned (win, loss or timeout)."""

    def member_cancelled(self, member: str, task_name: str) -> None:
        """A racing member was cancelled because another member won."""

    def portfolio_winner(self, member: str, task_name: str) -> None:
        """The portfolio committed to *member*'s verified program."""


class PrintObserver(LiftObserver):
    """Human-readable progress lines (what ``repro lift -v`` attaches)."""

    def __init__(self, emit: Optional[Callable[[str], None]] = None) -> None:
        self._emit = emit if emit is not None else print

    def stage_started(self, stage: str, task_name: str) -> None:
        self._emit(f"[{task_name}] stage {stage} ...")

    def stage_finished(self, stage: str, task_name: str, seconds: float) -> None:
        self._emit(f"[{task_name}] stage {stage} done in {seconds:.3f}s")

    def stage_skipped(self, stage: str, task_name: str) -> None:
        self._emit(f"[{task_name}] stage {stage} skipped (resumed from state)")

    def search_progress(self, nodes_expanded: int, candidates_tried: int,
                        nodes_per_sec: float = 0.0,
                        duplicates_pruned: int = 0) -> None:
        rate = f", {nodes_per_sec:.0f} nodes/s" if nodes_per_sec else ""
        self._emit(
            f"  search: {nodes_expanded} nodes expanded, "
            f"{candidates_tried} candidates tried{rate}"
        )

    def candidate_accepted(self, program: str) -> None:
        self._emit(f"  accepted: {program}")

    def retrieval_seeded(self, task_name: str, neighbors: int, hit: bool) -> None:
        verdict = "tier-0 hit (search skipped)" if hit else "no tier-0 hit"
        self._emit(f"[{task_name}] seeded from {neighbors} neighbor(s): {verdict}")

    def validator_stats(self, candidates: int, screen_rejects: int,
                        exact_checks: int, seconds: float) -> None:
        rate = f" ({candidates / seconds:.0f}/s)" if seconds > 0 else ""
        self._emit(
            f"  validator: {candidates} candidates{rate}, "
            f"{screen_rejects} screened out, {exact_checks} exact checks"
        )

    def member_started(self, member: str, task_name: str) -> None:
        self._emit(f"[{task_name}] member {member} started")

    def member_finished(
        self, member: str, task_name: str, success: bool, seconds: float
    ) -> None:
        outcome = "solved" if success else "no solution"
        self._emit(f"[{task_name}] member {member}: {outcome} in {seconds:.3f}s")

    def member_cancelled(self, member: str, task_name: str) -> None:
        self._emit(f"[{task_name}] member {member} cancelled (another member won)")

    def portfolio_winner(self, member: str, task_name: str) -> None:
        self._emit(f"[{task_name}] winner: {member}")


class RecordingObserver(LiftObserver):
    """Collects every event as a tuple (used by tests and diagnostics).

    Appends are serialized: portfolio member events arrive from racing
    threads, and a plain list mutated concurrently could drop events.
    """

    def __init__(self) -> None:
        self.events: List[tuple] = []
        self._lock = threading.Lock()

    def _record(self, event: tuple) -> None:
        with self._lock:
            self.events.append(event)

    def stage_started(self, stage: str, task_name: str) -> None:
        self._record(("stage_started", stage, task_name))

    def stage_finished(self, stage: str, task_name: str, seconds: float) -> None:
        self._record(("stage_finished", stage, task_name, seconds))

    def stage_skipped(self, stage: str, task_name: str) -> None:
        self._record(("stage_skipped", stage, task_name))

    def search_progress(self, nodes_expanded: int, candidates_tried: int,
                        nodes_per_sec: float = 0.0,
                        duplicates_pruned: int = 0) -> None:
        self._record((
            "search_progress", nodes_expanded, candidates_tried,
            nodes_per_sec, duplicates_pruned,
        ))

    def candidate_accepted(self, program: str) -> None:
        self._record(("candidate_accepted", program))

    def retrieval_seeded(self, task_name: str, neighbors: int, hit: bool) -> None:
        self._record(("retrieval_seeded", task_name, neighbors, hit))

    def validator_stats(self, candidates: int, screen_rejects: int,
                        exact_checks: int, seconds: float) -> None:
        self._record((
            "validator_stats", candidates, screen_rejects, exact_checks, seconds,
        ))

    def member_started(self, member: str, task_name: str) -> None:
        self._record(("member_started", member, task_name))

    def member_finished(
        self, member: str, task_name: str, success: bool, seconds: float
    ) -> None:
        self._record(("member_finished", member, task_name, success, seconds))

    def member_cancelled(self, member: str, task_name: str) -> None:
        self._record(("member_cancelled", member, task_name))

    def portfolio_winner(self, member: str, task_name: str) -> None:
        self._record(("portfolio_winner", member, task_name))

    def stages(self, kind: str = "stage_finished") -> List[str]:
        """The stage names seen for one event kind, in order."""
        return [event[1] for event in self.events if event[0] == kind]


class CompositeObserver(LiftObserver):
    """Fan every event out to several child observers, isolating failures.

    Each child is notified through its own :func:`safe_notify`, so one
    broken child can neither abort the lift *nor* suppress delivery to
    its siblings — without this, wrapping ``[broken, tracer]`` in a
    single observer would let ``broken``'s exception swallow the
    ``portfolio_winner`` the tracer needed.
    """

    def __init__(self, *observers: Optional[LiftObserver]) -> None:
        self._children = tuple(obs for obs in observers if obs is not None)

    @property
    def children(self) -> tuple:
        return self._children

    def _fan_out(self, method: str, *args) -> None:
        for child in self._children:
            safe_notify(child, method, *args)

    def stage_started(self, stage: str, task_name: str) -> None:
        self._fan_out("stage_started", stage, task_name)

    def stage_finished(self, stage: str, task_name: str, seconds: float) -> None:
        self._fan_out("stage_finished", stage, task_name, seconds)

    def stage_skipped(self, stage: str, task_name: str) -> None:
        self._fan_out("stage_skipped", stage, task_name)

    def search_progress(self, nodes_expanded: int, candidates_tried: int,
                        nodes_per_sec: float = 0.0,
                        duplicates_pruned: int = 0) -> None:
        self._fan_out(
            "search_progress", nodes_expanded, candidates_tried,
            nodes_per_sec, duplicates_pruned,
        )

    def candidate_accepted(self, program: str) -> None:
        self._fan_out("candidate_accepted", program)

    def retrieval_seeded(self, task_name: str, neighbors: int, hit: bool) -> None:
        self._fan_out("retrieval_seeded", task_name, neighbors, hit)

    def validator_stats(self, candidates: int, screen_rejects: int,
                        exact_checks: int, seconds: float) -> None:
        self._fan_out(
            "validator_stats", candidates, screen_rejects, exact_checks, seconds,
        )

    def member_started(self, member: str, task_name: str) -> None:
        self._fan_out("member_started", member, task_name)

    def member_finished(
        self, member: str, task_name: str, success: bool, seconds: float
    ) -> None:
        self._fan_out("member_finished", member, task_name, success, seconds)

    def member_cancelled(self, member: str, task_name: str) -> None:
        self._fan_out("member_cancelled", member, task_name)

    def portfolio_winner(self, member: str, task_name: str) -> None:
        self._fan_out("portfolio_winner", member, task_name)
