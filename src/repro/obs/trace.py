"""Span tracing for lifts and service jobs.

:class:`TraceWriter` appends schema-validated records to a JSONL file —
one whole line per :func:`os.write`-sized ``write`` call on an append
handle, the same crash-tolerant discipline as the fault log.

:class:`TracingObserver` sits on the ``LiftObserver`` seam and turns a
lift into a span tree: a root ``lift`` span, one span per pipeline
stage, one span per portfolio member (stages nest under the member that
ran them), and point events for search heartbeats, accepted candidates,
validator tier counters, cancellations and the portfolio winner.
Stage spans nest through an open-span stack kept in a
:class:`threading.local`, since thread-raced members run their stages on
their own threads.  Member spans are different: the race emits their
lifecycle from its coordinating thread on either backend, so every
member span is a child of the ``lift`` root, and a stage opened on a
thread with an empty stack finds its member's span through the
``task[member]`` tag the race puts on member stage events.

Module-level arming mirrors :mod:`repro.service.faults`: a process-wide
writer armed via :func:`configure` (or the ``REPRO_TRACE`` environment
variable, read once), consulted by scheduler hooks as ``writer()``.
Disarmed, every hook is one ``is None`` check.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..lifting.observer import LiftObserver, tagged_member
from .schema import AttrValue, EventRecord, SpanRecord, TraceRecord, dump_record

__all__ = [
    "TraceWriter",
    "TracingObserver",
    "configure",
    "reset",
    "writer",
    "job_span_id",
]

#: Environment variable naming a trace file to arm process-wide tracing.
TRACE_ENV = "REPRO_TRACE"


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


def _scalar(value: object) -> AttrValue:
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


def _clean_attrs(attrs: Dict[str, object]) -> Dict[str, AttrValue]:
    return {key: _scalar(value) for key, value in attrs.items()}


class TraceWriter:
    """Thread-safe append-only writer of schema-validated trace records."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        parent = self.path.parent
        if parent and not parent.exists():
            parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def write(self, record: TraceRecord) -> None:
        line = dump_record(record) + "\n"
        with self._lock:
            # One whole line per write on an append handle: concurrent
            # writers (member threads, scheduler workers) never interleave
            # partial lines, and a crash loses at most the final line.
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)

    def span(self, trace_id: str, span_id: str, parent_id: Optional[str],
             name: str, start: float, end: float, **attrs: object) -> None:
        self.write(SpanRecord(
            trace_id=trace_id, span_id=span_id, parent_id=parent_id,
            name=name, start=start, end=end, attrs=_clean_attrs(attrs),
        ))

    def event(self, trace_id: str, span_id: str, name: str,
              ts: Optional[float] = None, **attrs: object) -> None:
        self.write(EventRecord(
            trace_id=trace_id, span_id=span_id, name=name,
            ts=time.time() if ts is None else ts, attrs=_clean_attrs(attrs),
        ))


def job_span_id(job_id: str) -> str:
    """The deterministic span id of a service job's lifetime span.

    Deterministic so lifecycle *events* can reference the span from the
    moment the job is queued — the span record itself is only written at
    finish, when its ``end`` is known.
    """
    return f"job:{job_id}"


class _OpenSpan:
    __slots__ = ("span_id", "parent_id", "name", "start", "attrs")

    def __init__(self, span_id: str, parent_id: Optional[str], name: str,
                 start: float, attrs: Dict[str, AttrValue]) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.attrs = attrs


class TracingObserver(LiftObserver):
    """Turn ``LiftObserver`` events into a span tree on a trace file.

    One instance traces one lift.  Call :meth:`close` when the lift
    finishes — it flushes any still-open spans (a cancelled member's
    stage never sees ``stage_finished``) and writes the root span.
    """

    def __init__(self, writer: TraceWriter, task: str = "",
                 trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None) -> None:
        self._writer = writer
        self.trace_id = trace_id or _new_id()
        self.root_span_id = _new_id()
        self._parent_id = parent_id
        self._task = task
        self._start = time.time()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: Dict[str, _OpenSpan] = {}
        self._members: Dict[str, _OpenSpan] = {}
        self._closed = False

    # -- span-stack plumbing ------------------------------------------------

    def _stack(self) -> List[_OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _current_span_id(self, task_name: str = "") -> str:
        """Top of this thread's stack, else the tagged member's span, else root."""
        stack = self._stack()
        if stack:
            return stack[-1].span_id
        with self._lock:
            member = self._members.get(tagged_member(task_name))
        return member.span_id if member is not None else self.root_span_id

    def _open_span(self, name: str, parent_id: str, **attrs: object) -> _OpenSpan:
        span = _OpenSpan(
            span_id=_new_id(),
            parent_id=parent_id,
            name=name,
            start=time.time(),
            attrs=_clean_attrs(attrs),
        )
        with self._lock:
            self._open[span.span_id] = span
        return span

    def _pop(self, name: str, **attrs: object) -> None:
        stack = self._stack()
        span = None
        # Normally the span we are closing is on top of this thread's
        # stack; scan down to stay robust to a missed finish in between.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].name == name:
                span = stack.pop(index)
                break
        self._finish(span, **attrs)

    def _finish(self, span: Optional[_OpenSpan], **attrs: object) -> None:
        if span is None:
            return
        with self._lock:
            self._open.pop(span.span_id, None)
        span.attrs.update(_clean_attrs(attrs))
        self._write_span(span, end=time.time())

    def _write_span(self, span: _OpenSpan, end: float) -> None:
        self._writer.write(SpanRecord(
            trace_id=self.trace_id, span_id=span.span_id,
            parent_id=span.parent_id, name=span.name,
            start=span.start, end=end, attrs=span.attrs,
        ))

    def _event(self, name: str, **attrs: object) -> None:
        self._writer.event(self.trace_id, self._current_span_id(), name, **attrs)

    # -- LiftObserver seam --------------------------------------------------

    def stage_started(self, stage: str, task_name: str) -> None:
        span = self._open_span(
            f"stage:{stage}", self._current_span_id(task_name), task=task_name
        )
        self._stack().append(span)

    def stage_finished(self, stage: str, task_name: str, seconds: float) -> None:
        self._pop(f"stage:{stage}", task=task_name, seconds=seconds)

    def stage_skipped(self, stage: str, task_name: str) -> None:
        now = time.time()
        self._writer.span(
            self.trace_id, _new_id(), self._current_span_id(task_name),
            f"stage:{stage}", now, now, task=task_name, skipped=True,
        )

    def search_progress(self, nodes_expanded: int, candidates_tried: int,
                        nodes_per_sec: float = 0.0,
                        duplicates_pruned: int = 0) -> None:
        self._event(
            "search_progress",
            nodes_expanded=nodes_expanded,
            candidates_tried=candidates_tried,
            nodes_per_sec=round(nodes_per_sec, 3),
            duplicates_pruned=duplicates_pruned,
        )

    def candidate_accepted(self, program: str) -> None:
        self._event("candidate_accepted", program=program)

    def retrieval_seeded(self, task_name: str, neighbors: int, hit: bool) -> None:
        # Lands inside the open stage:seed span, so seed hits are
        # attributable in the tree just like accepted candidates.
        self._event(
            "retrieval_seeded", task=task_name, neighbors=neighbors, hit=hit,
        )

    def validator_stats(self, candidates: int, screen_rejects: int,
                        exact_checks: int, seconds: float) -> None:
        rate = candidates / seconds if seconds > 0 else 0.0
        self._event(
            "validator_tiers",
            candidates=candidates,
            screen_rejects=screen_rejects,
            exact_checks=exact_checks,
            seconds=seconds,
            candidates_per_sec=round(rate, 3),
        )

    def member_started(self, member: str, task_name: str) -> None:
        span = self._open_span(
            f"member:{member}", self.root_span_id, member=member, task=task_name
        )
        with self._lock:
            self._members[member] = span

    def member_finished(self, member: str, task_name: str,
                        success: bool, seconds: float) -> None:
        with self._lock:
            span = self._members.pop(member, None)
        self._finish(span, success=success, seconds=seconds)

    def member_cancelled(self, member: str, task_name: str) -> None:
        # Emitted after the race resolves: lands on the root span.
        self._writer.event(
            self.trace_id, self.root_span_id, "member_cancelled",
            member=member, task=task_name,
        )

    def portfolio_winner(self, member: str, task_name: str) -> None:
        self._writer.event(
            self.trace_id, self.root_span_id, "portfolio_winner",
            member=member, task=task_name,
        )

    # -- lifecycle ----------------------------------------------------------

    def close(self, **attrs: object) -> None:
        """Flush open spans and write the root ``lift`` span (idempotent)."""
        if self._closed:
            return
        self._closed = True
        end = time.time()
        with self._lock:
            leftovers = list(self._open.values())
            self._open.clear()
        for span in leftovers:
            span.attrs["unclosed"] = True
            self._write_span(span, end=end)
        root_attrs: Dict[str, object] = {"task": self._task}
        root_attrs.update(attrs)
        self._writer.write(SpanRecord(
            trace_id=self.trace_id, span_id=self.root_span_id,
            parent_id=self._parent_id, name="lift",
            start=self._start, end=end, attrs=_clean_attrs(root_attrs),
        ))


# -- process-wide arming (the faults.py idiom) ------------------------------

_WRITER: Optional[TraceWriter] = None
_ENV_LOADED = False
_ARM_LOCK = threading.Lock()


def configure(path: Union[str, Path, None]) -> Optional[TraceWriter]:
    """Arm (or, with ``None``, disarm) the process-wide trace writer."""
    global _WRITER, _ENV_LOADED
    with _ARM_LOCK:
        _ENV_LOADED = True
        _WRITER = TraceWriter(path) if path is not None else None
        return _WRITER


def reset() -> None:
    """Disarm tracing and forget the environment (tests use this)."""
    global _WRITER, _ENV_LOADED
    with _ARM_LOCK:
        _WRITER = None
        _ENV_LOADED = False


def writer() -> Optional[TraceWriter]:
    """The armed process-wide writer, or ``None``.

    The environment is consulted at most once; after that, armed or not,
    every call is a module-global read — callers guard their telemetry
    with ``if writer() is not None`` and pay nothing when disarmed.
    """
    global _WRITER, _ENV_LOADED
    if not _ENV_LOADED:
        with _ARM_LOCK:
            if not _ENV_LOADED:
                _ENV_LOADED = True
                path = os.environ.get(TRACE_ENV)
                if path:
                    _WRITER = TraceWriter(path)
    return _WRITER
