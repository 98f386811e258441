"""The process transport: race members across cores with the same run loop.

Thread races are throttled by the GIL: racing members spend their time in
Python-level search and validation loops, so N threads share one core and
the race costs roughly the *sum* of the members' work instead of the max.
:func:`process_transport` plugs ``multiprocessing`` primitives into
:func:`~repro.portfolio.scheduler.race` — a ``Process`` per member, a
process ``Event`` as the token, a process ``Queue`` for results — and the
rest of the race is the loop both backends share.

Serialization is explicit and fails loudly: the parent pickles the
oracle-derived :class:`~repro.lifting.pipeline.PipelineState` exactly once
(via :func:`~repro.lifting.pipeline.ensure_picklable`, which names the
offending field) and each member lifter once, before any process exists.
Children rebuild config-derived artifacts themselves (``lift_from_state``
starts from ``reset_derived()``), so nothing config-derived crosses the
boundary.  Stage events cannot cross it either: observers see the member
lifecycle but not per-stage progress inside members.
"""

from __future__ import annotations

import functools
import multiprocessing
import pickle
from typing import List, Optional, Sequence, Tuple

from ..core.result import SynthesisReport
from ..lifting.budget import Budget
from ..lifting.pipeline import PipelineState, ensure_picklable
from .scheduler import MemberRunner, Transport


def _pickle_lifter(name: str, lifter: object) -> bytes:
    """Serialize one member lifter, failing loudly with the member's name."""
    try:
        return pickle.dumps(lifter)
    except Exception as cause:  # noqa: BLE001 - re-raised with context
        raise TypeError(
            f"portfolio member {name!r} ({type(lifter).__qualname__}) is not "
            f"picklable and cannot race in a worker process: {cause}. "
            "Keep live handles out of lifter state or use the thread backend."
        ) from cause


def _run_pickled(
    lifter_bytes: bytes,
    state_bytes: Optional[bytes],
    task_bytes: bytes,
    budget: Budget,
    observer: object,
) -> SynthesisReport:
    """Runs in the worker process: unpickle one member and lift."""
    lifter = pickle.loads(lifter_bytes)
    if state_bytes is not None:
        state: PipelineState = pickle.loads(state_bytes)
        return lifter.lift_from_state(state.fork(), budget=budget)
    return lifter.lift(pickle.loads(task_bytes), budget=budget)


def pickled_runners(
    members: Sequence[Tuple[str, object]],
    task: object,
    shared_state: Optional[PipelineState],
) -> List[Tuple[str, MemberRunner]]:
    """One picklable runner per member; pickling errors surface here, in
    the parent, never as a cryptic spawn-time traceback."""
    state_bytes = ensure_picklable(shared_state) if shared_state is not None else None
    task_bytes = pickle.dumps(task)
    return [
        (
            name,
            functools.partial(
                _run_pickled,
                _pickle_lifter(name, lifter),
                state_bytes if hasattr(lifter, "lift_from_state") else None,
                task_bytes,
            ),
        )
        for name, lifter in members
    ]


def process_transport() -> Transport:
    """Race members as OS processes, one per member (the OS timeshares when
    a portfolio has more members than the machine has cores)."""
    context = multiprocessing.get_context()
    return Transport(
        worker=context.Process,
        token=context.Event,
        queue=context.Queue,
        runners=pickled_runners,
        in_process=False,
    )
