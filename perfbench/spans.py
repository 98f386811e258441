"""In-memory span tracing around the public calls of each lifting layer.

The benchmark measures end-to-end numbers with tracing off.  A traced pass
installs wrappers (:func:`instrument`) around the public entry points of
each layer, records one :class:`Span` per call and removes every wrapper
again when the pass ends.  Spans carry a name, start, end, parent and
request id; they live in memory and are written out once, when the
benchmark ends.

Span names follow the module that owns the call (``core.verifier.verify``,
``cfront.interpreter.run``, ...), so a per-layer metric names the code it
measures.  Two calls are named by their caller: an example generated under
``core.verifier.verify`` is the verifier's C reference
(``core.verifier.c_reference``), and a TACO evaluation under it is
``core.verifier.taco_eval``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed call: ``[start, end]`` in ``time.perf_counter`` seconds."""

    id: int
    name: str
    parent: Optional[int]
    request: Optional[str]
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "request": self.request,
            "start": self.start,
            "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, request: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent.id if parent is not None else None,
            request=request,
            start=time.perf_counter(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[Span]:
        opened = self.open(name, request)
        try:
            yield opened
        finally:
            self.close(opened)


# ---------------------------------------------------------------------- #
# Wrapping public calls
# ---------------------------------------------------------------------- #
#: ``namer(parent_span) -> span name`` picks a name from the caller.
Namer = Callable[[Optional[Span]], str]
#: ``after(span, result)`` copies outcome fields onto the span.
After = Callable[[Span, object], None]
#: ``request_of(args)`` names the request a root span belongs to.
RequestOf = Callable[[tuple], Optional[str]]


def _under(parent_name: str, inside: str, outside: str) -> Namer:
    def namer(parent: Optional[Span]) -> str:
        return inside if parent is not None and parent.name == parent_name else outside

    return namer


def _traced(
    tracer: Tracer,
    fn: Callable,
    name,
    after: Optional[After],
    request_of: Optional[RequestOf],
) -> Callable:
    namer = name if callable(name) else (lambda _parent, fixed=name: fixed)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        request = request_of(args) if request_of is not None else None
        span = tracer.open(namer(tracer.current()), request)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, result)
            return result
        finally:
            tracer.close(span)

    return wrapper


def _validated(span: Span, result) -> None:
    span.attrs["accepted"] = bool(result.success)


def _verified(span: Span, result) -> None:
    span.attrs["equivalent"] = bool(result.equivalent)
    span.attrs["checks"] = int(result.checks_run)


def _benchmark_of(args: tuple) -> Optional[str]:
    return getattr(args[0], "benchmark", None) if args else None


def _targets():
    """(owner, attribute, span name, after[, request_of]) per traced call.

    Imported here, not at module scope: the benchmark must start (and fail
    cleanly) in a checkout without the program's sources.
    """
    from repro.cfront.interpreter import CInterpreter
    from repro.core.io_examples import IOExampleGenerator
    from repro.core.synthesizer import StaggSynthesizer
    from repro.core.task import LiftingTask
    from repro.core.validator import TemplateValidator
    from repro.core.verifier import BoundedEquivalenceChecker
    from repro.lifting import pipeline
    from repro.llm.oracle import LLMOracle
    from repro.portfolio import process_scheduler
    from repro.retrieval import seeding
    from repro.retrieval.index import RetrievalIndex
    from repro.retrieval.retriever import Retriever
    from repro.service import api
    from repro.service.store import ResultStore
    from repro.taco.evaluator import TacoEvaluator

    targets = [
        (stage_class, "run", f"lifting.stage.{stage_class.name}", None)
        for stage_class in {type(stage) for stage in pipeline.STAGES}
    ]
    targets += [
        (seeding.SeedStage, "run", "retrieval.seed", None),
        (pipeline, "build_harness", "lifting.build_harness", None),
        (seeding, "build_harness", "lifting.build_harness", None),
        (LLMOracle, "propose", "llm.propose", None),
        (LiftingTask, "parse", "cfront.parse", None),
        (IOExampleGenerator, "generate", "core.io_examples.generate", None),
        (
            IOExampleGenerator,
            "generate_one",
            _under(
                "core.verifier.verify",
                "core.verifier.c_reference",
                "core.io_examples.generate_one",
            ),
            None,
        ),
        (CInterpreter, "run", "cfront.interpreter.run", None),
        (TemplateValidator, "validate", "core.validator.validate", _validated),
        (BoundedEquivalenceChecker, "verify", "core.verifier.verify", _verified),
        (
            TacoEvaluator,
            "evaluate",
            _under("core.verifier.verify", "core.verifier.taco_eval", "taco.evaluate"),
            None,
        ),
        (StaggSynthesizer, "prepare_state", "portfolio.prepare", None),
        (process_scheduler, "ensure_picklable", "portfolio.pickle", None),
        (api.LiftingService, "submit", "service.submit", None),
        (api, "execute_request", "service.execute", None, _benchmark_of),
        (api, "probe_request", "retrieval.probe", None),
        (ResultStore, "get", "service.store.get", None),
        (ResultStore, "put", "service.store.put", None),
        (RetrievalIndex, "add", "retrieval.index.add", None),
        (Retriever, "neighbors", "retrieval.neighbors", None),
    ]
    return targets


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced public call for the duration of the block.

    Module-level functions are replaced in the module that *calls* them
    (``pipeline.build_harness``, ``api.execute_request``), so objects built
    inside the block — a ``LiftingService`` binds its executor at
    construction — pick the wrappers up.  Everything is restored on exit.
    """
    saved = []
    try:
        for owner, attribute, name, after, *rest in _targets():
            request_of = rest[0] if rest else None
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            wrapper = _traced(tracer, original, name, after, request_of)
            setattr(owner, attribute, wrapper)
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #
def children_of(spans: List[Span]) -> Dict[int, List[Span]]:
    """Parent id -> child spans, each list in start order."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    for group in children.values():
        group.sort(key=lambda child: child.start)
    return children


def self_times(spans: List[Span], children: Dict[int, List[Span]]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in children.get(span.id, ()):
            start, end = max(child.start, cursor), min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result


def subtree(root: Span, children: Dict[int, List[Span]]) -> List[Span]:
    """*root* and every span below it."""
    found, frontier = [], [root]
    while frontier:
        span = frontier.pop()
        found.append(span)
        frontier.extend(children.get(span.id, ()))
    return found
