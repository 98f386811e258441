"""The four workloads: one pass = the workload's whole request list.

Every workload drives the program's public API over the 67 real-world
kernels (``repro.suite.real_world_benchmarks()``).  The seed fixes the
order of the requests; the program only ever sees the generated requests.  Lifters are resolved with
``timeout_seconds=None``, so each search stops on the registry's count
limits and the solved set is a property of the code, not of the machine.

A workload is built once (its set-up) and then runs any number of passes;
``run_pass(tracer, kernels)`` returns a :class:`PassResult`.  With a tracer
the pass opens a root span per request, so the spans of one request share
its id.  ``repeated(first)`` names the kernels that later untraced passes
repeat (``None``: every pass is the whole request list).
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import speed
from spans import Tracer

#: How many client threads the serve workload runs (the machine's core count
#: on the reference box; a closed loop, each client waits for its result).
SERVE_CLIENTS = 2
#: Worker threads of the served ``LiftingService`` (see ``ServeWorkload``).
SERVE_WORKERS = 1
#: Every kernel is replayed this many times as an exact store hit.
REPLAYS_PER_KERNEL = 3
#: Host-speed reference loops timed before each serve phase and after the
#: last, while no request is in flight.
REFERENCE_CALLS_PER_PHASE = 16
#: A request whose job has not finished after this long counts as lost.
LOST_AFTER_SECONDS = 120.0
#: Process pool of the portfolio race.
RACE_WORKERS = 2
#: Workloads that use every core; the others run on one (``run.py`` pins
#: them with ``speed.pin_to_one_core``).  A lift runs in one thread and the
#: service's threads share the interpreter lock, so a second core would
#: only move their work between cores of different speeds.
MULTI_CORE = ("race-portfolio",)
#: Kernels whose first lift took this long or longer are lifted once per
#: run: a lift of a second or more already spans the host's short stalls,
#: and repeating the few slow kernels (about 20 s of lift-topdown's pass)
#: would leave no time to repeat the other 64.
REPEAT_BELOW_SECONDS = 1.0


@dataclass
class Outcome:
    """One request's result."""

    kernel: str
    kind: str  # "lift" | "miss" | "hit"
    seconds: float
    solved: bool = False
    program: Optional[str] = None
    #: Non-empty when the request raised, was rejected or was lost.
    error: str = ""
    nodes: int = 0
    attempts: int = 0
    details: Dict[str, object] = field(default_factory=dict)


@dataclass
class PassResult:
    wall: float
    outcomes: List[Outcome]
    #: Workload-specific per-pass numbers (service counters, job timings).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Times of the host-speed reference loop taken during the pass
    #: (``speed.reference``), outside every request's own time.
    reference: List[float] = field(default_factory=list)


def corpus(seed: int):
    """The real-world kernels in the seed's order."""
    from repro.suite import real_world_benchmarks

    benchmarks = real_world_benchmarks()
    random.Random(seed).shuffle(benchmarks)
    return benchmarks


def _program(report) -> Optional[str]:
    program = report.lifted_program
    return str(program) if report.success and program is not None else None


def _race_details(report) -> Dict[str, object]:
    """The winner, member times and cancellations of a portfolio race."""
    race = report.details.get("portfolio")
    if not race:
        return {}
    members = race["members"]
    return {
        "winner": race["winner"],
        "member_seconds": {m["name"]: m["elapsed_seconds"] for m in members},
        "cancelled": sum(1 for m in members if m["cancelled"]),
    }


class LiftWorkload:
    """Sequential cold lifts of every kernel through ``Lifter.lift``."""

    #: Requests run one at a time, so a pass takes the sum of its lifts.
    concurrent = False

    def __init__(self, method: str, seed: int, execution=None) -> None:
        from repro.lifting import resolve_method

        self.executor = execution.spec() if execution else "sequential, in-process"
        self.lifter = resolve_method(method, timeout_seconds=None, execution=execution)
        self.tasks = [benchmark.task() for benchmark in corpus(seed)]

    def warm_up(self, task) -> None:
        self.lifter.lift(task)

    def repeated(self, first: PassResult) -> Optional[set]:
        """The kernels whose first lift was quicker than ``REPEAT_BELOW_SECONDS``."""
        return {o.kernel for o in first.outcomes if o.seconds < REPEAT_BELOW_SECONDS}

    def run_pass(
        self, tracer: Optional[Tracer], kernels: Optional[set] = None
    ) -> PassResult:
        """Lift every kernel, or only those in *kernels*, in the seed's order."""
        outcomes = []
        samples = []
        pass_started = time.perf_counter()
        for task in self.tasks:
            if kernels is not None and task.name not in kernels:
                continue
            samples.append(speed.reference())
            started = time.perf_counter()
            if tracer is None:
                report = self.lifter.lift(task)
                elapsed = time.perf_counter() - started
            else:
                root = tracer.open("lift", request=task.name)
                try:
                    report = self.lifter.lift(task)
                finally:
                    tracer.close(root)
                elapsed = time.perf_counter() - started
                root.attrs["wall"] = elapsed
            outcomes.append(
                Outcome(
                    kernel=task.name,
                    kind="lift",
                    seconds=elapsed,
                    solved=bool(report.success),
                    program=_program(report),
                    error=report.error,
                    nodes=report.nodes_expanded,
                    attempts=report.attempts,
                    details=_race_details(report),
                )
            )
        wall = time.perf_counter() - pass_started - sum(samples)
        return PassResult(wall, outcomes, reference=samples)

    def close(self) -> None:
        pass


def race_portfolio(seed: int, scratch: Path) -> LiftWorkload:
    from repro.lifting.executor import ExecutionConfig

    return LiftWorkload(
        "Portfolio.Default", seed, execution=ExecutionConfig("processes", RACE_WORKERS)
    )


class ServeWorkload:
    """A closed loop of clients against an in-process ``LiftingService``.

    Each pass gets a fresh store with an empty (armed) retrieval index and
    sends three phases of ``STAGG_BU`` requests: cold misses on half of the
    corpus, misses on the other half (which the retriever can seed from the
    first half's results), then every kernel replayed
    ``REPLAYS_PER_KERNEL`` times as exact store hits.  Phases run one after
    the other, with the host-speed reference loop timed between them
    (outside the pass's wall); a phase ends when its last request is
    answered.

    The halves interleave the corpus order (every other kernel), so each
    category has kernels on both sides, and the misses keep that order.
    The seed orders the replays only.  Which neighbours the retriever can
    offer a miss depends on which misses came before it, so a seeded split
    or miss order would make the work of a pass, and the solved count, follow
    the seed (a seeded split swung solved from 260 to 268; a seeded order
    moved ``lift_s_p50`` by 20% between seeds, against 5% for one seed).

    One service worker runs the jobs, so they run in the order the clients
    send them and each miss sees the same store whatever the timing: with
    two, which of two overlapping jobs finishes first decides what the
    retriever offers next.
    """

    #: The clients' requests overlap in the service.
    concurrent = True

    def __init__(self, seed: int, scratch: Path) -> None:
        from repro.service.api import LiftRequest
        from repro.suite import real_world_benchmarks

        self.executor = f"threads:{SERVE_WORKERS} (service workers)"
        self._scratch = scratch
        names = [benchmark.name for benchmark in real_world_benchmarks()]
        cold, similar = names[0::2], names[1::2]
        replay = names * REPLAYS_PER_KERNEL
        random.Random(seed).shuffle(replay)
        self.phases = [("miss", cold), ("miss", similar), ("hit", replay)]
        self._request = lambda name: LiftRequest(benchmark=name, method="STAGG_BU")
        # The first pass's service is part of set-up; later passes build
        # theirs outside the timed region.
        self._service, self._root = self._open_service()

    def _open_service(self):
        from repro.retrieval.index import RetrievalIndex
        from repro.service.api import LiftingService

        self._scratch.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="serve-", dir=str(self._scratch)))
        RetrievalIndex(root).write({})
        service = LiftingService(
            cache_dir=root, workers=SERVE_WORKERS, seed_from_store=True
        )
        return service, root

    def warm_up(self, task) -> None:
        """One direct ``execute_request`` (no store, so no cache entry)."""
        from repro.service.api import execute_request

        execute_request(self._request(task.name))

    def repeated(self, first: PassResult) -> None:
        """Every pass replays the whole scenario: later phases need the earlier."""
        return None

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        if self._service is None:
            self._service, self._root = self._open_service()
        service, root = self._service, self._root
        self._service = None
        jobs: list = []
        outcomes: List[Outcome] = []
        samples: List[float] = []
        try:
            wall = 0.0
            for kind, names in self.phases:
                samples += speed.sample(REFERENCE_CALLS_PER_PHASE)
                started = time.perf_counter()
                outcomes += self._closed_loop(service, kind, names, tracer, jobs)
                wall += time.perf_counter() - started
            samples += speed.sample(REFERENCE_CALLS_PER_PHASE)
            extra = self._job_numbers(service, jobs)
        finally:
            service.close()
            shutil.rmtree(root, ignore_errors=True)
        return PassResult(wall, outcomes, extra, reference=samples)

    def _closed_loop(self, service, kind, names, tracer, jobs) -> List[Outcome]:
        from repro.service.api import ServiceOverloadedError

        results: List[Outcome] = [None] * len(names)  # each client fills its own
        cursor = iter(range(len(names)))
        lock = threading.Lock()

        def request(index: int) -> Outcome:
            name = names[index]
            started = time.perf_counter()
            try:
                job = service.submit(self._request(name))
                arrived = job.wait(LOST_AFTER_SECONDS)
            except ServiceOverloadedError as error:
                return Outcome(name, kind, time.perf_counter() - started,
                               error=f"rejected: {error}")
            except Exception as error:  # noqa: BLE001 - counted, not fatal
                return Outcome(name, kind, time.perf_counter() - started,
                               error=f"{type(error).__name__}: {error}")
            elapsed = time.perf_counter() - started
            with lock:
                jobs.append(job)
            if not arrived:
                return Outcome(name, kind, elapsed, error="lost")
            report = job.report
            if report is None or job.state.value != "succeeded":
                return Outcome(name, kind, elapsed, error=job.error or job.state.value)
            served = "hit" if job.cached else "miss"
            return Outcome(
                name,
                kind,
                elapsed,
                solved=bool(report.success),
                program=_program(report),
                error="" if served == kind else f"expected a {kind}, got a {served}",
                nodes=report.nodes_expanded if served == "miss" else 0,
                attempts=report.attempts if served == "miss" else 0,
            )

        def client() -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                if tracer is None:
                    results[index] = request(index)
                    continue
                root = tracer.open("service.request", request=names[index])
                try:
                    results[index] = request(index)
                finally:
                    tracer.close(root)
                root.attrs["wall"] = results[index].seconds

        clients = [
            threading.Thread(target=client, name=f"client-{i}")
            for i in range(SERVE_CLIENTS)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        return results

    @staticmethod
    def _job_numbers(service, jobs) -> Dict[str, float]:
        """Queue wait and run time of the pass's miss jobs, plus seed counts."""
        ran = [job for job in jobs if not job.cached and job.started_at is not None]
        scheduler = service.stats()["scheduler"]
        return {
            "service.queue_wait.s": sum(j.started_at - j.created_at for j in ran),
            "service.run.s": sum(
                (j.finished_at or j.started_at) - j.started_at for j in ran
            ),
            "retrieval.seed_hits": scheduler["retrieval_seed_hits"],
            "retrieval.seed_attempts": scheduler["retrieval_seed_attempts"],
        }

    def close(self) -> None:
        if self._service is not None:
            self._service.close()
            shutil.rmtree(self._root, ignore_errors=True)
            self._service = None


#: Workload name -> builder(seed, scratch directory).
WORKLOADS = {
    "lift-topdown": lambda seed, scratch: LiftWorkload("STAGG_TD", seed),
    "lift-bottomup": lambda seed, scratch: LiftWorkload("STAGG_BU", seed),
    "serve-mixed": ServeWorkload,
    "race-portfolio": race_portfolio,
}
