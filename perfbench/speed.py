"""The host's current speed, read with a fixed reference loop.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-30% over tens of seconds to minutes, and each core drifts on its own.
This module's loop, timed back to back for four minutes, took between 0.8x
and 1.2x its median; timed on each of the two cores in turn, one core was
up to 1.5x slower than the other.  A whole run can sit in a slow spell, so
taking the fastest of several passes did not help (lift-bottomup's fastest
pass still spread 15-19% over six seeds).  That is more than the program
changes the benchmark is meant to catch.

So the workloads time :func:`reference` beside their requests, on the
cores that do the work, and every end-to-end time is scaled to the loop's
nominal speed::

    scaled = measured * REFERENCE_SECONDS / (the loop's median time nearby)

The loop is the benchmark's own code (integer arithmetic and one small
dict), so no change to the program moves it: a program that gets 10%
slower reads 10% slower.  The scaled figures are seconds on a host running
the loop in ``REFERENCE_SECONDS``; the loop is sized so that this is about
this 2-core VM's usual speed.  On six seeds of lift-bottomup in 16 s runs,
the median scaled pass spread 5% and the median kernel's median scaled
lift 6%.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from typing import List

#: Nominal seconds of one :func:`reference` call.
REFERENCE_SECONDS = 0.001

_turns = itertools.count()


def pin_to_one_core() -> None:
    """Keep this process, and the threads and processes it starts, on one core.

    Each core of this host changes speed on its own (at one moment the loop
    took 0.7 ms on one core and 1.1 ms on the other), so the loop has to run
    on the core that does the work.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference() -> float:
    """Seconds one run of the reference loop takes now.

    Successive calls run on each core the calling thread may use, in turn,
    and then give the thread all of them back, so that a workload spread
    over several cores is scaled by all of them.
    """
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) > 1:
        os.sched_setaffinity(0, {cores[next(_turns) % len(cores)]})
    try:
        started = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i
        table = {}
        for i in range(2_000):
            table[i % 97] = table.get(i % 97, 0) + i
        return time.perf_counter() - started
    finally:
        if len(cores) > 1:
            os.sched_setaffinity(0, cores)


def sample(calls: int) -> List[float]:
    """*calls* reference times, back to back."""
    return [reference() for _ in range(calls)]


def scale(samples: List[float]) -> float:
    """The factor that turns seconds measured beside *samples* into scaled ones."""
    return REFERENCE_SECONDS / statistics.median(samples)
