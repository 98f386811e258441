"""Per-layer metrics of one traced pass, and the trace's consistency check.

Layer times are seconds per pass.  ``<layer>.s`` is the inclusive time of
the layer's spans (a span's children count towards it), except
``core.search.expand.s``, which is the search stage's *self* time: the
search minus the validation, verification and harness building it calls.
Layers a workload never reaches read 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

from spans import Span, children_of, self_times, subtree
from workloads import PassResult

#: The pipeline stages, in order (``repro.lifting.pipeline.STAGE_NAMES``).
STAGES = ("oracle", "templatize", "dimension", "grammar", "search")
#: Members of ``Portfolio.Default``.
PORTFOLIO_MEMBERS = ("STAGG_TD", "STAGG_BU")

#: Samples a reported tail percentile must have above it.
TAIL_SAMPLES = 10
#: A root span's self times must sum to its measured wall within
#: ``CONSISTENCY_ABS_S + CONSISTENCY_REL * wall``.
CONSISTENCY_ABS_S = 0.002
CONSISTENCY_REL = 0.01


def percentile_with_tail(values: List[float], tail: int) -> float:
    """The highest sample with at least *tail* samples above it."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - tail - 1)]


def layer_metrics(spans: List[Span], result: PassResult) -> Dict[str, float]:
    children = children_of(spans)
    own = self_times(spans, children)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def seconds(name: str) -> float:
        return sum(span.duration for span in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def flagged(name: str, attr: str) -> int:
        return sum(int(span.attrs.get(attr, 0)) for span in by_name[name])

    metrics: Dict[str, float] = {}
    for stage in STAGES:
        metrics[f"lifting.stage.{stage}.s"] = seconds(f"lifting.stage.{stage}")

    ran = [o for o in result.outcomes if o.kind != "hit"]
    expand = sum(own[span.id] for span in by_name["lifting.stage.search"])
    nodes = sum(o.nodes for o in ran)
    metrics["core.search.expand.s"] = expand
    metrics["core.search.nodes"] = nodes
    metrics["core.search.candidates"] = sum(o.attempts for o in ran)
    metrics["core.search.nodes_per_s"] = nodes / expand if expand > 0 else 0.0

    verify = "core.verifier.verify"
    metrics[f"{verify}.calls"] = calls(verify)
    metrics[f"{verify}.s"] = seconds(verify)
    metrics[f"{verify}.equivalent"] = flagged(verify, "equivalent")
    metrics[f"{verify}.checks"] = flagged(verify, "checks")
    metrics["core.verifier.c_reference.s"] = seconds("core.verifier.c_reference")
    metrics["core.verifier.taco_eval.s"] = seconds("core.verifier.taco_eval")

    for name in ("cfront.interpreter.run", "cfront.parse", "llm.propose",
                 "service.store.get", "service.store.put", "retrieval.neighbors"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s"] = seconds(name)
    validate = "core.validator.validate"
    metrics[f"{validate}.calls"] = calls(validate)
    metrics[f"{validate}.s"] = seconds(validate)
    metrics[f"{validate}.accepted"] = flagged(validate, "accepted")
    for name in ("core.io_examples.generate", "lifting.build_harness",
                 "service.submit", "service.execute", "retrieval.index.add",
                 "retrieval.probe", "retrieval.seed", "portfolio.prepare",
                 "portfolio.pickle"):
        metrics[f"{name}.s"] = seconds(name)

    hits = [o.seconds for o in result.outcomes if o.kind == "hit"]
    metrics["service.hit_s_p50"] = statistics.median(hits) if hits else 0.0
    metrics["service.hit_s_p95"] = (
        percentile_with_tail(hits, TAIL_SAMPLES) if hits else 0.0
    )
    for name in ("service.queue_wait.s", "service.run.s",
                 "retrieval.seed_hits", "retrieval.seed_attempts"):
        metrics[name] = result.extra.get(name, 0)

    metrics.update(portfolio_metrics(result))
    return metrics


def portfolio_metrics(result: PassResult) -> Dict[str, float]:
    """Parent-side race numbers from ``report.details["portfolio"]``."""
    member = overhead = 0.0
    cancelled = 0
    wins = dict.fromkeys(PORTFOLIO_MEMBERS, 0)
    for outcome in result.outcomes:
        race = outcome.details
        if not race:
            continue
        winner = race["winner"]
        inside = (
            race["member_seconds"][winner] if winner
            else max(race["member_seconds"].values())
        )
        member += inside
        overhead += outcome.seconds - inside
        cancelled += race["cancelled"]
        if winner:
            wins[winner] = wins.get(winner, 0) + 1
    metrics = {
        "portfolio.member.s": member,
        "portfolio.overhead.s": overhead,
        "portfolio.cancelled": cancelled,
    }
    for name, count in wins.items():
        metrics[f"portfolio.wins.{name}"] = count
    return metrics


def consistency(spans: List[Span]) -> Tuple[float, List[str]]:
    """Check that each request's self times add up to its measured wall.

    For every root span the self times of its subtree must sum to the wall
    the benchmark measured around the request (``attrs["wall"]``; roots
    the program opened itself, such as a service worker's
    ``service.execute``, are held to their own duration).  Returns the
    largest difference seen and a message per root outside the tolerance.
    """
    children = children_of(spans)
    own = self_times(spans, children)
    worst = 0.0
    problems = []
    for root in spans:
        if root.parent is not None:
            continue
        wall = float(root.attrs.get("wall", root.duration))
        total = sum(own[span.id] for span in subtree(root, children))
        difference = abs(total - wall)
        worst = max(worst, difference)
        if difference > CONSISTENCY_ABS_S + CONSISTENCY_REL * wall:
            problems.append(
                f"{root.name}[{root.request}]: self times sum to {total:.6f} s, "
                f"measured {wall:.6f} s"
            )
    return worst, problems


def layer_table(spans: List[Span], wall: float) -> List[str]:
    """Rows of calls, inclusive and self seconds per span name."""
    children = children_of(spans)
    own = self_times(spans, children)
    rows: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = rows[span.name]
        row[0] += 1
        row[1] += span.duration
        row[2] += own[span.id]
    lines = [f"{'span':34} {'calls':>7} {'incl s':>9} {'self s':>9} {'self %':>7}"]
    for name, (count, inclusive, alone) in sorted(
        rows.items(), key=lambda item: -item[1][2]
    ):
        share = 100.0 * alone / wall if wall > 0 else 0.0
        lines.append(
            f"{name:34} {count:7d} {inclusive:9.3f} {alone:9.3f} {share:6.1f}%"
        )
    return lines
