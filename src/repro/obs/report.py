"""Reconstruct span trees from trace files and render CLI reports.

``repro trace summarize | tree | slowest <file>`` all funnel through
here: :func:`build_forest` groups a trace file's records by ``trace_id``
and links spans into trees via ``parent_id``; the render functions turn
the forest into per-stage time breakdowns across a sweep, an indented
tree per lift, or a slowest-spans table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .schema import EventRecord, SpanRecord, TraceRecord


@dataclass
class SpanNode:
    """One span plus its children and attached events."""

    span: SpanRecord
    children: List["SpanNode"] = field(default_factory=list)
    events: List[EventRecord] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.span.name

    @property
    def duration(self) -> float:
        return self.span.duration


@dataclass
class Trace:
    """All spans and events sharing one ``trace_id``."""

    trace_id: str
    roots: List[SpanNode]
    orphan_events: List[EventRecord] = field(default_factory=list)

    def walk(self) -> List[SpanNode]:
        nodes: List[SpanNode] = []
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children)
        return nodes


def build_forest(records: Sequence[TraceRecord]) -> List[Trace]:
    """Group records by trace and link spans into trees.

    Spans whose ``parent_id`` is null *or* points outside the file (a
    service job tracing into a parent span the scheduler wrote to a
    different file) become roots.  Events attach to their span when it
    exists and are kept as orphans otherwise, so a partially captured
    trace still renders.
    """
    by_trace: Dict[str, List[TraceRecord]] = {}
    order: List[str] = []
    for record in records:
        if record.trace_id not in by_trace:
            order.append(record.trace_id)
        by_trace.setdefault(record.trace_id, []).append(record)

    traces: List[Trace] = []
    for trace_id in order:
        nodes: Dict[str, SpanNode] = {}
        events: List[EventRecord] = []
        for record in by_trace[trace_id]:
            if isinstance(record, SpanRecord):
                nodes[record.span_id] = SpanNode(span=record)
            else:
                events.append(record)
        roots: List[SpanNode] = []
        for node in nodes.values():
            parent = nodes.get(node.span.parent_id) if node.span.parent_id else None
            if parent is not None:
                parent.children.append(node)
            else:
                roots.append(node)
        orphans: List[EventRecord] = []
        for event in events:
            owner = nodes.get(event.span_id)
            if owner is not None:
                owner.events.append(event)
            else:
                orphans.append(event)
        for node in nodes.values():
            node.children.sort(key=lambda child: child.span.start)
            node.events.sort(key=lambda ev: ev.ts)
        roots.sort(key=lambda root: root.span.start)
        traces.append(Trace(trace_id=trace_id, roots=roots, orphan_events=orphans))
    return traces


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:8.1f}s"
    if seconds >= 1:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1000.0:7.1f}ms"


def _span_label(node: SpanNode) -> str:
    extras: List[str] = []
    attrs = node.span.attrs
    if attrs.get("skipped"):
        extras.append("skipped")
    if attrs.get("unclosed"):
        extras.append("unclosed")
    if "success" in attrs:
        extras.append("ok" if attrs["success"] else "failed")
    if node.events:
        extras.append(f"{len(node.events)} event(s)")
    suffix = f"  [{', '.join(extras)}]" if extras else ""
    return f"{node.name}{suffix}"


def render_tree(traces: Sequence[Trace], show_events: bool = True) -> str:
    """One indented tree per trace, spans ordered by start time."""
    lines: List[str] = []
    for trace in traces:
        lines.append(f"trace {trace.trace_id}")
        for root in trace.roots:
            _render_node(root, depth=1, lines=lines, show_events=show_events)
        for event in trace.orphan_events:
            lines.append(f"  * {event.name} {_event_detail(event)}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n" if lines else "(no traces)\n"


def _event_detail(event: EventRecord) -> str:
    interesting = {
        key: value for key, value in event.attrs.items()
        if key in ("member", "nodes_expanded", "nodes_per_sec", "duplicates_pruned",
                   "candidates", "candidates_per_sec", "state", "cached", "attempts")
    }
    if not interesting:
        return ""
    body = ", ".join(f"{key}={value}" for key, value in sorted(interesting.items()))
    return f"({body})"


def _render_node(node: SpanNode, depth: int, lines: List[str],
                 show_events: bool) -> None:
    indent = "  " * depth
    lines.append(f"{indent}{_fmt_seconds(node.duration)}  {_span_label(node)}")
    if show_events:
        for event in node.events:
            lines.append(f"{indent}    * {event.name} {_event_detail(event)}")
    for child in node.children:
        _render_node(child, depth + 1, lines, show_events)


def render_summary(traces: Sequence[Trace]) -> str:
    """Per-span-name totals across a sweep: count, total, mean, share.

    Share is against the summed root-span wall clock, so a stage's line
    answers "where did synthesis time go" directly — the question the
    paper's evaluation asks.
    """
    totals: Dict[str, Tuple[int, float, float]] = {}
    wall = 0.0
    span_count = 0
    event_count = 0
    for trace in traces:
        for root in trace.roots:
            wall += root.duration
        for node in trace.walk():
            span_count += 1
            event_count += len(node.events)
            count, total, worst = totals.get(node.name, (0, 0.0, 0.0))
            totals[node.name] = (
                count + 1, total + node.duration, max(worst, node.duration)
            )
        event_count += len(trace.orphan_events)

    lines = [
        f"traces: {len(traces)}   spans: {span_count}   events: {event_count}"
        f"   wall: {wall:.3f}s",
        "",
        f"{'span':<28} {'count':>5} {'total':>10} {'mean':>10} {'max':>10} {'share':>7}",
    ]
    for name in sorted(totals, key=lambda n: -totals[n][1]):
        count, total, worst = totals[name]
        share = (total / wall * 100.0) if wall > 0 else 0.0
        lines.append(
            f"{name:<28} {count:>5} {_fmt_seconds(total):>10} "
            f"{_fmt_seconds(total / count):>10} {_fmt_seconds(worst):>10} "
            f"{share:>6.1f}%"
        )
    return "\n".join(lines) + "\n"


def render_slowest(traces: Sequence[Trace], limit: int = 10) -> str:
    """The *limit* slowest spans across every trace in the file."""
    flat: List[Tuple[float, SpanNode, str]] = []
    for trace in traces:
        for node in trace.walk():
            flat.append((node.duration, node, trace.trace_id))
    flat.sort(key=lambda item: -item[0])
    lines = [f"{'duration':>10}  {'span':<28} {'task':<24} trace"]
    for duration, node, trace_id in flat[:max(0, limit)]:
        task = str(node.span.attrs.get("task", "") or "")
        lines.append(
            f"{_fmt_seconds(duration):>10}  {node.name:<28} {task:<24} {trace_id}"
        )
    return "\n".join(lines) + "\n"


def find_span(trace: Trace, name: str) -> Optional[SpanNode]:
    """First span named *name* in *trace* (depth-first), or ``None``."""
    for node in trace.walk():
        if node.name == name:
            return node
    return None
