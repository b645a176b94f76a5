"""Critical-path analysis over collected span trees.

A trace of a scatter-gather workload is a tree with *concurrent*
children: the shard fan-out dispatches one ``parallel.task`` per shard
and they overlap in time, so "where did the time go" cannot be read
off a flat span list.  This module answers it structurally:

* **critical path** — from a root span, repeatedly descend into the
  child that finishes *last* (the child gating the parent's
  completion).  Speeding up anything off this path cannot shorten the
  wall clock;
* **per-phase self-time** — a span's duration minus the union of its
  children's intervals: the time a phase spent working itself rather
  than waiting on (or delegating to) its children.  Summed per span
  name this is an exact, non-double-counted attribution of busy time;
* **parallelism efficiency** — ``busy / (wall × lanes)``, where busy
  is total self-time, wall the union of the root intervals, and a
  *lane* one ``(pid, thread)`` execution context.  An ideal N-way
  parallel section scores 1.0 over N lanes; a process fan-out on a
  single core scores ~1/N — which is exactly the shard bench's story.

Accepts live :class:`~repro.obs.trace.Span` objects or the dict form
written by :func:`~repro.obs.exporters.spans_to_jsonl`, so it works on
a collector in hand and on a trace file alike (``repro obs critpath``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.obs.trace import Span


@dataclass
class SpanNode:
    """One span in the reconstructed tree."""

    name: str
    span_id: int
    parent_id: int | None
    start_s: float
    end_s: float
    thread: str
    attributes: dict
    children: "list[SpanNode]" = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    @property
    def lane(self) -> tuple:
        """The execution context this span ran on."""
        return (self.attributes.get("pid"), self.thread)

    def self_seconds(self) -> float:
        """Duration not covered by any child (children may overlap)."""
        covered = _union_seconds(
            [
                (max(child.start_s, self.start_s), min(child.end_s, self.end_s))
                for child in self.children
            ]
        )
        return max(0.0, self.duration_s - covered)


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of (possibly overlapping) intervals."""
    spans = sorted(
        (lo, hi) for lo, hi in intervals if hi > lo
    )
    total = 0.0
    cur_lo: float | None = None
    cur_hi = 0.0
    for lo, hi in spans:
        if cur_lo is None or lo > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def _coerce(span: "Span | dict") -> dict:
    """Normalise a Span object or exported dict to one node-state dict."""
    if isinstance(span, Span):
        return {
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "start_s": span.start_s,
            "end_s": (
                span.start_s if span.end_s is None else span.end_s
            ),
            "thread": span.thread,
            "attributes": dict(span.attributes),
        }
    end_s = span.get("end_s")
    if end_s is None:
        end_s = span["start_s"] + span.get("duration_ms", 0.0) / 1e3
    return {
        "name": span["name"],
        "span_id": span["span_id"],
        "parent_id": span.get("parent_id"),
        "start_s": span["start_s"],
        "end_s": end_s,
        "thread": span.get("thread", ""),
        "attributes": dict(span.get("attributes", {})),
    }


def build_forest(spans: Iterable["Span | dict"]) -> list[SpanNode]:
    """Reconstruct the span forest; roots sorted by start time.

    Spans whose parent is absent from the input (never finished, or
    recorded by another collector) are promoted to roots, mirroring
    :func:`~repro.obs.exporters.render_tree`.
    """
    nodes = [
        SpanNode(
            name=state["name"],
            span_id=state["span_id"],
            parent_id=state["parent_id"],
            start_s=state["start_s"],
            end_s=state["end_s"],
            thread=state["thread"],
            attributes=state["attributes"],
        )
        for state in map(_coerce, spans)
    ]
    by_id = {node.span_id: node for node in nodes}
    roots: list[SpanNode] = []
    for node in nodes:
        parent = by_id.get(node.parent_id) if node.parent_id else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes:
        node.children.sort(key=lambda n: (n.start_s, n.span_id))
    roots.sort(key=lambda n: (n.start_s, n.span_id))
    return roots


def critical_path(root: SpanNode) -> list[SpanNode]:
    """Root-to-leaf chain of spans gating the root's completion.

    At each level the critical child is the one that *ends last*: the
    parent cannot close before it, so no change elsewhere shortens the
    wall clock.  Ties break toward the longer child.
    """
    path = [root]
    node = root
    while node.children:
        node = max(
            node.children, key=lambda n: (n.end_s, n.duration_s, -n.span_id)
        )
        path.append(node)
    return path


@dataclass
class PhaseStat:
    """Aggregate timings of every span sharing one name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_ms": 1e3 * self.total_s,
            "self_ms": 1e3 * self.self_s,
        }


def _walk(nodes: Sequence[SpanNode]) -> Iterable[SpanNode]:
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def phase_stats(roots: Sequence[SpanNode]) -> list[PhaseStat]:
    """Per-name totals and self-times, sorted by self-time descending."""
    stats: dict[str, PhaseStat] = {}
    for node in _walk(roots):
        stat = stats.get(node.name)
        if stat is None:
            stat = stats[node.name] = PhaseStat(name=node.name)
        stat.count += 1
        stat.total_s += node.duration_s
        stat.self_s += node.self_seconds()
    return sorted(stats.values(), key=lambda s: (-s.self_s, s.name))


@dataclass
class FanoutStat:
    """One span whose children overlap in time (a parallel section)."""

    name: str
    span_id: int
    children: int
    lanes: int
    wall_s: float
    busy_s: float

    @property
    def efficiency(self) -> float:
        """Busy time over (section wall x lanes); 1.0 = perfect scaling."""
        denom = self.wall_s * max(1, self.lanes)
        return self.busy_s / denom if denom > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "children": self.children,
            "lanes": self.lanes,
            "wall_ms": 1e3 * self.wall_s,
            "busy_ms": 1e3 * self.busy_s,
            "efficiency": self.efficiency,
        }


def fanout_stats(roots: Sequence[SpanNode]) -> list[FanoutStat]:
    """Parallel sections: spans with >= 2 children that overlap in time."""
    out: list[FanoutStat] = []
    for node in _walk(roots):
        if len(node.children) < 2:
            continue
        ordered = sorted(node.children, key=lambda n: n.start_s)
        overlapping = any(
            ordered[i + 1].start_s < ordered[i].end_s
            for i in range(len(ordered) - 1)
        )
        if not overlapping:
            continue
        wall = _union_seconds(
            [(child.start_s, child.end_s) for child in ordered]
        )
        out.append(
            FanoutStat(
                name=node.name,
                span_id=node.span_id,
                children=len(ordered),
                lanes=len({child.lane for child in ordered}),
                wall_s=wall,
                busy_s=sum(child.duration_s for child in ordered),
            )
        )
    out.sort(key=lambda s: -s.wall_s)
    return out


@dataclass
class CritPathReport:
    """The full attribution: path, phases, fan-outs, efficiency."""

    roots: list[SpanNode]
    path: list[SpanNode]
    phases: list[PhaseStat]
    fanouts: list[FanoutStat]
    wall_s: float
    busy_s: float
    lanes: int
    workers: int

    @property
    def efficiency(self) -> float:
        """Total self-time over (wall x workers)."""
        denom = self.wall_s * max(1, self.workers)
        return self.busy_s / denom if denom > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "wall_ms": 1e3 * self.wall_s,
            "busy_ms": 1e3 * self.busy_s,
            "lanes": self.lanes,
            "workers": self.workers,
            "efficiency": self.efficiency,
            "critical_path": [
                {
                    "name": node.name,
                    "span_id": node.span_id,
                    "duration_ms": 1e3 * node.duration_s,
                    "self_ms": 1e3 * node.self_seconds(),
                    "attributes": node.attributes,
                }
                for node in self.path
            ],
            "phases": [stat.to_dict() for stat in self.phases],
            "fanouts": [stat.to_dict() for stat in self.fanouts],
        }

    def render(self, max_phases: int | None = None) -> str:
        """Human-readable attribution report."""
        lines: list[str] = []
        root = self.path[0] if self.path else None
        if root is not None:
            lines.append(
                f"critical path (root {root.name!r}, "
                f"{1e3 * root.duration_s:.3f} ms):"
            )
            for depth, node in enumerate(self.path):
                attrs = "".join(
                    f" {k}={v}"
                    for k, v in sorted(node.attributes.items())
                    if k in ("shard", "worker", "task", "pid", "conjunct",
                             "keyword", "executor", "scheme")
                )
                indent = "  " * depth
                lines.append(
                    f"  {indent}{node.name}  "
                    f"{1e3 * node.duration_s:.3f} ms  "
                    f"(self {1e3 * node.self_seconds():.3f} ms)"
                    f"{attrs and '  [' + attrs.strip() + ']'}"
                )
        lines.append("")
        lines.append("per-phase self-time:")
        lines.append(
            f"  {'phase':<28}{'count':>7}{'total ms':>12}"
            f"{'self ms':>12}{'self %':>8}"
        )
        phases = self.phases[:max_phases] if max_phases else self.phases
        total_self = sum(stat.self_s for stat in self.phases) or 1.0
        for stat in phases:
            lines.append(
                f"  {stat.name:<28}{stat.count:>7}"
                f"{1e3 * stat.total_s:>12.3f}{1e3 * stat.self_s:>12.3f}"
                f"{100 * stat.self_s / total_self:>8.1f}"
            )
        if self.fanouts:
            lines.append("")
            lines.append("parallel sections (overlapping children):")
            lines.append(
                f"  {'span':<28}{'children':>9}{'lanes':>7}"
                f"{'wall ms':>11}{'busy ms':>11}{'eff':>7}"
            )
            for stat in self.fanouts:
                lines.append(
                    f"  {stat.name:<28}{stat.children:>9}{stat.lanes:>7}"
                    f"{1e3 * stat.wall_s:>11.3f}{1e3 * stat.busy_s:>11.3f}"
                    f"{stat.efficiency:>7.2f}"
                )
        lines.append("")
        lines.append(
            f"parallelism: busy {1e3 * self.busy_s:.3f} ms over "
            f"{1e3 * self.wall_s:.3f} ms wall on {self.lanes} lane(s), "
            f"{self.workers} worker(s) -- efficiency {self.efficiency:.2f}"
        )
        return "\n".join(lines)


def analyze(
    spans: Iterable["Span | dict"],
    root: str | None = None,
    workers: int | None = None,
) -> CritPathReport:
    """Full attribution over a trace.

    ``root`` filters the critical path to root spans of that name (the
    longest one wins); by default the longest root anywhere is walked.
    ``workers`` overrides the lane count in the efficiency denominator
    (pass the affine pool's worker count to measure against configured,
    rather than observed, parallelism).
    """
    roots = build_forest(spans)
    if not roots:
        return CritPathReport(
            roots=[], path=[], phases=[], fanouts=[],
            wall_s=0.0, busy_s=0.0, lanes=0, workers=workers or 0,
        )
    candidates = (
        [node for node in roots if node.name == root] if root else roots
    )
    path: list[SpanNode] = []
    if candidates:
        main = max(candidates, key=lambda n: n.duration_s)
        path = critical_path(main)
    all_nodes = list(_walk(roots))
    lanes = len({node.lane for node in all_nodes})
    return CritPathReport(
        roots=roots,
        path=path,
        phases=phase_stats(roots),
        fanouts=fanout_stats(roots),
        wall_s=_union_seconds([(n.start_s, n.end_s) for n in roots]),
        busy_s=sum(node.self_seconds() for node in all_nodes),
        lanes=lanes,
        workers=workers if workers is not None else lanes,
    )
