"""Render and export collected telemetry.

Three consumers, three formats:

* :func:`spans_to_jsonl` / :func:`write_jsonl` — one JSON object per
  finished span, for offline tooling;
* :func:`render_tree` — a human-readable span tree for the CLI;
* :func:`render_summary` — a metrics table (counters, gauges and
  histogram summaries) for the CLI.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span


def span_to_dict(span: Span) -> dict:
    """One span as a JSON-ready dict."""
    return {
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "thread": span.thread,
        "start_s": span.start_s,
        "end_s": span.end_s,
        "duration_ms": 1e3 * span.duration_s,
        "attributes": span.attributes,
    }


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """Serialise spans as JSON lines (one span per line)."""
    return "\n".join(json.dumps(span_to_dict(s), default=str) for s in spans)


def write_jsonl(spans: Iterable[Span], path: str) -> None:
    """Write the JSONL trace dump to ``path``."""
    with open(path, "w") as handle:
        dump = spans_to_jsonl(spans)
        if dump:
            handle.write(dump + "\n")


def _format_attrs(attributes: dict) -> str:
    if not attributes:
        return ""
    rendered = " ".join(f"{k}={v}" for k, v in sorted(attributes.items()))
    return f"  [{rendered}]"


def render_tree(spans: Sequence[Span]) -> str:
    """A box-drawing tree of the spans, children indented under parents.

    Spans whose parent never finished (or was recorded by another
    collector) are promoted to roots, so partial traces still render.
    """
    by_id = {s.span_id: s for s in spans}
    children: dict[int | None, list[Span]] = {}
    for s in spans:
        parent = s.parent_id if s.parent_id in by_id else None
        children.setdefault(parent, []).append(s)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start_s, s.span_id))

    lines: list[str] = []

    def emit(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            head, child_prefix = "", ""
        else:
            head = prefix + ("└─ " if is_last else "├─ ")
            child_prefix = prefix + ("   " if is_last else "│  ")
        lines.append(
            f"{head}{span.name}  {1e3 * span.duration_s:.3f} ms"
            f"{_format_attrs(span.attributes)}"
        )
        kids = children.get(span.span_id, [])
        for i, kid in enumerate(kids):
            emit(kid, child_prefix, i == len(kids) - 1, False)

    roots = children.get(None, [])
    for root in roots:
        emit(root, "", True, True)
    return "\n".join(lines)


def render_summary(registry: MetricsRegistry) -> str:
    """A sorted, human-readable table of every registered metric."""
    snap = registry.snapshot()
    if not snap:
        return "(no metrics recorded)"
    width = max(len(name) for name in snap)
    lines = []
    for name in sorted(snap):
        value = snap[name]
        if isinstance(value, dict):  # histogram summary
            rendered = (
                f"count={value['count']} sum={value['sum']:.6g} "
                f"mean={value['mean']:.6g} min={value['min']:.6g} "
                f"max={value['max']:.6g}"
                if value["count"]
                else "count=0"
            )
        elif isinstance(value, float):
            rendered = f"{value:.6g}"
        else:
            rendered = f"{value:,}"
        lines.append(f"{name:<{width}}  {rendered}")
    return "\n".join(lines)
