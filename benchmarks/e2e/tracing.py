"""In-memory spans recorded by the harness around each layer's public call.

The program's own ``repro.obs`` spans are not used for attribution: the
harness calls each layer itself and brackets the call, so the per-layer
table is measured from outside and needs no cooperation from the code it
measures.  Spans are kept in a list and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

#: Name of the per-query root span; its self time is what no layer claimed.
ROOT = "query"


class SpanRecorder:
    """Single-threaded span stack: name, start, end, parent, query id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: query id -> how much slower than the reference clock the host ran
        #: while that query was traced (see ``refclock``); spans keep wall
        #: times, the sums below are in reference milliseconds.
        self.slowdown: dict[int, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, query_id: int):
        """Time the enclosed block as a child of the innermost open span."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "query": query_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _ms(self, span: dict) -> float:
        seconds = span["end"] - span["start"]
        return 1e3 * seconds / self.slowdown.get(span["query"], 1.0)

    def self_times_ms(self) -> dict[str, float]:
        """Per span name: duration minus the part child spans cover, summed.

        One thread records every span, so a span's children never overlap
        and their durations can simply be subtracted.
        """
        child_ms = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_ms[span["parent"]] += self._ms(span)
        totals: dict[str, float] = {}
        for span in self.spans:
            own = self._ms(span) - child_ms[span["id"]]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def pass_ms(self) -> float:
        """Sum of the root spans' durations: the traced pass's length."""
        return sum(self._ms(span) for span in self.spans if span["parent"] is None)

    def connected(self) -> bool:
        """Every span is a query root or names a recorded span of its query."""
        for span in self.spans:
            parent = span["parent"]
            if parent is None:
                if span["name"] != ROOT:
                    return False
            elif not (
                0 <= parent < span["id"]
                and self.spans[parent]["query"] == span["query"]
            ):
                return False
        return True

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                slowdown = self.slowdown.get(span["query"], 1.0)
                out.write(json.dumps({**span, "slowdown": slowdown}) + "\n")
