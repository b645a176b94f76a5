"""Cross-process telemetry: capture worker-side traces, merge upstream.

Spans and metric instruments hold locks and collector references, so
telemetry recorded inside a resident shard worker
(:mod:`repro.sp.affine`) would stay in the worker — the joins, proofs
and ingests that run there would be a black hole in the parent's trace.
This module closes the gap:

* the worker runs each traced message (one dispatch's calls to that
  shard) under a private :class:`~repro.obs.trace.Collector` and,
  when done, calls
  :func:`capture` to turn everything it recorded into one plain-data
  **snapshot** (spans as dicts, metrics via
  :meth:`~repro.obs.metrics.MetricsRegistry.dump_state`, plus a clock
  anchor) that rides back on the reply;
* the parent calls :func:`adopt` on the returned snapshot: span IDs
  are re-issued from the parent collector, worker-side roots are
  parented under the span that dispatched the request, metric
  accumulations fold in exactly, and **timestamps are rebased** onto
  the parent's ``perf_counter`` timeline.

Clock rebasing uses a wall-clock anchor: ``perf_counter`` epochs are
arbitrary per process, but ``time.time`` reads the one system clock,
so the worker captures both at one instant and the parent aligns the
two timelines through it.  (The wall clock is used purely as a shared
reference point — never as a duration source; durations always come
from ``perf_counter`` differences taken within one process.)

The result: a sharded ingest or query through the affine pool produces
one connected trace — the dispatching span (``query.sp``, ``insert``)
with an ``sp.affine.rpc`` child per call, each containing the spans
the worker actually recorded.
"""

from __future__ import annotations

import os
import time

from repro.obs.trace import Collector, Span


def _span_state(span: Span) -> dict:
    """One span as plain transferable data (raw clock values kept)."""
    return {
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "thread": span.thread,
        "start_s": span.start_s,
        "end_s": span.end_s,
        "attributes": dict(span.attributes),
    }


def capture(collector: Collector) -> dict:
    """Snapshot a collector's spans and metrics as picklable plain data.

    Call at the end of a worker task, on the worker, after every span
    of interest has closed.  The snapshot carries a paired
    ``(time.time, perf_counter)`` anchor so :func:`adopt` can map the
    worker's ``perf_counter`` timeline onto the adopting process's.
    """
    with collector._lock:
        spans = [_span_state(span) for span in collector.spans]
    return {
        "pid": os.getpid(),
        "spans": spans,
        "metrics": collector.metrics.dump_state(),
        # Paired reading of both clocks, as close together as Python
        # allows; the wall clock is the cross-process reference point.
        "wall_anchor": time.time(),
        "perf_anchor": time.perf_counter(),
    }


def adopt(
    collector: Collector,
    snapshot: dict,
    parent_id: int | None = None,
    extra_attributes: dict | None = None,
) -> list[Span]:
    """Fold a worker snapshot into ``collector``; returns adopted spans.

    Span IDs are re-issued from the adopting collector (worker counters
    all start at 1 and would collide); parent links are remapped
    accordingly, and snapshot roots are attached under ``parent_id``.
    ``extra_attributes`` (worker/shard labels) are merged into the
    roots.  Metric accumulations fold in via
    :meth:`~repro.obs.metrics.MetricsRegistry.merge_state`.

    If the snapshot came from another process, every timestamp is
    shifted so spans land at the right place on the adopting process's
    ``perf_counter`` timeline; durations are preserved exactly.
    """
    offset = 0.0
    cross_process = snapshot.get("pid") != os.getpid()
    if cross_process:
        # perf_parent(t) = perf_worker(t) + offset, where both anchors
        # were taken at (nearly) the same wall-clock instant.
        offset = (
            # Not a duration: both clocks read at the same instant to
            # relate the worker's epoch to ours.
            (time.perf_counter() - time.time())  # reprolint: disable=wallclock
            - (snapshot["perf_anchor"] - snapshot["wall_anchor"])
        )
    states = snapshot.get("spans", [])
    # Two passes: spans are recorded on *exit*, so a parent appears
    # after its children — every new ID must exist before any parent
    # link is remapped.
    adopted: list[Span] = []
    id_map: dict[int, int] = {}
    for state in states:
        span = Span(collector, state["name"], dict(state["attributes"]))
        id_map[state["span_id"]] = span.span_id
        if cross_process:
            # Lane identity for concurrency analysis: a worker's
            # "MainThread" is not the parent's, so qualify it.
            span.attributes.setdefault("pid", snapshot.get("pid"))
        adopted.append(span)
    for state, span in zip(states, adopted):
        span.thread = state["thread"]
        span.start_s = state["start_s"] + offset
        span.end_s = (
            None if state["end_s"] is None else state["end_s"] + offset
        )
        old_parent = state["parent_id"]
        if old_parent in id_map:
            span.parent_id = id_map[old_parent]
        else:  # a snapshot root: graft it under the dispatching span
            span.parent_id = parent_id
            if extra_attributes:
                for key, value in extra_attributes.items():
                    span.attributes.setdefault(key, value)
    with collector._lock:
        collector.spans.extend(adopted)
    collector.metrics.merge_state(snapshot.get("metrics", {}))
    return adopted
