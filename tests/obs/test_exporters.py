"""Exporters on traces with concurrent children and merged metrics."""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.obs import xproc


def _concurrent_trace() -> obs.Collector:
    """A parent span with two children recorded from racing threads."""
    collector = obs.Collector()
    with obs.collect(collector):
        with collector.span("scatter", shards=2) as parent:
            barrier = threading.Barrier(2)

            def task(index: int) -> None:
                with collector.span("task", shard=index) as span:
                    # A thread's span stack starts empty: graft the child.
                    span.parent_id = parent.span_id
                    barrier.wait(timeout=5)

            threads = [
                threading.Thread(target=task, args=(i,)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    return collector


class TestJsonl:
    def test_round_trip_preserves_every_field(self, tmp_path):
        collector = _concurrent_trace()
        path = tmp_path / "trace.jsonl"
        obs.write_jsonl(collector.spans, str(path))
        loaded = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(loaded) == len(collector.spans)
        for state, span in zip(loaded, collector.spans):
            assert state["name"] == span.name
            assert state["span_id"] == span.span_id
            assert state["parent_id"] == span.parent_id
            assert state["start_s"] == span.start_s
            assert state["end_s"] == span.end_s
            assert state["duration_ms"] == pytest.approx(
                1e3 * span.duration_s
            )

    def test_empty_trace_writes_empty_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.write_jsonl([], str(path))
        assert path.read_text() == ""


class TestTree:
    def test_concurrent_children_nest_under_parent(self):
        collector = _concurrent_trace()
        tree = obs.render_tree(collector.spans)
        lines = tree.splitlines()
        assert lines[0].startswith("scatter")
        task_lines = [line for line in lines if "task" in line]
        assert len(task_lines) == 2
        assert all(line.startswith(("├─", "└─")) for line in task_lines)
        assert "shard=0" in tree and "shard=1" in tree


class TestSummaryAfterMerge:
    def test_counter_and_histogram_totals_exact(self):
        def worker_snapshot(n: int) -> dict:
            collector = obs.Collector()
            with obs.collect(collector):
                with collector.span("task"):
                    obs.inc("merged.count", n)
                    obs.observe("merged.cost", float(n))
            return xproc.capture(collector)

        snaps = [worker_snapshot(n) for n in (1, 2, 3, 4)]
        parent = obs.Collector()
        for snap in snaps:
            xproc.adopt(parent, snap)
        summary = obs.render_summary(parent.metrics)
        assert "merged.count" in summary
        snapshot = parent.metrics.snapshot()
        assert snapshot["merged.count"] == 10
        assert snapshot["merged.cost"]["count"] == 4
        assert snapshot["merged.cost"]["sum"] == pytest.approx(10.0)
        assert snapshot["merged.cost"]["min"] == pytest.approx(1.0)
        assert snapshot["merged.cost"]["max"] == pytest.approx(4.0)
