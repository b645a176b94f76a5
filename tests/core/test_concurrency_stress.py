"""Concurrency stress tests for the verification cache and obs metrics.

Many threads hammer :class:`VerificationCache` and the metrics
instruments with an aggressively lowered thread switch interval; the
assertions demand *exact* totals, so any lost update (a mutation outside
the lock) fails the test rather than showing up as flaky telemetry.
"""

import sys
import threading

import pytest

from repro.core.proofcache import VerificationCache
from repro.obs.metrics import MetricsRegistry

N_THREADS = 8


@pytest.fixture(autouse=True)
def aggressive_thread_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def hammer(worker):
    """Run ``worker(thread_index)`` on N_THREADS threads, gate-released."""
    barrier = threading.Barrier(N_THREADS)
    errors = []

    def run(index):
        barrier.wait()
        try:
            worker(index)
        except BaseException as exc:  # surfaced via the assertion below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


class TestVerificationCacheStress:
    def test_hit_miss_counters_exact_under_contention(self):
        cache = VerificationCache(maxsize=128, metric_prefix="stress.cache")
        per_thread = 2000

        def worker(index):
            for i in range(per_thread):
                key = ("proof", i % 200)
                if not cache.seen(key):
                    cache.add(key)

        hammer(worker)
        assert cache.hits + cache.misses == N_THREADS * per_thread
        assert len(cache) <= 128

    def test_clear_during_contention_keeps_totals_consistent(self):
        cache = VerificationCache(maxsize=64, metric_prefix="stress.clear")
        per_thread = 1000

        def worker(index):
            for i in range(per_thread):
                key = ("proof", i % 50)
                if not cache.seen(key):
                    cache.add(key)
                if index == 0 and i % 250 == 0:
                    cache.clear()

        hammer(worker)
        # clear() resets the counters under the same lock as seen(), so
        # the final tallies are a consistent (if partial) count.
        assert 0 <= cache.hits + cache.misses <= N_THREADS * per_thread
        assert len(cache) <= 64


    def test_node_index_never_outlives_its_statements(self):
        cache = VerificationCache(maxsize=64, metric_prefix="stress.nodes")
        per_thread = 500

        def worker(index):
            for i in range(per_thread):
                position = (7 * index + i) % 100
                key = cache.key(7, bytes((position,)) * 3)
                cache.add(key)
                cache.index("kw", 1, 1, {position: key})
                if i % 50 == 0:
                    cache.held_nodes(["kw"])

        hammer(worker)
        # Every indexed position's statement is cached and points back.
        group = cache._nodes._groups["kw"]
        assert group.keys
        for position, key in group.keys.items():
            assert cache._entries[key][2] == ("kw", position)
        assert len(group.keys) <= 64


class TestMetricsStress:
    def test_counter_no_lost_increments(self):
        registry = MetricsRegistry()
        per_thread = 5000

        def worker(index):
            for _ in range(per_thread):
                registry.counter("stress.count").inc()

        hammer(worker)
        assert registry.counter("stress.count").value == N_THREADS * per_thread

    def test_histogram_exact_count_and_sum(self):
        registry = MetricsRegistry()
        hist = registry.histogram("stress.hist")
        per_thread = 3000

        def worker(index):
            for i in range(per_thread):
                hist.observe(float(i % 7))

        hammer(worker)
        snap = hist.snapshot()
        assert snap["count"] == N_THREADS * per_thread
        # Integer-valued floats sum exactly below 2**53.
        assert snap["sum"] == N_THREADS * sum(i % 7 for i in range(per_thread))
        assert sum(n for _, n in snap["buckets"]) == N_THREADS * per_thread
        assert snap["min"] == 0.0
        assert snap["max"] == 6.0

    def test_concurrent_instrument_creation_agrees(self):
        registry = MetricsRegistry()
        per_thread = 500

        def worker(index):
            for i in range(per_thread):
                registry.counter(f"stress.created.{i % 20}").inc()

        hammer(worker)
        snap = registry.snapshot()
        total = sum(snap[f"stress.created.{i}"] for i in range(20))
        assert total == N_THREADS * per_thread

    def test_merge_preserves_totals(self):
        source = MetricsRegistry()
        target = MetricsRegistry()
        for i in range(100):
            source.counter("merged.count").inc()
            source.histogram("merged.hist").observe(float(i))
            target.histogram("merged.hist").observe(float(i))
        target.merge(source)
        assert target.counter("merged.count").value == 100
        snap = target.histogram("merged.hist").snapshot()
        assert snap["count"] == 200
        assert snap["sum"] == 2 * sum(range(100))
