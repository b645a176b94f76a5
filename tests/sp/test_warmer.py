"""CacheWarmer: warmed proofs verify, tampering fails closed, signals."""

import dataclasses

import pytest

from repro import obs
from repro.core.objects import DataObject
from repro.core.query.parser import KeywordQuery
from repro.core.system import HybridStorageSystem
from repro.errors import ReproError, VerificationError
from repro.sp.warmer import ACCESS_METRIC_PREFIX, CacheWarmer
from tests.node_tables import change, forge


def corpus():
    return [
        DataObject(1, ("alpha", "beta"), b"one"),
        DataObject(2, ("alpha",), b"two"),
        DataObject(3, ("beta", "gamma"), b"three"),
    ]


def make_system(**kwargs):
    kwargs.setdefault("witness_warmer", True)
    kwargs.setdefault("warm_hot_threshold", 0)
    system = HybridStorageSystem(scheme="smi", seed=13, **kwargs)
    for obj in corpus():
        system.add_object(obj)
    return system


class TestWarming:
    def test_warmed_proofs_land_in_cache_and_queries_hit(self):
        system = make_system()
        assert sorted(system.warmer.pending()) == ["alpha", "beta", "gamma"]
        warmed = system.warm_pending()
        assert warmed > 0
        assert system.warmer.pending() == []
        # Warming went through real verification — one fold per
        # keyword's scan table — so only misses so far.
        assert warmed == 5 and system.verify_cache.misses == 3
        assert system.verify_cache.hits == 0
        # A scan presents exactly the table that was warmed (a join cuts
        # its own, which are the warmed ones only where it reads a tree
        # whole).
        assert system.query('"alpha"').verified
        assert (system.verify_cache.hits, system.verify_cache.misses) == (1, 3)

    def test_insert_redirties_only_touched_keywords(self):
        system = make_system()
        system.warm_pending()
        system.add_object(DataObject(4, ("alpha",), b"four"))
        assert system.warmer.pending() == ["alpha"]

    def test_empty_keyword_clears_dirty(self):
        system = make_system()
        system.warmer.note_insert(["ghost"])
        assert "ghost" in system.warmer.pending()
        assert system.warmer.warm("ghost") == 0
        assert "ghost" not in system.warmer.pending()

    def test_warm_pending_requires_warmer(self):
        system = HybridStorageSystem(scheme="smi", seed=13)
        with pytest.raises(ReproError):
            system.warm_pending()


class TestChameleonWarming:
    """The warmer verifies a keyword's full-scan table; a query asks the
    cache about the openings of whatever rows it reads.  Both spell an
    opening the same way."""

    def make_ci_system(self):
        system = HybridStorageSystem(
            scheme="ci",
            seed=13,
            cvc_modulus_bits=512,
            witness_warmer=True,
            warm_hot_threshold=0,
        )
        for i in range(1, 10):
            kws = ("alpha", "beta") if i % 2 else ("alpha",)
            system.add_object(DataObject(i, kws, b"x%d" % i))
        return system

    def test_warm_then_compressed_query_hits_every_opening(self, monkeypatch):
        from repro.crypto import vc

        system = self.make_ci_system()
        with obs.collect() as collector:
            assert system.warm_pending() == 9 + 5
        # Two openings per posting — a scan table holds entry rows only,
        # each with its slot-1 and its link opening — and each keyword
        # settled as one batch.
        assert system.verify_cache.misses == 2 * (9 + 5)
        assert len(system.verify_cache) == 2 * (9 + 5)
        counters = collector.metrics.snapshot()
        assert counters["vc.verify.batches"] == 2
        assert counters["vc.verify.batched_openings"] == 2 * (9 + 5)
        assert "vc.verify.batch_fallbacks" not in counters
        # A warmed scan costs no exponentiation of any kind at query time.
        calls = []
        for name in ("verify", "verify_batch", "multi_exp"):
            real = getattr(vc, name)
            monkeypatch.setattr(
                vc,
                name,
                lambda *args, _real=real, **kw: calls.append(args)
                or _real(*args, **kw),
            )
        misses = system.verify_cache.misses
        answer = system.process_query(KeywordQuery.parse('"alpha"'))
        assert answer.vo.multiproofs  # the very table the warmer verified
        for text in ('"alpha"', '"alpha" AND "beta"', '"beta"'):
            assert system.query(text).verified
        assert calls == []
        assert system.verify_cache.misses == misses
        assert system.verify_cache.hits > 0


    def test_tampered_entry_is_neither_counted_nor_cached(self):
        """One bad opening and the keyword's table warms nothing: its
        batch fails, nothing of it is cached, and a later query that
        presents the bad opening still has to check it — and fails."""
        system = self.make_ci_system()
        genuine = system._locked_prove("beta")
        assert genuine.count == 5
        tampered = forge(
            genuine, {4: lambda r: change(slot1_proof=r.slot1_proof ^ 1)(r)}
        )
        warmer = CacheWarmer(
            prove=lambda kw: tampered,
            proof_system=system.chain_proof_system,
            hot_threshold=0,
        )
        warmer.note_insert(["beta"])
        with obs.collect() as collector:
            assert warmer.warm("beta") == 0
        counters = collector.metrics.snapshot()
        assert counters.get("sp.warm.entries", 0) == 0
        assert counters["sp.warm.failures"] == 5
        assert counters["vc.verify.batch_fallbacks"] == 1
        assert "beta" in warmer.pending()
        assert len(system.verify_cache) == 0
        ps = system.chain_proof_system(frozenset(("beta",)))
        ps.attach_multiproofs((tampered,))
        with pytest.raises(VerificationError):
            with ps.settling():
                ps.proven_run("beta", 0).scan()


class TestFailClosed:
    def tampered_scan(self, system, keyword, leaves):
        """The keyword's scan table with the hashes of ``leaves`` zeroed."""
        genuine = system._locked_prove(keyword)
        forged = tuple(
            (key, bytes(32) if index in leaves else value)
            for index, (key, value) in enumerate(genuine.leaves)
        )
        return genuine, dataclasses.replace(genuine, leaves=forged)

    def test_tampered_entries_never_reach_the_cache(self):
        system = make_system()
        genuine, tampered = self.tampered_scan(system, "alpha", {0, 1})
        warmer = CacheWarmer(
            prove=lambda kw: tampered,
            proof_system=system.chain_proof_system,
            hot_threshold=0,
        )
        warmer.note_insert(["alpha"])
        with obs.collect() as col:
            assert warmer.warm("alpha") == 0
            snap = col.metrics.snapshot()
        assert snap["sp.warm.failures"] == len(tampered.leaves)
        assert snap.get("sp.warm.entries", 0) == 0
        # The keyword stays dirty so the failure is re-observed.
        assert "alpha" in warmer.pending()
        # Nothing was cached: verifying the tampered table still raises.
        assert len(system.verify_cache) == 0
        ps = system.chain_proof_system(frozenset(("alpha",)))
        ps.attach_multiproofs((tampered,))
        with pytest.raises(VerificationError):
            ps.proven_run("alpha", 0)

    def test_partial_tampering_caches_only_good_entries(self):
        """A table is warmed whole or not at all: one bad leaf of two
        caches nothing, and the honest table then warms every entry."""
        system = make_system()
        genuine, mixed = self.tampered_scan(system, "alpha", {1})
        assert len(genuine.leaves) >= 2
        tables = [mixed, genuine]
        warmer = CacheWarmer(
            prove=lambda kw: tables[0],
            proof_system=system.chain_proof_system,
            hot_threshold=0,
        )
        warmer.note_insert(["alpha"])
        assert warmer.warm("alpha") == 0
        assert "alpha" in warmer.pending()
        assert len(system.verify_cache) == 0
        tables.pop(0)
        assert warmer.warm("alpha") == len(genuine.leaves)
        assert warmer.pending() == []
        assert len(system.verify_cache) == 1  # the one fold a scan presents


class TestSignals:
    def test_hot_threshold_gates_pending(self):
        system = make_system(warm_hot_threshold=2)
        warmer = system.warmer
        assert warmer.pending() == []
        warmer.note_access(["alpha"])
        assert warmer.pending() == []
        warmer.note_access(["alpha"])
        assert warmer.pending() == ["alpha"]

    def test_queries_feed_the_access_signal(self):
        system = make_system(warm_hot_threshold=2)
        system.query('"alpha"')
        system.query('"alpha"')
        assert system.warmer.pending() == ["alpha"]

    def test_sync_from_metrics_consumes_deltas(self):
        warmer = CacheWarmer(
            prove=lambda kw: [], proof_system=None, hot_threshold=2
        )
        with obs.collect():
            obs.inc(ACCESS_METRIC_PREFIX + "alpha", 2)
            assert warmer.sync_from_metrics() == 2
            # Already-consumed counts are not absorbed twice.
            assert warmer.sync_from_metrics() == 0
            obs.inc(ACCESS_METRIC_PREFIX + "alpha")
            assert warmer.sync_from_metrics() == 1
        warmer.note_insert(["alpha"])
        assert warmer.pending() == ["alpha"]

    def test_sync_without_registry_is_a_noop(self):
        warmer = CacheWarmer(
            prove=lambda kw: [], proof_system=None, hot_threshold=0
        )
        assert warmer.sync_from_metrics() == 0


class TestBackground:
    def test_background_thread_warms_until_idle(self):
        system = make_system()
        assert system.warmer.pending()
        system.warmer.start(interval_s=0.01)
        try:
            assert system.warmer.wait_idle(timeout_s=5.0)
        finally:
            system.warmer.stop()
        assert system.verify_cache.misses > 0
        assert system.query('"gamma"').verified

    def test_start_twice_and_close_are_safe(self):
        system = make_system()
        system.warmer.start(interval_s=0.01)
        system.warmer.start(interval_s=0.01)
        system.close()
        system.close()

    def test_stop_joins_and_reports_exit(self):
        import threading

        warmer = CacheWarmer(
            prove=lambda kw: [], proof_system=None, hot_threshold=0
        )
        before = threading.active_count()
        warmer.start(interval_s=0.01)
        assert threading.active_count() == before + 1
        assert warmer.stop() is True
        assert threading.active_count() == before
        # Idempotent, including the never-started case.
        assert warmer.stop() is True
        assert CacheWarmer(
            prove=lambda kw: [], proof_system=None, hot_threshold=0
        ).stop() is True

    def test_close_leaks_no_warmer_threads(self):
        import threading

        system = make_system()
        system.warmer.start(interval_s=0.01)
        system.close()
        assert not any(
            thread.name == "cache-warmer" and thread.is_alive()
            for thread in threading.enumerate()
        )

    def test_sharded_stop_aggregates_every_shard(self):
        from repro.sp.engine import ShardRouter
        from repro.sp.warmer import ShardedCacheWarmer

        warmers = [
            CacheWarmer(
                prove=lambda kw: [], proof_system=None, hot_threshold=0
            )
            for _ in range(3)
        ]
        sharded = ShardedCacheWarmer(warmers, ShardRouter(3, seed=1))
        sharded.start(interval_s=0.01)
        assert sharded.stop() is True
        for warmer in warmers:
            assert warmer._thread is None
