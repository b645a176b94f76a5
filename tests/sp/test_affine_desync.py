"""Error-path desync tests for the affine pool.

The pipe protocol's invariant — exactly one reply consumed per request
sent — is easiest to break on error paths: a guard rejection after some
requests already hit their pipes, a worker dying mid-conversation, or
several dispatchers racing one failure.  Each test here constructs one
of those paths and asserts the pool either fully recovers (replies
drained, next dispatch sees fresh results) or latches broken for every
caller — never the silent third option where a stale reply feeds the
next dispatch.
"""

import threading

import pytest

from repro.core.merkle_family import MerkleInvertedSP
from repro.core.objects import ObjectMetadata
from repro.core.sp_frontend import ShardedStorageProvider
from repro.errors import ParameterError, ReproError
from repro.sp.affine import AffineWorkerPool, EngineSpec

MERKLE_SPEC = ("merkle", {"fanout": 4})


def make_pool(shards=2):
    return AffineWorkerPool(
        [
            EngineSpec(
                shard_id=shard, engine="memory", index_spec=MERKLE_SPEC
            )
            for shard in range(shards)
        ]
    )


class TestGuardRejectionMidSend:
    def test_prior_sends_are_drained_and_pool_survives(self):
        pool = make_pool(shards=2)
        try:
            # Two requests reach their pipes before the third call's
            # payload is rejected by guarded_dumps.
            calls = [
                (0, "ping", 11),
                (1, "ping", 22),
                (0, "ping", MerkleInvertedSP(fanout=4)),
            ]
            with pytest.raises(ParameterError, match="resident shard state"):
                pool.dispatch(calls)
            assert not pool._broken
            # Both already-sent replies were consumed: a fresh dispatch
            # must see its own echoes, not the stale 11/22.
            assert pool.request(0, "ping", 41) == 41
            assert pool.request(1, "ping", 42) == 42
        finally:
            pool.close()

    def test_concurrent_dispatch_against_guard_rejections(self):
        pool = make_pool(shards=2)
        errors = []
        barrier = threading.Barrier(3)

        def echoer(base):
            try:
                barrier.wait(timeout=10)
                for i in range(25):
                    value = base + i
                    got = pool.dispatch(
                        [(0, "ping", value), (1, "ping", -value)]
                    )
                    if got != [value, -value]:
                        errors.append((value, got))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        def rejecter():
            barrier.wait(timeout=10)
            for _ in range(25):
                with pytest.raises(
                    ParameterError, match="resident shard state"
                ):
                    pool.dispatch(
                        [
                            (0, "ping", 0),
                            (1, "ping", MerkleInvertedSP(fanout=4)),
                        ]
                    )

        try:
            threads = [
                threading.Thread(target=echoer, args=(1000,)),
                threading.Thread(target=echoer, args=(100000,)),
                threading.Thread(target=rejecter),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert not pool._broken
        finally:
            pool.close()


class TestDeadPipe:
    def test_dead_worker_latches_pool_broken(self):
        pool = make_pool(shards=2)
        try:
            pool._workers[0].process.kill()
            pool._workers[0].process.join(timeout=10)
            with pytest.raises((EOFError, OSError, ReproError)):
                pool.dispatch([(0, "ping", 1)])
            assert pool._broken
            with pytest.raises(ReproError, match="broken"):
                pool.dispatch([(1, "ping", 2)])
        finally:
            pool.close()
            pool.close()  # idempotent, even when broken

    def test_broken_pool_fails_fast_for_every_thread(self):
        pool = make_pool(shards=1)
        try:
            pool._workers[0].process.kill()
            pool._workers[0].process.join(timeout=10)
            with pytest.raises((EOFError, OSError, ReproError)):
                pool.dispatch([(0, "ping", 1)])
            assert pool._broken

            outcomes = []

            def poke():
                try:
                    pool.dispatch([(0, "ping", 1)])
                    outcomes.append("returned")
                except ReproError:
                    outcomes.append("refused")

            threads = [threading.Thread(target=poke) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert outcomes == ["refused"] * 4
        finally:
            pool.close()


class TestProxyFlushFailure:
    def test_failed_flush_leaves_no_dangling_records(self):
        sp = ShardedStorageProvider(
            index_spec=MERKLE_SPEC,
            scheme_value="mi",
            join_order="size",
            join_plan="cyclic",
            pool="affine",
        )
        pool = sp.pool
        try:
            sp.insert_entries(ObjectMetadata(1, ("alpha", "beta"), bytes(32)))
            pool._workers[0].process.kill()
            pool._workers[0].process.join(timeout=10)
            with pytest.raises((EOFError, OSError, ReproError)):
                sp.flush_mutations()
            # The failed chunk is not silently requeued: replaying it
            # against a rebuilt pool could double-apply a prefix the
            # worker had already journalled before dying.
            assert sp._pending == [[]]
            assert sp.flush_mutations() == 0
            assert pool._broken
        finally:
            sp.close()
