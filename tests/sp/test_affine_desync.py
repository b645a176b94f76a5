"""Error-path and wedge tests for the affine pool.

A dispatch sends each worker one message and reads its one reply, so
the ways to break a pipe's request/reply pairing are few: a guard
rejection, a worker error inside a message, a worker dying at boot or
mid-conversation, several dispatchers racing one failure, or a large
request racing a large reply.  Each test here constructs one of those
paths and asserts the pool either fully recovers (the next dispatch
reads its own replies) or latches broken for every caller — never the
silent third option where a stale reply feeds the next dispatch, and
never a hang.
"""

import multiprocessing
import os
import threading
import time
from multiprocessing.connection import Connection

import pytest

from repro import obs
from repro.core.merkle_family import MerkleInvertedSP
from repro.core.objects import ObjectMetadata
from repro.core.sp_frontend import ShardedStorageProvider
from repro.errors import ParameterError, ReproError, WorkerBootError
from repro.sp.affine import AffineWorkerPool, EngineSpec

from tests.sp.test_engine import entry_op

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


class TestWedge:
    def test_two_large_pings_to_one_shard_come_back(self):
        # Each message is far larger than a pipe buffer: a transport
        # that writes the second request while the worker is still
        # writing the first reply blocks both ends for good.
        pool = make_pool(shards=1)
        first, second = b"a" * (4 << 20), b"b" * (4 << 20)
        outcome = []

        def run():
            try:
                outcome.append(
                    pool.dispatch([(0, "ping", first), (0, "ping", second)])
                )
            except BaseException as exc:  # noqa: B036 - reported below
                outcome.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        try:
            thread.start()
            thread.join(timeout=30)
            if thread.is_alive():
                for worker in pool._workers:
                    worker.process.kill()
                thread.join(timeout=30)
                pytest.fail("dispatch of two 4 MiB pings wedged for 30 s")
            assert outcome == [[first, second]]
        finally:
            pool.close()


class TestGuardRejectionMidSend:
    def test_rejection_sends_nothing(self, monkeypatch):
        pool = make_pool(shards=2)
        sent = []
        real_send = Connection.send_bytes

        def spy(conn, buffer, *args):
            sent.append(len(buffer))
            return real_send(conn, buffer, *args)

        try:
            with obs.collect() as collector:
                assert pool.dispatch([(0, "ping", 1), (1, "ping", 2)]) == [1, 2]
                before = collector.metrics.snapshot()["sp.affine.request.bytes"]
                monkeypatch.setattr(Connection, "send_bytes", spy)
                # The third call's payload is rejected by guarded_dumps;
                # the two healthy calls before it must not go out either.
                calls = [
                    (0, "ping", 11),
                    (1, "ping", 22),
                    (0, "ping", MerkleInvertedSP(fanout=4)),
                ]
                with pytest.raises(ParameterError, match="resident shard state"):
                    pool.dispatch(calls)
                assert sent == []
                after = collector.metrics.snapshot()["sp.affine.request.bytes"]
                assert after == before
                assert not pool._broken
                # No stale 11/22 waits in a pipe: a fresh dispatch reads
                # its own echoes.
                assert pool.dispatch([(0, "ping", 41), (1, "ping", 42)]) == [41, 42]
                assert len(sent) == 2
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
            # No close op goes to the healthy worker: its pipe is closed
            # under it, and it exits on the end-of-file.
            started = time.perf_counter()
            pool.close()
            assert time.perf_counter() - started < 1.0
            assert not pool._workers[1].process.is_alive()
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


class TestWorkerErrorInMessage:
    def test_later_calls_run_and_the_next_dispatch_is_fresh(self):
        pool = make_pool(shards=1)
        try:
            # One message carries all three calls; the failing first one
            # must not stop the worker from running the other two.
            with pytest.raises(ParameterError, match="unknown shard op"):
                pool.dispatch(
                    [
                        (0, "explode", None),
                        (0, "apply", [entry_op("alpha", 7, bytes(32))]),
                        (0, "ping", 3),
                    ]
                )
            assert pool.request(0, "tree", "alpha").keys() == [7]
            assert pool.dispatch([(0, "ping", "a"), (0, "ping", "b")]) == ["a", "b"]
        finally:
            pool.close()


class TestWorkerBoot:
    def test_worker_dying_at_boot_closes_the_pool(self, monkeypatch):
        real_build = EngineSpec.build

        def build(spec):
            if spec.shard_id == 1:
                os._exit(3)  # dies before its handshake, reporting nothing
            return real_build(spec)

        monkeypatch.setattr(EngineSpec, "build", build)
        before = set(multiprocessing.active_children())
        with pytest.raises(WorkerBootError, match="affine-shard-1") as info:
            make_pool(shards=2)
        assert isinstance(info.value.__cause__, EOFError)
        leaked = [
            process.name
            for process in multiprocessing.active_children()
            if process not in before
        ]
        assert leaked == []


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
