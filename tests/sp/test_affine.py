"""Shard-affine worker pool: parity, guarding, recovery, telemetry.

The affine pool must be invisible above the SP exactly like the
stateless scatter path: byte-identical VOs, answers and gas at any
shard count, with the structural invariant that resident shard state
(trees, index mirrors, engines) never crosses the pipe toward a worker.
"""

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.merkle_family import MerkleInvertedSP
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.query.parser import KeywordQuery
from repro.core.query.vo import QueryVO
from repro.core.sp_frontend import ShardedStorageProvider
from repro.core.system import HybridStorageSystem
from repro.errors import ParameterError, ReproError
from repro.parallel import RemoteTraceback
from repro.sp.affine import (
    RPC_SPAN,
    AffineWorkerPool,
    EngineSpec,
    guarded_dumps,
)
from repro.sp.engine import POOL_KINDS, IndexShardEngine

from tests import journal_records
from tests.sp.test_engine import entry_op
from tests.sp.test_sharding import QUERIES, SCHEMES, build, make_docs, vo_frame

MERKLE_SPEC = ("merkle", {"fanout": 4})


def make_pool(shards=1, **kwargs):
    return AffineWorkerPool(
        [
            EngineSpec(
                shard_id=shard, engine="memory", index_spec=MERKLE_SPEC, **kwargs
            )
            for shard in range(shards)
        ]
    )


@pytest.mark.parametrize("scheme", SCHEMES)
class TestAffineParity:
    """Resident workers vs the serial single-shard reference."""

    def test_answers_vo_and_gas_identical(self, scheme):
        base, base_reports = build(scheme, shards=1)
        affine, affine_reports = build(scheme, shards=4, pool="affine")

        assert [r.gas for r in base_reports] == [
            r.gas for r in affine_reports
        ]
        for text in QUERIES:
            query = KeywordQuery.parse(text)
            answer_base = base.process_query(query)
            answer_affine = affine.process_query(query)
            assert answer_base.result_ids == answer_affine.result_ids
            for vo_base, vo_affine in zip(
                answer_base.vo.conjuncts, answer_affine.vo.conjuncts
            ):
                assert vo_frame(base, QueryVO(conjuncts=(vo_base,))) == vo_frame(
                    affine, QueryVO(conjuncts=(vo_affine,))
                )

            result_base = base.query(text)
            result_affine = affine.query(text)
            assert result_base.result_ids == result_affine.result_ids
            assert result_base.vo_sp_bytes == result_affine.vo_sp_bytes
        base.close()
        affine.close()

    def test_batched_ingest_matches_per_object(self, scheme):
        serial = HybridStorageSystem(
            scheme=scheme, seed=13, shards=1, cvc_modulus_bits=512
        )
        affine = HybridStorageSystem(
            scheme=scheme,
            seed=13,
            shards=4,
            cvc_modulus_bits=512,
            pool="affine",
        )
        docs = make_docs(8)
        for obj in docs:
            serial.add_object(obj)
        affine.add_objects_batched(docs)
        for text in QUERIES[:3]:
            result_serial = serial.query(text)
            result_affine = affine.query(text)
            assert result_serial.result_ids == result_affine.result_ids
            assert result_serial.vo_sp_bytes == result_affine.vo_sp_bytes
        serial.close()
        affine.close()


#: (shards, pool, engine) layouts the batched MI path must agree across.
BULK_LAYOUTS = {
    "1-in-process": (1, "stateless", "memory"),
    "3-in-process": (3, "stateless", "memory"),
    "2-in-process-disk": (2, "stateless", "disk"),
    "2-affine": (2, "affine", "memory"),
    "2-affine-disk": (2, "affine", "disk"),
}

#: One batch: per object, the keywords it carries (IDs are assigned in
#: stream order by the test, ascending as the trees require).
posting_batches = st.lists(
    st.sets(st.sampled_from(["k%d" % i for i in range(7)]), min_size=1, max_size=4),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("layout", sorted(BULK_LAYOUTS))
def test_batched_ingest_keeps_per_object_roots_in_every_layout(layout, tmp_path):
    """After MI's ``add_objects_batched`` every keyword's root and entry
    list equal those of the per-object ``add_object`` path — in this
    process and in the workers, which apply the same buffered records —
    and a restarted disk SP replays its journals to the same roots (a
    system refuses such a directory, so the SP is reopened on its own).

    Both systems live across the examples, so later batches extend
    trees earlier ones built.
    """
    shards, pool, engine = BULK_LAYOUTS[layout]

    def state(sp):
        trees = {keyword: sp.tree(keyword) for keyword in sorted(seen)}
        return {
            keyword: (
                tree.root_hash,
                [(e.key, e.value_hash) for e in tree.iter_entries()],
            )
            for keyword, tree in trees.items()
        }

    def batched():
        return HybridStorageSystem(
            scheme="mi",
            seed=13,
            shards=shards,
            pool=pool,
            engine=engine,
            engine_dir=tmp_path if engine == "disk" else None,
        )

    reference = HybridStorageSystem(scheme="mi", seed=13)
    bulk = batched()
    seen: set[str] = set()
    ids = itertools.count(1)

    @settings(max_examples=12, deadline=None)
    @given(posting_batches)
    def check(batch):
        objects = [
            DataObject(object_id, tuple(sorted(keywords)), b"o%d" % object_id)
            for object_id, keywords in zip(ids, batch)
        ]
        for obj in objects:
            reference.add_object(obj)
            seen.update(obj.keywords)
        bulk.add_objects_batched(objects)
        assert state(bulk._sp) == state(reference._sp)

    try:
        check()
        assert seen
        if engine == "disk":
            bulk.close()
            bulk = ShardedStorageProvider(
                index_spec=MERKLE_SPEC,
                scheme_value="mi",
                shards=shards,
                engine=engine,
                engine_dir=tmp_path,
                seed=13,
                pool=pool,
            )
            assert state(bulk) == state(reference._sp)
    finally:
        reference.close()
        bulk.close()


class TestObjectHoming:
    def test_objects_reachable_and_counted(self):
        system, _ = build("mi", shards=4, pool="affine")
        assert len(system) == 10
        assert system.all_object_ids() == list(range(10))
        for object_id in system.all_object_ids():
            assert system.get_object(object_id).object_id == object_id
        system.close()

    def test_duplicate_insert_rejected(self):
        system, _ = build("mi", shards=4, pool="affine")
        with pytest.raises(ReproError):
            system.add_object(DataObject(0, ("alpha",), b"dup"))
        system.close()


class TestRequestGuard:
    """Resident shard state must never be pickled into a request."""

    def test_trees_and_mirrors_rejected(self):
        engine = IndexShardEngine(0, lambda: MerkleInvertedSP(fanout=4))
        engine.apply_ops([entry_op("alpha", 1, bytes(32))])
        for forbidden in (
            engine.tree("alpha"),
            MerkleInvertedSP(fanout=4),
            engine,
        ):
            with pytest.raises(ParameterError, match="resident shard state"):
                guarded_dumps(forbidden)
            # Nesting does not smuggle it past the guard.
            with pytest.raises(ParameterError, match="resident shard state"):
                guarded_dumps(("apply", [forbidden], False))

    def test_plain_delta_payloads_pass(self):
        payload = (
            "apply",
            [("entry", "a", 1, bytes(32)), ("object", DataObject(1, ("a",), b"x"))],
            False,
        )
        assert pickle.loads(guarded_dumps(payload)) == payload

    def test_dispatch_refuses_state_and_pool_survives(self):
        pool = make_pool()
        try:
            tree_holder = MerkleInvertedSP(fanout=4)
            with pytest.raises(ParameterError, match="resident shard state"):
                pool.dispatch([(0, "ping", tree_holder)])
            # The guard fired before anything hit the pipe.
            assert pool.request(0, "ping", 41) == 41
        finally:
            pool.close()

    def test_guard_sees_subclasses_defined_after_first_dumps(self):
        # Prime the dispatch table, then define a subclass: a cached
        # table would let it pickle straight past the guard.
        guarded_dumps(("ping", None, False))

        class LateMirror(MerkleInvertedSP):
            pass

        with pytest.raises(ParameterError, match="resident shard state"):
            guarded_dumps(LateMirror(fanout=4))

    def test_guard_failure_mid_dispatch_leaves_pipes_idle(self):
        pool = make_pool(shards=2)
        try:
            tree_holder = MerkleInvertedSP(fanout=4)
            # The third call's payload is rejected while the messages
            # are pickled, before any of them is sent: no worker has a
            # request to answer, so no reply waits to be misread.
            with pytest.raises(ParameterError, match="resident shard state"):
                pool.dispatch(
                    [(0, "ping", 10), (1, "ping", 11), (0, "ping", tree_holder)]
                )
            assert not any(worker.conn.poll(0.2) for worker in pool._workers)
            assert pool.dispatch(
                [(0, "ping", "x"), (1, "ping", "y")]
            ) == ["x", "y"]
        finally:
            pool.close()


class TestTrapdoorStaysHome:
    """Workers get the public parameters; the trapdoor never leaves the DO."""

    def test_index_spec_shipped_to_workers_carries_pp_only(self, monkeypatch):
        import repro.core.sp_frontend as frontend
        from repro.crypto import vc
        from repro.errors import TrapdoorRequiredError

        shipped = []

        def recording_pool(specs):
            shipped.extend(specs)
            return AffineWorkerPool(specs)

        monkeypatch.setattr(frontend, "AffineWorkerPool", recording_pool)
        system = HybridStorageSystem(
            scheme="ci", seed=13, shards=2, cvc_modulus_bits=512, pool="affine"
        )
        try:
            td = system._cvc.td
            assert len(shipped) == 2
            for spec in shipped:
                kind, params = spec.index_spec
                assert kind == "chameleon"
                assert set(params) == {"pp", "arity"}
                assert type(params["pp"]) is vc.CVCPublicParams
                wire = pickle.dumps(spec)
                for secret in (td.p, td.q, td.phi):
                    width = (secret.bit_length() + 7) // 8
                    assert secret.to_bytes(width, "little") not in wire
                    assert secret.to_bytes(width, "big") not in wire
            # What does hold the trapdoor cannot ride a pipe at all.
            with pytest.raises(TrapdoorRequiredError):
                guarded_dumps(("apply", [system._cvc], False))
        finally:
            system.close()


class TestPoolMechanics:
    def test_worker_errors_carry_remote_traceback(self):
        pool = make_pool()
        try:
            with pytest.raises(ParameterError, match="unknown shard op"):
                pool.request(0, "explode")
            try:
                pool.request(0, "explode")
            except ParameterError as exc:
                assert isinstance(exc.__cause__, RemoteTraceback)
                assert "in handle" in str(exc.__cause__)
            # The worker loop survived the failed request.
            assert pool.request(0, "ping", 7) == 7
        finally:
            pool.close()

    def test_error_in_multi_call_dispatch_does_not_desync(self):
        pool = make_pool(shards=2)
        try:
            # The failing call sits between healthy ones; the outcomes
            # after the failure come back in the same reply, so the next
            # dispatch pairs with its own replies, not stale ones.
            with pytest.raises(ParameterError, match="unknown shard op"):
                pool.dispatch(
                    [
                        (0, "ping", 1),
                        (1, "explode", None),
                        (0, "ping", 2),
                        (1, "ping", 3),
                    ]
                )
            assert pool.dispatch(
                [(0, "ping", "a"), (1, "ping", "b"), (0, "ping", "c")]
            ) == ["a", "b", "c"]
        finally:
            pool.close()

    def test_dead_worker_marks_pool_broken(self):
        pool = make_pool()
        pool._workers[0].process.kill()
        pool._workers[0].process.join()
        with pytest.raises((OSError, EOFError)):
            pool.dispatch([(0, "ping", 1)])
        # The pipe is desynchronized for good: fail fast from now on.
        with pytest.raises(ReproError, match="broken"):
            pool.dispatch([(0, "ping", 1)])
        pool.close()

    def test_close_is_idempotent_and_reaps_workers(self):
        pool = make_pool(shards=2)
        processes = [worker.process for worker in pool._workers]
        pool.close()
        pool.close()
        assert all(not process.is_alive() for process in processes)
        with pytest.raises(ReproError, match="closed"):
            pool.dispatch([(0, "ping", None)])

    def test_frontend_ships_buffered_records_in_chunks(self, monkeypatch):
        """The front-end buffers records per shard and ships a full
        chunk on its own, in either pool; a read ships the rest first."""
        import repro.core.sp_frontend as frontend

        monkeypatch.setattr(frontend, "CHUNK_RECORDS", 2)
        for pool in POOL_KINDS:
            sp = frontend.ShardedStorageProvider(
                index_spec=MERKLE_SPEC,
                scheme_value="mi",
                pool=pool,
            )
            try:
                with obs.collect() as collector:
                    for i in range(5):
                        sp.insert_entries(
                            ObjectMetadata(i, ("alpha",), bytes([i]) * 32)
                        )
                    # Two full chunks shipped; one op still buffered.
                    assert sp._pending == [[entry_op("alpha", 4, bytes([4]) * 32)]]
                    tree = sp.tree("alpha")  # reads flush first
                    assert sp._pending == [[]]
                if pool == "affine":
                    counters = collector.metrics.snapshot()
                    assert counters["sp.affine.rpcs"] == 4  # 3 applies, 1 tree
                serial = MerkleInvertedSP(fanout=4)
                for i in range(5):
                    serial.tree_for("alpha").insert(i, bytes([i]) * 32)
                assert tree.root_hash == serial.tree_for("alpha").root_hash
            finally:
                sp.close()

    def test_ingest_counter_tracks_delta_bytes_only(self):
        pool = make_pool()
        try:
            with obs.collect() as collector:
                pool.dispatch(
                    [(0, "apply", [entry_op("alpha", 1, bytes(32))])],
                    ingest=True,
                )
                after_ingest = collector.metrics.snapshot()
                assert after_ingest["sp.affine.scatter.bytes"] > 0
                assert (
                    after_ingest["sp.affine.scatter.bytes"]
                    == after_ingest["sp.affine.request.bytes"]
                )
                pool.request(0, "object_ids")  # a read
                after_read = collector.metrics.snapshot()
            assert (
                after_read["sp.affine.scatter.bytes"]
                == after_ingest["sp.affine.scatter.bytes"]
            )
            assert (
                after_read["sp.affine.request.bytes"]
                > after_ingest["sp.affine.request.bytes"]
            )
        finally:
            pool.close()


class TestPipePayloads:
    """Proofs and update spines are built next to the trees.

    The workers hold the blobs, so neither per-entry paths (queries) nor
    whole trees (SMI ingest) may ride the reply pipe; the budgets below
    sit between what the worker-side ops ship and what pulling views or
    trees through the pipe used to (577 B per scanned posting, 54 KB per
    object).
    """

    OBJECTS = 600

    @staticmethod
    def reply_bytes(collector) -> int:
        return int(collector.metrics.snapshot().get("sp.affine.reply.bytes", 0))

    def test_scan_and_spine_replies_stay_small(self):
        import random

        rng = random.Random(5)
        vocabulary = [f"w{i}" for i in range(24)]
        system = HybridStorageSystem(
            scheme="smi", seed=13, shards=2, pool="affine"
        )
        try:
            with obs.collect() as collector:
                for oid in range(self.OBJECTS):
                    kws = tuple(rng.sample(vocabulary, 5))
                    system.add_object(DataObject(oid, kws, b"x"))
            assert self.reply_bytes(collector) <= 6_000 * self.OBJECTS

            sp = system._sp
            scanned = 0
            with obs.collect() as collector:
                for keyword in vocabulary[:6]:
                    query = KeywordQuery.parse(keyword)
                    outcomes = sp._join_conjuncts(query)
                    vo = sp._finish_vo([vo for _, vo in outcomes])
                    assert vo.multiproofs
                    # A table crosses the pipe as its wire bytes and a
                    # class reference: no fold memo, token or row list.
                    for table in vo.multiproofs:
                        table.fold()
                        shipped = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
                        assert len(shipped) <= table.byte_size() + 80
                    scanned += sum(len(ids) for ids, _ in outcomes)
                rpcs = collector.metrics.snapshot()["sp.affine.rpcs"]
            assert scanned > 500
            assert rpcs == 2 * 6  # join, then prove
            assert self.reply_bytes(collector) <= 200 * scanned
        finally:
            system.close()


class TestDiskRecovery:
    """Crash/restart: workers replay their shard journals on boot."""

    def build_sp(self, tmp_path, **kwargs):
        from repro.core.sp_frontend import ShardedStorageProvider

        return ShardedStorageProvider(
            index_spec=MERKLE_SPEC,
            scheme_value="mi",
            shards=3,
            engine="disk",
            engine_dir=tmp_path,
            seed=13,
            pool="affine",
            **kwargs,
        )

    def fill(self, sp):
        from repro.core.objects import ObjectMetadata

        for i, keyword in enumerate(("alpha", "beta", "gamma", "delta")):
            for j in range(3):
                object_id = 10 * i + j
                obj = DataObject(object_id, (keyword,), b"p-%d" % object_id)
                sp.insert_entries(ObjectMetadata.of(obj))
                sp.put_object(obj)
        sp.flush_mutations()

    def test_restart_rebuilds_trees_and_locations(self, tmp_path):
        sp = self.build_sp(tmp_path)
        self.fill(sp)
        roots = {
            kw: sp.tree(kw).root_hash
            for kw in ("alpha", "beta", "gamma", "delta")
        }
        object_ids = sp.all_object_ids()
        sp.close()

        reopened = self.build_sp(tmp_path)
        try:
            for keyword, root in roots.items():
                assert reopened.tree(keyword).root_hash == root
            assert reopened.all_object_ids() == object_ids
            # The handshake rebuilt the ID -> shard map: objects are
            # fetchable without re-ingesting anything.
            for object_id in object_ids:
                assert reopened.get_object(object_id).object_id == object_id
        finally:
            reopened.close()

    def test_torn_tail_is_truncated_on_worker_boot(self, tmp_path):
        sp = self.build_sp(tmp_path)
        self.fill(sp)
        roots = {kw: sp.tree(kw).root_hash for kw in ("alpha", "beta")}
        sp.close()
        # Simulate a crash mid-append: a record cut short.
        journal = sorted(tmp_path.glob("shard-*.journal"))[0]
        intact = journal.read_bytes()
        with journal.open("ab") as log:
            log.write(journal_records.seal(b"\x02\x02al")[:-1])

        reopened = self.build_sp(tmp_path)
        try:
            for keyword, root in roots.items():
                assert reopened.tree(keyword).root_hash == root
        finally:
            reopened.close()
        assert journal.read_bytes() == intact


class TestAffineTelemetry:
    """Worker-side spans come home and connect into one trace."""

    def test_rpc_spans_are_adopted_and_parented(self):
        system = HybridStorageSystem(
            scheme="mi", seed=13, shards=4, pool="affine"
        )
        try:
            docs = [
                DataObject(
                    i,
                    (f"kw-{i % 16}", f"kw-{(i + 5) % 16}", "common"),
                    b"payload-%d" % i,
                )
                for i in range(24)
            ]
            with obs.collect() as col:
                system.add_objects_batched(docs)
                system.query("common")
        finally:
            system.close()

        rpcs = [s for s in col.spans if s.name == RPC_SPAN]
        assert sorted({s.attributes["shard"] for s in rpcs}) == [0, 1, 2, 3]
        assert {s.attributes["op"] for s in rpcs} >= {"apply"}
        span_ids = {s.span_id for s in col.spans}
        for span in rpcs:
            assert span.parent_id in span_ids
            assert "worker" in span.attributes

    def test_one_rpc_span_per_call_in_a_message(self):
        pool = make_pool()
        try:
            with obs.collect() as col:
                with obs.span("dispatching"):
                    calls = [(0, "ping", i) for i in range(3)]
                    assert pool.dispatch(calls) == [0, 1, 2]
        finally:
            pool.close()
        outer = next(s for s in col.spans if s.name == "dispatching")
        rpcs = [s for s in col.spans if s.name == RPC_SPAN]
        assert len(rpcs) == 3
        assert {s.parent_id for s in rpcs} == {outer.span_id}
        assert {s.attributes["shard"] for s in rpcs} == {0}
        assert col.metrics.snapshot()["sp.affine.rpcs"] == 3

    def test_untraced_dispatch_skips_snapshots(self):
        pool = make_pool()
        try:
            assert obs.trace.current() is None
            assert pool.request(0, "ping", 5) == 5
        finally:
            pool.close()
