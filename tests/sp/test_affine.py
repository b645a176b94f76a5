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
from repro.core.objects import DataObject
from repro.core.query.parser import KeywordQuery
from repro.core.query.vo import QueryVO
from repro.core.system import HybridStorageSystem
from repro.errors import ParameterError, ReproError
from repro.parallel import RemoteTraceback
from repro.sp.affine import (
    RPC_SPAN,
    AffineEngineProxy,
    AffineWorkerPool,
    EngineSpec,
    guarded_dumps,
)
from repro.sp.engine import MemoryShardEngine

from tests.sp.test_sharding import QUERIES, SCHEMES, build, make_docs

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
                assert base._codec.encode(
                    QueryVO(conjuncts=(vo_base,))
                ) == affine._codec.encode(QueryVO(conjuncts=(vo_affine,)))

            result_base = base.query(text)
            result_affine = affine.query(text)
            assert result_base.verified and result_affine.verified
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
            assert result_serial.verified and result_affine.verified
            assert result_serial.result_ids == result_affine.result_ids
            assert result_serial.vo_sp_bytes == result_affine.vo_sp_bytes
        serial.close()
        affine.close()


#: (shards, pool, engine) layouts the one bulk path must agree across.
BULK_LAYOUTS = {
    "1-in-process": (1, "stateless", "memory"),
    "3-in-process": (3, "stateless", "memory"),
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
def test_mirror_bulk_matches_the_per_object_path(layout, tmp_path):
    """After ``mirror_bulk`` every keyword's root and entry list equal
    those of the per-object ``insert_entries`` path — in this process
    and in the workers, which run the same ``apply_bulk`` — and a
    restarted disk engine replays its journal to the same roots.

    Both providers live across the examples, so later batches extend
    trees earlier ones built.
    """
    from repro.core.objects import ObjectMetadata
    from repro.core.sp_frontend import ShardedStorageProvider

    shards, pool, engine = BULK_LAYOUTS[layout]

    def provider(**kwargs):
        return ShardedStorageProvider(
            index_spec=MERKLE_SPEC,
            scheme_value="mi",
            join_order="size",
            join_plan="cyclic",
            seed=13,
            **kwargs,
        )

    def state(sp):
        trees = {keyword: sp.tree(keyword) for keyword in sorted(seen)}
        return {
            keyword: (
                tree.root_hash,
                [(e.key, e.value_hash) for e in tree.iter_entries()],
            )
            for keyword, tree in trees.items()
        }

    layout_kwargs = dict(
        shards=shards,
        pool=pool,
        engine=engine,
        engine_dir=tmp_path if engine == "disk" else None,
    )
    reference = provider()
    bulk = provider(**layout_kwargs)
    seen: set[str] = set()
    ids = itertools.count(1)

    @settings(max_examples=12, deadline=None)
    @given(posting_batches)
    def check(batch):
        metadatas = [
            ObjectMetadata.of(
                DataObject(object_id, tuple(sorted(keywords)), b"o%d" % object_id)
            )
            for object_id, keywords in zip(ids, batch)
        ]
        for metadata in metadatas:
            reference.insert_entries(metadata)
            seen.update(metadata.keywords)
        bulk.mirror_bulk(metadatas)
        assert state(bulk) == state(reference)

    try:
        check()
        assert seen
        if engine == "disk":
            bulk.close()
            bulk = provider(**layout_kwargs)
            assert state(bulk) == state(reference)
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
        engine = MemoryShardEngine(0, lambda: MerkleInvertedSP(fanout=4))
        engine.insert_entry("alpha", 1, bytes(32))
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
        payload = ("apply", [{"op": "entry", "kw": "a", "id": 1}], False)
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

    def test_guard_failure_mid_dispatch_drains_sent_replies(self):
        pool = make_pool(shards=2)
        try:
            tree_holder = MerkleInvertedSP(fanout=4)
            # Two requests go out before the third call's payload is
            # rejected; their replies must be consumed, or the next
            # dispatch would read them as its own.
            with pytest.raises(ParameterError, match="resident shard state"):
                pool.dispatch(
                    [(0, "ping", 10), (1, "ping", 11), (0, "ping", tree_holder)]
                )
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
            with pytest.raises(ParameterError, match="unknown affine op"):
                pool.request(0, "explode")
            try:
                pool.request(0, "explode")
            except ParameterError as exc:
                assert isinstance(exc.__cause__, RemoteTraceback)
                assert "_handle" in str(exc.__cause__)
            # The worker loop survived the failed request.
            assert pool.request(0, "ping", 7) == 7
        finally:
            pool.close()

    def test_error_in_multi_call_dispatch_does_not_desync(self):
        pool = make_pool(shards=2)
        try:
            # The failing call sits between healthy ones; every reply —
            # including those after the failure — must be drained so the
            # next dispatch pairs with its own replies, not stale ones.
            with pytest.raises(ParameterError, match="unknown affine op"):
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

    def test_proxy_chunks_mutations(self):
        pool = make_pool()
        try:
            proxy = AffineEngineProxy(pool, 0, chunk_records=2)
            for i in range(5):
                proxy.insert_entry("alpha", i, bytes([i]) * 32)
            # Two full chunks auto-flushed; one record still buffered.
            assert len(proxy._pending) == 1
            tree = proxy.tree("alpha")  # reads flush first
            assert proxy._pending == []
            serial = MerkleInvertedSP(fanout=4)
            for i in range(5):
                serial.tree_for("alpha").insert(i, bytes([i]) * 32)
            assert tree.root_hash == serial.tree_for("alpha").root_hash
        finally:
            pool.close()

    def test_ingest_counter_tracks_delta_bytes_only(self):
        pool = make_pool()
        try:
            proxy = AffineEngineProxy(pool, 0)
            proxy.insert_entry("alpha", 1, bytes(32))
            proxy.flush()
            after_ingest = pool.ingest_bytes
            assert after_ingest > 0
            pool.request(0, "object_ids")  # a read
            assert pool.ingest_bytes == after_ingest
            pool.reset_counters()
            assert (pool.request_bytes, pool.ingest_bytes) == (0, 0)
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
                    outcomes = sp._affine_conjuncts(query)
                    vo = sp._finish_vo([vo for _, vo in outcomes])
                    assert vo.multiproofs
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
            join_order="size",
            join_plan="sorted",
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
        # Simulate a crash mid-append: a torn, newline-less tail.
        journal = sorted(tmp_path.glob("shard-*.jsonl"))[0]
        with journal.open("ab") as log:
            log.write(b'{"op": "entry", "kw": "al')

        reopened = self.build_sp(tmp_path)
        try:
            for keyword, root in roots.items():
                assert reopened.tree(keyword).root_hash == root
        finally:
            reopened.close()
        assert not journal.read_bytes().endswith(b'"al')


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
                result = system.query("common")
            assert result.verified
        finally:
            system.close()

        rpcs = [s for s in col.spans if s.name == RPC_SPAN]
        assert sorted({s.attributes["shard"] for s in rpcs}) == [0, 1, 2, 3]
        assert {s.attributes["op"] for s in rpcs} >= {"bulk"}
        span_ids = {s.span_id for s in col.spans}
        for span in rpcs:
            assert span.parent_id in span_ids
            assert "worker" in span.attributes

    def test_critpath_report_includes_affine_rpcs(self):
        system = HybridStorageSystem(
            scheme="mi", seed=13, shards=4, pool="affine"
        )
        try:
            docs = [
                DataObject(i, (f"kw-{i % 16}", "common"), b"p-%d" % i)
                for i in range(16)
            ]
            with obs.collect() as col:
                system.add_objects_batched(docs)
        finally:
            system.close()

        report = obs.analyze(col.spans)
        phases = {p.name: p for p in report.phases}
        assert RPC_SPAN in phases
        assert report.wall_s > 0
        assert RPC_SPAN in report.render()

    def test_untraced_dispatch_skips_snapshots(self):
        pool = make_pool()
        try:
            assert obs.trace.current() is None
            assert pool.request(0, "ping", 5) == 5
        finally:
            pool.close()
