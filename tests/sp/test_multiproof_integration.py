"""Proof tables through the warmer and the affine pool.

Two integration seams of the locate-then-prove VO path:

* the :class:`~repro.sp.warmer.CacheWarmer` pre-verifies a keyword's
  full-scan table and so seeds the multiproof cache key: a later scan's
  fold is a cache hit;
* shard-affine scatter-gather (including the Chameleon batched-ingest
  path, whose insertion proofs the data owner opens with the trapdoor
  before any shard sees them) stays byte-identical at any shard count —
  Merkle multiproofs and Chameleon node tables alike, both built by the
  ``prove`` op inside the worker that holds the tree.
"""

import pytest

from repro.core.chameleon import ChameleonMultiproof
from repro.core.objects import DataObject
from repro.core.query.parser import KeywordQuery
from repro.core.system import HybridStorageSystem

from tests.sp.test_sharding import QUERIES, build, make_docs


class TestWarmerMultiproof:
    def make_system(self):
        system = HybridStorageSystem(
            scheme="smi", seed=13, witness_warmer=True, warm_hot_threshold=0
        )
        for i in range(12):
            kws = ("alpha", "beta") if i % 2 else ("alpha",)
            system.add_object(DataObject(i, kws, b"x%d" % i))
        return system

    def test_warm_preverifies_the_query_multiproof(self):
        system = self.make_system()
        assert system.warm_pending() > 0
        hits_before = system.verify_cache.hits
        answer = system.process_query(KeywordQuery.parse('"alpha"'))
        # The full scan is one multiproof covering the tree — the very
        # table the warmer just folded and cached.
        assert len(answer.vo.multiproofs) == 1
        misses = system.verify_cache.misses
        assert system.query('"alpha"').verified
        assert system.verify_cache.hits == hits_before + 1
        assert system.verify_cache.misses == misses

    def test_unwarmed_query_folds_then_caches(self):
        system = self.make_system()
        first = system.query('"alpha"')
        assert first.verified
        hits_after_first = system.verify_cache.hits
        second = system.query('"alpha"')
        assert second.verified
        assert system.verify_cache.hits > hits_after_first


class TestAffineMultiproofParity:
    """1 vs 8 affine shards must be byte-identical."""

    def test_mi_v3_frames_identical_across_shards(self):
        base, _ = build("mi", shards=1)
        affine, _ = build("mi", shards=8, pool="affine")
        try:
            saw_multiproof = False
            for text in QUERIES:
                query = KeywordQuery.parse(text)
                answer_base = base.process_query(query)
                answer_affine = affine.process_query(query)
                assert answer_base.result_ids == answer_affine.result_ids
                saw_multiproof |= bool(answer_base.vo.multiproofs)
                assert base._codec.encode(answer_base.vo) == affine._codec.encode(
                    answer_affine.vo
                )
                assert base.query(text).verified
                assert affine.query(text).verified
            assert saw_multiproof, "no query shipped a multiproof"
        finally:
            base.close()
            affine.close()

    def test_ci_scheduler_batched_ingest_identical_across_shards(self):
        self.check_node_table_parity("ci")

    def test_cistar_node_tables_identical_across_shards(self):
        self.check_node_table_parity("ci*")

    def check_node_table_parity(self, scheme):
        serial = HybridStorageSystem(
            scheme=scheme, seed=13, shards=1, cvc_modulus_bits=512
        )
        affine = HybridStorageSystem(
            scheme=scheme, seed=13, shards=8, cvc_modulus_bits=512, pool="affine"
        )
        try:
            docs = make_docs(10)
            # Batched ingest: one DO transaction, finished insertion proofs
            # scattered to the owning shards.
            serial.add_objects_batched(docs)
            affine.add_objects_batched(docs)
            saw_node_table = False
            for text in QUERIES:
                query = KeywordQuery.parse(text)
                answer_serial = serial.process_query(query)
                answer_affine = affine.process_query(query)
                assert answer_serial.result_ids == answer_affine.result_ids
                # Worker-side joins return located runs; the tables the
                # workers then cut for them are the single-shard bytes.
                frame = serial._codec.encode(answer_serial.vo)
                assert frame == affine._codec.encode(answer_affine.vo)
                saw_node_table |= any(
                    isinstance(table, ChameleonMultiproof)
                    for table in answer_affine.vo.multiproofs
                )
                assert serial.query(text).verified
                assert affine.query(text).verified
            assert saw_node_table, "no query shipped a node table"
        finally:
            serial.close()
            affine.close()


class TestTwinRoots:
    """Two keywords on exactly the same objects have equal roots.

    Their entries share one multiproof table (grouping is by the root
    recorded at locate time), wherever the twins' trees live.
    """

    TEXTS = ("twin-a AND twin-b", "twin-a OR twin-b", "(twin-a AND hot) OR twin-b")

    @staticmethod
    def build(**kwargs):
        system = HybridStorageSystem(scheme="smi", seed=13, **kwargs)
        for i in range(40):
            kws = ("hot", "twin-a", "twin-b") if i % 3 == 0 else ("hot",)
            system.add_object(DataObject(i, kws, b"x%d" % i))
        return system

    def frames(self, system):
        out = []
        for text in self.TEXTS:
            answer = system.process_query(KeywordQuery.parse(text))
            out.append(system._codec.encode(answer.vo))
            assert system.query(text).verified
        return out

    def test_twins_share_one_table_at_any_shard_count_and_pool(self):
        base = self.build()
        try:
            assert base._sp.tree("twin-a").root_hash == base._sp.tree(
                "twin-b"
            ).root_hash
            for text, tables in zip(self.TEXTS, (1, 1, 2)):
                answer = base.process_query(KeywordQuery.parse(text))
                assert len(answer.vo.multiproofs) == tables
            reference = self.frames(base)
        finally:
            base.close()
        for shards in (1, 2, 8):
            for pool in ("stateless", "affine"):
                system = self.build(shards=shards, pool=pool)
                try:
                    assert self.frames(system) == reference, (shards, pool)
                finally:
                    system.close()
