"""Proof tables through the verification cache and the affine pool.

Two integration seams of the locate-then-prove VO path:

* a verified scan seeds the client's cache with what the keyword's
  table presents (one key per opening for CI/CI*, one per table for
  MI/SMI): a later query over it is cache hits;
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

from tests.sp.test_sharding import QUERIES, SCHEMES, build, make_docs


@pytest.mark.parametrize("scheme", SCHEMES)
class TestScanPrimes:
    """A verified scan leaves in the client's cache what a later query
    over the keyword presents — there is no other way to prime it."""

    def make_system(self, scheme):
        system = HybridStorageSystem(scheme=scheme, seed=13, cvc_modulus_bits=512)
        for i in range(12):
            kws = ("alpha", "beta") if i % 2 else ("alpha",)
            system.add_object(DataObject(i, kws, b"x%d" % i))
        return system

    def test_repeated_scan_misses_nothing(self, scheme):
        system = self.make_system(scheme)
        cache = system.verify_cache
        assert system.query('"alpha"').verified
        assert len(cache) > 0
        keys, hits, misses = set(cache._entries), cache.hits, cache.misses
        assert system.query('"alpha"').verified
        assert set(cache._entries) == keys
        assert cache.misses == misses
        assert cache.hits > hits

    def test_join_presents_what_scans_primed(self, scheme):
        system = self.make_system(scheme)
        cache = system.verify_cache
        for keyword in ("alpha", "beta"):
            assert system.query(f'"{keyword}"').verified
        keys, misses = set(cache._entries), cache.misses
        tables = len(
            system.process_query(KeywordQuery.parse("alpha AND beta")).vo.multiproofs
        )
        result = system.query("alpha AND beta")
        assert result.verified and result.result_ids == [1, 3, 5, 7, 9, 11]
        if system.uses_cvc:
            # A key is one opening: the scans settled every row of both
            # trees, so the join presents nothing the cache lacks.
            assert set(cache._entries) == keys
            assert cache.misses == misses
        else:
            # A key is one whole table: the join's tables are its own.
            assert len(set(cache._entries) - keys) <= tables
            assert cache.misses - misses <= tables


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
