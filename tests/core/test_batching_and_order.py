"""Tests for batched DO insertions and the join order."""

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.query.join import conjunctive_join
from repro.core.query.verify import verify_query
from repro.core.query.vo import QueryAnswer
from repro.errors import QueryError, ReproError
from tests.finishing import finish


def make_docs(n):
    return [
        DataObject(
            oid,
            tuple(
                kw
                for kw, mod in (("alpha", 2), ("beta", 3), ("gamma", 5))
                if oid % mod != 0
            )
            or ("alpha",),
            b"c%d" % oid,
        )
        for oid in range(1, n + 1)
    ]


class TestBatchedInsertion:
    def test_batched_matches_sequential_results(self):
        docs = make_docs(12)
        batched = HybridStorageSystem(scheme="ci", cvc_modulus_bits=512, seed=6)
        batched.add_objects_batched(docs)
        sequential = HybridStorageSystem(
            scheme="ci", cvc_modulus_bits=512, seed=6
        )
        sequential.add_objects(docs)
        for text in ("alpha AND beta", "gamma", "alpha AND gamma"):
            assert (
                batched.query(text).result_ids
                == sequential.query(text).result_ids
            )

    def test_batching_amortises_tx_base(self):
        docs = make_docs(12)
        batched = HybridStorageSystem(scheme="ci", cvc_modulus_bits=512, seed=6)
        batched.add_objects_batched(docs)
        sequential = HybridStorageSystem(
            scheme="ci", cvc_modulus_bits=512, seed=6
        )
        sequential.add_objects(docs)
        assert (
            batched.maintenance_meter().total
            < sequential.maintenance_meter().total
        )
        # The saving is one C_tx per object beyond the first.
        saving = (
            sequential.maintenance_meter().total
            - batched.maintenance_meter().total
        )
        assert saving == 21_000 * (len(docs) - 1)

    def test_batched_star_scheme(self):
        docs = make_docs(8)
        system = HybridStorageSystem(
            scheme="ci*", cvc_modulus_bits=512, seed=6, bloom_capacity=4
        )
        system.add_objects_batched(docs)
        system.query("alpha AND beta")

    def test_merkle_family_falls_back(self):
        """SMI still sends each object's own transactions, but the batch
        is mined as one block."""
        docs = make_docs(5)
        system = HybridStorageSystem(scheme="smi", seed=6)
        report = system.add_objects_batched(docs)
        assert len(report.receipts) == 10  # register + insert per object
        assert system.chain.height == 1
        system.query("alpha")

    def test_empty_batch_rejected(self):
        system = HybridStorageSystem(scheme="ci", cvc_modulus_bits=512, seed=6)
        with pytest.raises(ReproError):
            system.add_objects_batched([])


class TestJoinOrder:
    def test_given_order_still_correct(self):
        """The SP's join under either order verifies: the client replays
        the trees in the order the VO lists them."""
        docs = make_docs(30)
        system = HybridStorageSystem(scheme="smi", seed=6)
        system.add_objects(docs)
        query = KeywordQuery.parse("alpha AND beta AND gamma")
        expected = sorted(
            d.object_id for d in docs if {"alpha", "beta", "gamma"} <= d.keyword_set()
        )
        for order in ("size", "given"):
            views = [system._sp_view(kw) for kw in ("gamma", "alpha", "beta")]
            ids, conjunct = conjunctive_join(views, order=order)
            assert sorted(ids) == expected
            vo = finish(conjunct)
            answer = QueryAnswer(
                result_ids=expected,
                objects={oid: system.get_object(oid) for oid in expected},
                vo=vo,
            )
            ps = system.chain_proof_system(query.all_keywords())
            assert verify_query(query, answer, ps).ids == set(expected)
            trees = vo.conjuncts[0].base.trees
            assert (trees == ("gamma", "alpha", "beta")) == (order == "given")

    def test_unknown_order_rejected(self):
        system = HybridStorageSystem(scheme="smi", seed=6)
        system.add_objects(make_docs(4))
        views = [system._sp_view("alpha"), system._sp_view("beta")]
        with pytest.raises(QueryError):
            conjunctive_join(views, order="bogus")
