"""Tests for batched DO insertions and the join-order knob."""

import pytest

from repro import DataObject, HybridStorageSystem
from repro.core.query.join import conjunctive_join
from repro.errors import QueryError, ReproError


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
        docs = make_docs(30)
        for order in ("size", "given"):
            system = HybridStorageSystem(scheme="smi", seed=6, join_order=order)
            system.add_objects(docs)
            result = system.query("alpha AND beta AND gamma")
            expected = sorted(
                d.object_id
                for d in docs
                if {"alpha", "beta", "gamma"} <= d.keyword_set()
            )
            assert result.result_ids == expected

    def test_unknown_order_rejected(self):
        system = HybridStorageSystem(scheme="smi", seed=6)
        system.add_objects(make_docs(4))
        views = [system._sp_view("alpha"), system._sp_view("beta")]
        with pytest.raises(QueryError):
            conjunctive_join(views, order="bogus")
