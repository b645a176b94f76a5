"""Unit tests for the Chameleon index SP/DO/proof-system glue."""

import pytest

from repro.core.chameleon_index import (
    ChameleonDataOwner,
    ChameleonProofSystem,
    ChameleonSP,
    CountUpdate,
)
from repro.core.multiproof import TreeMultiproof
from repro.core.objects import DataObject, ObjectMetadata
from repro.crypto.bloom import BloomFilterChain
from repro.errors import ReproError, VerificationError


@pytest.fixture()
def owner(cvc, prf_key):
    return ChameleonDataOwner(cvc, prf_key, arity=2)


@pytest.fixture()
def sp(cvc):
    return ChameleonSP(pp=cvc.pp, arity=2)


def insert(owner, sp, oid, keywords):
    metadata = ObjectMetadata.of(DataObject(oid, keywords, b"c%d" % oid))
    proofs, counts, new_keywords = owner.insert(metadata)
    for kw, commitment in new_keywords.items():
        sp.register_keyword(kw, commitment)
    for kw, proof in proofs.items():
        sp.apply_insertion(kw, proof)
    return counts


class TestChameleonDataOwner:
    def test_requires_trapdoor(self, cvc, prf_key):
        with pytest.raises(ReproError):
            ChameleonDataOwner(cvc.public_view(), prf_key, arity=2)

    def test_insert_reports_new_keywords_once(self, owner, sp):
        insert(owner, sp, 1, ("x", "y"))
        metadata = ObjectMetadata.of(DataObject(2, ("x", "z"), b"c2"))
        _, counts, new_keywords = owner.insert(metadata)
        assert set(new_keywords) == {"z"}
        assert {c.keyword: c.count for c in counts} == {"x": 2, "z": 1}

    def test_counts_are_per_keyword(self, owner, sp):
        counts = insert(owner, sp, 1, ("x", "y"))
        assert all(c.count == 1 for c in counts)
        counts = insert(owner, sp, 2, ("x",))
        assert counts == [CountUpdate(keyword="x", count=2)]


class TestChameleonSPUnits:
    def test_unknown_keyword_view_is_empty(self, sp):
        view = sp.view("nothing")
        assert len(view) == 0
        assert view.run().keys == ()

    def test_apply_requires_registration(self, owner, sp):
        metadata = ObjectMetadata.of(DataObject(1, ("kw",), b"c"))
        proofs, _, _ = owner.insert(metadata)
        with pytest.raises(ReproError):
            sp.apply_insertion("kw", proofs["kw"])

    def test_view_boundaries(self, owner, sp):
        for oid in (2, 5, 9):
            insert(owner, sp, oid, ("kw",))
        view = sp.view("kw")
        assert view.boundaries(6) == (5, 9)
        assert view.positions == [2, 3]

    def test_view_all_proven(self, owner, sp):
        for oid in (1, 2, 3):
            insert(owner, sp, oid, ("kw",))
        view = sp.view("kw")
        assert view.scan() == [1, 2, 3]
        assert view.run().keys == (1, 2, 3)


class TestChameleonProofSystemUnits:
    def make_ps(self, owner, sp, keywords, blooms=None):
        digests = {}
        for kw in keywords:
            tree = owner.trees.get(kw)
            if tree is None:
                digests[kw] = (None, 0)
            else:
                digests[kw] = (tree.root_commitment, tree.count)
        return ChameleonProofSystem(
            pp=owner.cvc.pp, digests=digests, arity=2, blooms=blooms,
            value_bytes=64,
        )

    def table(self, sp, keyword, positions):
        return sp.trees[keyword].multiproof(tuple(positions))

    def test_entry_verification(self, owner, sp):
        for oid in (1, 2, 3):
            insert(owner, sp, oid, ("kw",))
        ps = self.make_ps(owner, sp, ("kw",))
        ps.attach_multiproofs((self.table(sp, "kw", (1, 2)),))
        with ps.settling():
            run = ps.proven_run("kw", 0)
            assert run.first() == 1  # position 1: the tree's first
            assert run.boundaries(1) == (1, 2)
            with pytest.raises(VerificationError):
                run.boundaries(2)  # 2 is not the last of three
            with pytest.raises(VerificationError):
                run.scan()

    def test_missing_commitment_rejected(self, owner, sp):
        insert(owner, sp, 1, ("kw",))
        ps = self.make_ps(owner, sp, ("ghost",))
        ps.attach_multiproofs((self.table(sp, "kw", (1,)),))
        with pytest.raises(VerificationError):
            with ps.settling():
                ps.proven_run("ghost", 0)

    def test_bad_proof_type_rejected(self, owner, sp):
        insert(owner, sp, 1, ("kw",))
        ps = self.make_ps(owner, sp, ("kw",))
        merkle = TreeMultiproof(height=1, nodes=((2,),), helpers=(), leaves=())
        ps.attach_multiproofs((merkle, self.table(sp, "kw", (1,))))
        with pytest.raises(VerificationError, match="another kind"):
            with ps.settling():
                ps.proven_run("kw", 0)
        with pytest.raises(VerificationError, match="out of range"):
            with ps.settling():
                ps.proven_run("kw", 2)

    def test_adjacency_by_position(self, owner, sp):
        for oid in (1, 4, 9):
            insert(owner, sp, oid, ("kw",))
        ps = self.make_ps(owner, sp, ("kw",))
        ps.attach_multiproofs((self.table(sp, "kw", (1, 3)),))
        with pytest.raises(VerificationError, match="no probe reads"):
            with ps.settling():
                run = ps.proven_run("kw", 0)
                # Positions 1 and 3 are not neighbours: 4 may hide between.
                with pytest.raises(VerificationError, match="lacks the boundary"):
                    run.boundaries(2)
                assert run.boundaries(9) == (9, None)  # position 3 = cnt

    def test_keyword_empty(self, owner, sp):
        ps = self.make_ps(owner, sp, ("ghost",))
        assert ps.keyword_empty("ghost")

    def test_bloom_absence_delegation(self, owner, sp):
        insert(owner, sp, 5, ("kw",))
        chain = BloomFilterChain(capacity=4)
        chain.add(5)
        ps = self.make_ps(owner, sp, ("kw",), blooms={"kw": chain})
        with ps.settling():
            run = ps.proven_run("kw", None)  # even an unread tree's view
            assert not run.definitely_absent(5)
            assert run.definitely_absent(1)  # below the first filter min
        ps_none = self.make_ps(owner, sp, ("kw",))
        with ps_none.settling():
            assert not ps_none.proven_run("kw", None).definitely_absent(1)
        # The SP's view answers from the same chain of filters.
        view = sp.view("kw")
        view.bloom = chain
        assert view.definitely_absent(1) and not view.definitely_absent(5)

    def test_chain_digest_bytes_counts_blooms(self, owner, sp):
        insert(owner, sp, 5, ("kw",))
        chain = BloomFilterChain(capacity=4)
        chain.add(5)
        bare = self.make_ps(owner, sp, ("kw",))
        with_bloom = self.make_ps(owner, sp, ("kw",), blooms={"kw": chain})
        assert with_bloom.chain_digest_bytes() > bare.chain_digest_bytes()
