"""Unit tests for the Chameleon index SP/DO/proof-system glue."""

import pytest

from repro.core.chameleon_index import (
    ChameleonDataOwner,
    ChameleonProofSystem,
    ChameleonSP,
    CountUpdate,
)
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.query.vo import ProvenEntry
from repro.crypto.bloom import BloomFilterChain
from repro.crypto.hashing import sha3
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
        assert view.first_proven() is None

    def test_apply_requires_registration(self, owner, sp):
        metadata = ObjectMetadata.of(DataObject(1, ("kw",), b"c"))
        proofs, _, _ = owner.insert(metadata)
        with pytest.raises(ReproError):
            sp.apply_insertion("kw", proofs["kw"])

    def test_view_boundaries(self, owner, sp):
        for oid in (2, 5, 9):
            insert(owner, sp, oid, ("kw",))
        lower, upper = sp.view("kw").boundaries_proven(6)
        assert lower.object_id == 5
        assert upper.object_id == 9

    def test_view_all_proven(self, owner, sp):
        for oid in (1, 2, 3):
            insert(owner, sp, oid, ("kw",))
        assert [e.object_id for e in sp.view("kw").all_proven()] == [1, 2, 3]


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

    def test_entry_verification(self, owner, sp):
        for oid in (1, 2, 3):
            insert(owner, sp, oid, ("kw",))
        ps = self.make_ps(owner, sp, ("kw",))
        entry = sp.view("kw").first_proven()
        with ps.settling():
            ps.verify_entry("kw", entry)
        assert ps.is_first("kw", entry)
        assert not ps.is_last("kw", entry)

    def test_missing_commitment_rejected(self, owner, sp):
        insert(owner, sp, 1, ("kw",))
        ps = self.make_ps(owner, sp, ("ghost",))
        entry = sp.view("kw").first_proven()
        with pytest.raises(VerificationError):
            ps.verify_entry("ghost", entry)

    def test_bad_proof_type_rejected(self, owner, sp):
        insert(owner, sp, 1, ("kw",))
        ps = self.make_ps(owner, sp, ("kw",))
        entry = ProvenEntry(object_id=1, object_hash=sha3(b"x"), proof="junk")
        with pytest.raises(VerificationError):
            ps.verify_entry("kw", entry)

    def test_adjacency_by_position(self, owner, sp):
        for oid in (1, 4, 9):
            insert(owner, sp, oid, ("kw",))
        ps = self.make_ps(owner, sp, ("kw",))
        entries = sp.view("kw").all_proven()
        assert ps.adjacent("kw", entries[0], entries[1])
        assert not ps.adjacent("kw", entries[0], entries[2])

    def test_keyword_empty(self, owner, sp):
        ps = self.make_ps(owner, sp, ("ghost",))
        assert ps.keyword_empty("ghost")

    def test_bloom_absence_delegation(self, owner, sp):
        insert(owner, sp, 5, ("kw",))
        chain = BloomFilterChain(capacity=4)
        chain.add(5)
        ps = self.make_ps(owner, sp, ("kw",), blooms={"kw": chain})
        assert not ps.definitely_absent("kw", 5)
        assert ps.definitely_absent("kw", 1)  # below the first filter min
        ps_none = self.make_ps(owner, sp, ("kw",))
        assert not ps_none.definitely_absent("kw", 1)

    def test_chain_digest_bytes_counts_blooms(self, owner, sp):
        insert(owner, sp, 5, ("kw",))
        chain = BloomFilterChain(capacity=4)
        chain.add(5)
        bare = self.make_ps(owner, sp, ("kw",))
        with_bloom = self.make_ps(owner, sp, ("kw",), blooms={"kw": chain})
        assert with_bloom.chain_digest_bytes() > bare.chain_digest_bytes()
