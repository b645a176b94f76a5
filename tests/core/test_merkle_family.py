"""Unit tests for the shared Merkle-family SP machinery."""

import pytest

from repro.core.merkle_family import MBTreeView, MerkleInvertedSP, MerkleProofSystem
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.query.vo import ProvenEntry
from repro.crypto.hashing import EMPTY_DIGEST, sha3
from repro.errors import VerificationError

from tests.finishing import all_proven, boundaries_proven, first_proven


@pytest.fixture()
def sp():
    index = MerkleInvertedSP()
    for oid, kws in ((1, ("a", "b")), (2, ("a",)), (3, ("a", "b")), (5, ("b",))):
        index.insert(ObjectMetadata.of(DataObject(oid, kws, b"c%d" % oid)))
    return index


class TestMerkleInvertedSP:
    def test_trees_created_lazily(self, sp):
        assert set(sp.trees) == {"a", "b"}
        assert len(sp.view("new-keyword")) == 0

    def test_root_hash_for_unknown_keyword(self, sp):
        assert sp.root_hash("ghost") == EMPTY_DIGEST

    def test_view_len(self, sp):
        assert len(sp.view("a")) == 3
        assert len(sp.view("b")) == 3


class TestMBTreeView:
    def test_first_proven(self, sp):
        first = first_proven(sp.view("a"))
        assert first.object_id == 1
        assert first.proof.is_leftmost()

    def test_first_proven_empty(self, sp):
        assert first_proven(sp.view("ghost")) is None

    def test_boundaries_proven(self, sp):
        view = sp.view("b")
        assert view.boundaries(4) == (3, 5)
        assert view.boundaries(0) == (None, 1)
        assert view.boundaries(9) == (5, None)
        assert view.keys == [1, 3, 5]  # what run() hands to the prove step
        lower, upper = boundaries_proven(sp.view("b"), 4)
        assert lower.object_id == 3
        assert upper.object_id == 5

    def test_all_proven_ordered(self, sp):
        assert sp.view("a").scan() == [1, 2, 3]
        entries = all_proven(sp.view("a"))
        assert [e.object_id for e in entries] == [1, 2, 3]

    def test_never_claims_bloom_absence(self, sp):
        assert sp.view("a").definitely_absent(42) is False


class TestMerkleProofSystem:
    def make_ps(self, sp, keywords=("a", "b")):
        return MerkleProofSystem(
            roots={kw: sp.root_hash(kw) for kw in keywords}
        )

    def test_verify_entry_roundtrip(self, sp):
        ps = self.make_ps(sp)
        entry = first_proven(sp.view("a"))
        ps.verify_entry("a", entry)

    def test_verify_entry_wrong_keyword(self, sp):
        ps = self.make_ps(sp)
        entry = first_proven(sp.view("a"))
        with pytest.raises(VerificationError):
            ps.verify_entry("b", entry)

    def test_verify_entry_bad_proof_type(self, sp):
        ps = self.make_ps(sp)
        entry = ProvenEntry(object_id=1, object_hash=sha3(b"x"), proof=None)
        with pytest.raises(VerificationError):
            ps.verify_entry("a", entry)

    def test_first_last_adjacent(self, sp):
        ps = self.make_ps(sp)
        entries = all_proven(sp.view("a"))
        assert ps.is_first("a", entries[0])
        assert ps.is_last("a", entries[-1])
        assert ps.adjacent("a", entries[0], entries[1])
        assert not ps.adjacent("a", entries[0], entries[2])

    def test_keyword_empty(self, sp):
        ps = MerkleProofSystem(roots={"ghost": EMPTY_DIGEST})
        assert ps.keyword_empty("ghost")
        assert ps.keyword_empty("never-mentioned")
        ps2 = self.make_ps(sp)
        assert not ps2.keyword_empty("a")

    def test_chain_digest_bytes(self, sp):
        ps = self.make_ps(sp)
        assert ps.chain_digest_bytes() == 64  # two 32-byte roots

    def test_definitely_absent_never(self, sp):
        ps = self.make_ps(sp)
        assert ps.definitely_absent("a", 999) is False
