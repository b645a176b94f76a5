"""Unit tests for the shared Merkle-family SP machinery."""

import pytest

from repro.core.chameleon import ChameleonMultiproof
from repro.core.merkle_family import MerkleInvertedSP, MerkleProofSystem
from repro.core.objects import DataObject, ObjectMetadata
from repro.crypto.hashing import EMPTY_DIGEST
from repro.errors import VerificationError


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


def table(sp, keyword, keys):
    return sp.trees[keyword].multiproof(list(keys))


class TestMBTreeView:
    def test_first_proven(self, sp):
        view = sp.view("a")
        assert view.first() == 1
        assert view.run().keys == (1,)

    def test_first_proven_empty(self, sp):
        view = sp.view("ghost")
        assert len(view) == 0 and view.run().keys == ()

    def test_boundaries_proven(self, sp):
        view = sp.view("b")
        assert view.boundaries(4) == (3, 5)
        assert view.boundaries(0) == (None, 1)
        assert view.boundaries(9) == (5, None)
        assert view.keys == [1, 3, 5]  # what run() hands to the prove step
        run = view.run()
        assert run.root == sp.root_hash("b") and run.tree is sp.trees["b"]

    def test_all_proven_ordered(self, sp):
        view = sp.view("a")
        assert view.scan() == [1, 2, 3]
        assert view.run().keys == (1, 2, 3)

    def test_never_claims_bloom_absence(self, sp):
        assert sp.view("a").definitely_absent(42) is False


class TestMerkleProofSystem:
    def make_ps(self, sp, keywords=("a", "b"), tables=()):
        ps = MerkleProofSystem(roots={kw: sp.root_hash(kw) for kw in keywords})
        ps.attach_multiproofs(tuple(tables))
        return ps

    def test_verify_entry_roundtrip(self, sp):
        ps = self.make_ps(sp, tables=[table(sp, "a", (1, 2, 3))])
        with ps.settling():
            assert ps.proven_run("a", 0).scan() == [1, 2, 3]

    def test_verify_entry_wrong_keyword(self, sp):
        ps = self.make_ps(sp, tables=[table(sp, "a", (1, 2, 3))])
        with pytest.raises(VerificationError, match="on-chain root"):
            ps.proven_run("b", 0)
        # ... and, once folded to one keyword's root, not under another.
        ps.proven_run("a", 0)
        with pytest.raises(VerificationError, match="different tree"):
            ps.proven_run("b", 0)

    def test_verify_entry_bad_proof_type(self, sp):
        node_table = ChameleonMultiproof(2, 8, 0, b"")
        ps = self.make_ps(sp, tables=[node_table])
        with pytest.raises(VerificationError, match="another kind"):
            ps.proven_run("a", 0)
        with pytest.raises(VerificationError, match="out of range"):
            ps.proven_run("a", 1)

    def test_first_last_adjacent(self, sp):
        ps = self.make_ps(sp, tables=[table(sp, "a", (1, 3))])
        run = ps.proven_run("a", 0)
        assert run.first() == 1
        assert run.boundaries(3) == (3, None)  # 3 is the tree's last
        with pytest.raises(VerificationError, match="lacks the boundary"):
            run.boundaries(1)  # 1 and 3 are not neighbours: 2 is hidden
        with pytest.raises(VerificationError, match="full scan"):
            run.scan()

    def test_keyword_empty(self, sp):
        ps = MerkleProofSystem(roots={"ghost": EMPTY_DIGEST})
        assert ps.keyword_empty("ghost")
        assert ps.keyword_empty("never-mentioned")
        ps2 = self.make_ps(sp)
        assert not ps2.keyword_empty("a")
        # A tree listed unread must at least exist.
        with pytest.raises(VerificationError, match="shows empty"):
            ps.proven_run("ghost", None)
        with pytest.raises(VerificationError):
            ps2.proven_run("a", None).first()

    def test_chain_digest_bytes(self, sp):
        ps = self.make_ps(sp)
        assert ps.chain_digest_bytes() == 64  # two 32-byte roots

    def test_definitely_absent_never(self, sp):
        ps = self.make_ps(sp, tables=[table(sp, "a", (1, 2, 3))])
        assert ps.proven_run("a", 0).definitely_absent(999) is False
        assert ps.proven_run("b", None).definitely_absent(999) is False
