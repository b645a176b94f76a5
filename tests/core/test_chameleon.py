"""Unit tests for the Chameleon tree (DO and SP sides)."""

import pytest

from repro.core import chameleon
from repro.crypto.hashing import sha3
from repro.errors import ReproError, VerificationError


def value_of(key: int) -> bytes:
    return sha3(b"obj-%d" % key)


@pytest.fixture()
def trees(cvc, prf_key):
    do = chameleon.ChameleonTreeDO(cvc, prf_key, "kw", arity=2)
    sp = chameleon.ChameleonTreeSP(do.root_commitment, arity=2)
    return do, sp


def fill(do, sp, ids):
    for object_id in ids:
        sp.apply_insertion(do.insert(object_id, value_of(object_id)))


class TestPositions:
    @pytest.mark.parametrize(
        "pos,arity,expected",
        [(1, 2, (0, 1)), (2, 2, (0, 2)), (3, 2, (1, 1)), (6, 2, (2, 2)),
         (1, 3, (0, 1)), (4, 3, (1, 1)), (13, 3, (4, 1))],
    )
    def test_parent_position(self, pos, arity, expected):
        assert chameleon.parent_position(pos, arity) == expected

    def test_roundtrip(self):
        for arity in (2, 3, 4):
            for pos in range(1, 50):
                par, j = chameleon.parent_position(pos, arity)
                assert chameleon.child_position(par, j, arity) == pos

    def test_root_has_no_parent(self):
        with pytest.raises(ReproError):
            chameleon.parent_position(0, 2)

    def test_child_index_range(self):
        with pytest.raises(ReproError):
            chameleon.child_position(0, 3, 2)


class TestDataOwner:
    def test_requires_trapdoor(self, cvc, prf_key):
        with pytest.raises(ReproError):
            chameleon.ChameleonTreeDO(cvc.public_view(), prf_key, "kw", arity=2)

    def test_arity_must_match_cvc(self, cvc, prf_key):
        with pytest.raises(ReproError):
            chameleon.ChameleonTreeDO(cvc, prf_key, "kw", arity=3)

    def test_insertion_proof_fields(self, trees):
        do, _ = trees
        proof = do.insert(10, value_of(10))
        assert proof.position == 1
        assert proof.parent_position == 0
        assert proof.child_index == 1
        assert proof.object_id == 10

    def test_insertion_proofs_equal_the_public_openings(self, trees, cvc):
        """What the DO opens with the trapdoor, ``open_slot`` opens without."""
        from repro.core.mbtree import entry_digest
        from repro.crypto import vc

        do, _ = trees
        for object_id in range(1, 12):
            proof = do.insert(object_id, value_of(object_id))
            entry = entry_digest(object_id, value_of(object_id))
            assert proof.slot1_proof == vc.open_slot(
                cvc.pp, 1, entry, do.aux_at(proof.position)
            )
            assert proof.parent_link_proof == vc.open_slot(
                cvc.pp,
                proof.child_index + 1,
                proof.commitment,
                do.aux_at(proof.parent_position),
            )

    def test_retract_restores_the_tree(self, trees):
        do, _ = trees
        for object_id in (1, 2, 3):
            do.insert(object_id, value_of(object_id))
        before = (do.count, dict(do._aux), dict(do._commitments))
        parent_aux = do.aux_at(chameleon.parent_position(4, 2)[0])
        kept = do.insert(4, value_of(4))
        do.retract(4, parent_aux)
        assert (do.count, do._aux, do._commitments) == before
        assert do.insert(4, value_of(4)) == kept

    def test_deterministic_commitments(self, cvc, prf_key):
        do1 = chameleon.ChameleonTreeDO(cvc, prf_key, "same", arity=2)
        do2 = chameleon.ChameleonTreeDO(cvc, prf_key, "same", arity=2)
        assert do1.root_commitment == do2.root_commitment

    def test_keyword_separates_commitments(self, cvc, prf_key):
        do1 = chameleon.ChameleonTreeDO(cvc, prf_key, "a", arity=2)
        do2 = chameleon.ChameleonTreeDO(cvc, prf_key, "b", arity=2)
        assert do1.root_commitment != do2.root_commitment


class TestStorageProvider:
    def test_insertions_must_be_ordered(self, trees):
        do, sp = trees
        p1 = do.insert(1, value_of(1))
        p2 = do.insert(2, value_of(2))
        with pytest.raises(ReproError):
            sp.apply_insertion(p2)  # position 2 before position 1
        sp.apply_insertion(p1)
        sp.apply_insertion(p2)
        assert sp.count == 2

    def test_ids_must_increase(self, trees):
        do, sp = trees
        sp.apply_insertion(do.insert(5, value_of(5)))
        proof = do.insert(3, value_of(3))
        with pytest.raises(ReproError):
            sp.apply_insertion(proof)

    def test_position_lookup(self, trees):
        do, sp = trees
        fill(do, sp, [2, 4, 9])
        assert sp.position_of(4) == 2
        assert sp.position_of(5) is None
        assert sp.id_at_position(3) == 9
        with pytest.raises(ReproError):
            sp.id_at_position(4)

    def test_boundaries(self, trees):
        do, sp = trees
        fill(do, sp, [2, 4, 9, 15])
        result = sp.boundaries(9)
        assert result.matched
        assert result.lower.key == 9
        assert result.upper.key == 15
        result = sp.boundaries(1)
        assert result.lower is None
        assert result.upper.key == 2
        result = sp.boundaries(99)
        assert result.upper is None
        assert result.lower.key == 15

    def test_all_entries_in_order(self, trees):
        do, sp = trees
        fill(do, sp, [1, 3, 5])
        entries = sp.all_entries()
        assert [e.key for e, _ in entries] == [1, 3, 5]


class TestMembershipVerification:
    def test_all_positions_verify(self, trees, cvc_params):
        pp, _ = cvc_params
        do, sp = trees
        ids = [1, 2, 4, 5, 7, 8, 10]
        fill(do, sp, ids)
        for pos in range(1, len(ids) + 1):
            entry = sp.entry_at(pos)
            proof = sp.prove_membership(pos)
            chameleon.verify_membership(
                pp, do.root_commitment, sp.count, 2,
                entry.key, entry.value_hash, proof,
            )

    def test_wrong_id_rejected(self, trees, cvc_params):
        pp, _ = cvc_params
        do, sp = trees
        fill(do, sp, [1, 2, 3])
        proof = sp.prove_membership(2)
        with pytest.raises(VerificationError):
            chameleon.verify_membership(
                pp, do.root_commitment, sp.count, 2, 99, value_of(2), proof
            )

    def test_wrong_hash_rejected(self, trees, cvc_params):
        pp, _ = cvc_params
        do, sp = trees
        fill(do, sp, [1, 2, 3])
        proof = sp.prove_membership(2)
        with pytest.raises(VerificationError):
            chameleon.verify_membership(
                pp, do.root_commitment, sp.count, 2, 2, value_of(99), proof
            )

    def test_stale_count_rejects_new_positions(self, trees, cvc_params):
        pp, _ = cvc_params
        do, sp = trees
        fill(do, sp, [1, 2, 3])
        entry = sp.entry_at(3)
        proof = sp.prove_membership(3)
        with pytest.raises(VerificationError):
            chameleon.verify_membership(
                pp, do.root_commitment, 2, 2, entry.key, entry.value_hash, proof
            )

    def test_claimed_position_must_match_links(self, trees, cvc_params):
        pp, _ = cvc_params
        do, sp = trees
        fill(do, sp, [1, 2, 3, 4, 5])
        proof = sp.prove_membership(3)
        forged = chameleon.MembershipProof(
            position=4,
            entry_commitment=proof.entry_commitment,
            slot1_proof=proof.slot1_proof,
            links=proof.links,
        )
        entry = sp.entry_at(3)
        with pytest.raises(VerificationError):
            chameleon.verify_membership(
                pp, do.root_commitment, sp.count, 2,
                entry.key, entry.value_hash, forged,
            )

    def test_wrong_root_rejected(self, trees, cvc_params, cvc, prf_key):
        pp, _ = cvc_params
        do, sp = trees
        fill(do, sp, [1, 2])
        other = chameleon.ChameleonTreeDO(cvc, prf_key, "other", arity=2)
        entry = sp.entry_at(1)
        proof = sp.prove_membership(1)
        with pytest.raises(VerificationError):
            chameleon.verify_membership(
                pp, other.root_commitment, sp.count, 2,
                entry.key, entry.value_hash, proof,
            )

    def test_empty_links_rejected(self, cvc_params):
        pp, _ = cvc_params
        proof = chameleon.MembershipProof(
            position=1, entry_commitment=1, slot1_proof=1, links=()
        )
        with pytest.raises(VerificationError):
            chameleon.verify_membership(pp, 123, 5, 2, 1, value_of(1), proof)

    def test_proof_byte_size(self, trees):
        do, sp = trees
        fill(do, sp, list(range(1, 16)))
        shallow = sp.prove_membership(1)
        deep = sp.prove_membership(15)
        assert deep.byte_size(64) > shallow.byte_size(64)
