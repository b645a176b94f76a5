"""Unit tests for the Chameleon tree (DO and SP sides)."""

import pytest

from repro.core import chameleon
from repro.core.chameleon_index import ChameleonView
from repro.crypto.hashing import sha3
from repro.errors import ReproError, VerificationError
from tests.node_tables import change, forge, plain_check, rows_of


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
        view = ChameleonView("kw", sp)
        assert view.boundaries(9) == (9, 15)
        assert view.boundaries(1) == (None, 2)
        assert view.boundaries(99) == (15, None)
        # What was read, as positions: 3 and 4, then 1, then 4 again.
        assert view.positions == [1, 3, 4]
        run = view.run()
        assert run.keys == (1, 3, 4) and run.root == sp.run_root
        assert run.root[-8:] == (4).to_bytes(8, "big")

    def test_all_entries_in_order(self, trees):
        do, sp = trees
        fill(do, sp, [1, 3, 5])
        view = ChameleonView("kw", sp)
        assert view.scan() == [1, 3, 5]
        table = sp.multiproof(tuple(view.positions))
        assert table.leaves == [(key, value_of(key)) for key in (1, 3, 5)]
        for bad in ((), (0,), (4,), (2, 1), (1, 1)):
            with pytest.raises(ReproError):
                sp.multiproof(bad)


class TestMembershipVerification:
    """``ChameleonMultiproof.authenticate`` with every opening checked on
    the spot (the proof system defers them to one batch instead)."""

    def test_all_positions_verify(self, trees, cvc_params):
        pp, _ = cvc_params
        do, sp = trees
        ids = [1, 2, 4, 5, 7, 8, 10]
        fill(do, sp, ids)
        for pos in range(1, len(ids) + 1):
            table = sp.multiproof((pos,))
            assert table.authenticate(
                plain_check(pp), do.root_commitment, sp.count
            ) == ([pos], [(ids[pos - 1], value_of(ids[pos - 1]))])
        whole = sp.multiproof(tuple(range(1, len(ids) + 1)))
        positions, leaves = whole.authenticate(
            plain_check(pp), do.root_commitment, sp.count
        )
        assert positions == list(range(1, len(ids) + 1))
        assert [key for key, _ in leaves] == ids

    def refused(self, pp, table, root, count):
        with pytest.raises(VerificationError):
            table.authenticate(plain_check(pp), root, count)

    def test_wrong_id_rejected(self, trees, cvc_params):
        pp, _ = cvc_params
        do, sp = trees
        fill(do, sp, [1, 2, 3])
        forged = forge(sp.multiproof((2,)), {2: change(object_id=99)})
        self.refused(pp, forged, do.root_commitment, sp.count)

    def test_wrong_hash_rejected(self, trees, cvc_params):
        pp, _ = cvc_params
        do, sp = trees
        fill(do, sp, [1, 2, 3])
        forged = forge(sp.multiproof((2,)), {2: change(object_hash=value_of(99))})
        self.refused(pp, forged, do.root_commitment, sp.count)

    def test_stale_count_rejects_new_positions(self, trees, cvc_params):
        pp, _ = cvc_params
        do, sp = trees
        fill(do, sp, [1, 2, 3])
        self.refused(pp, sp.multiproof((3,)), do.root_commitment, 2)

    def test_claimed_position_must_match_links(self, trees, cvc_params):
        """Position 3 presented as its sibling 4: same parent row, but
        the link now has to open the parent's other child slot."""
        pp, _ = cvc_params
        do, sp = trees
        fill(do, sp, [1, 2, 3, 4, 5])
        forged = forge(sp.multiproof((3,)), {3: change(position=4)})
        assert [r.position for r in rows_of(forged)] == [1, 4]
        self.refused(pp, forged, do.root_commitment, sp.count)

    def test_wrong_root_rejected(self, trees, cvc_params, cvc, prf_key):
        pp, _ = cvc_params
        do, sp = trees
        fill(do, sp, [1, 2])
        other = chameleon.ChameleonTreeDO(cvc, prf_key, "other", arity=2)
        self.refused(pp, sp.multiproof((1,)), other.root_commitment, sp.count)

    def test_empty_links_rejected(self, trees, cvc_params):
        """A row whose chain does not reach the root: its parent row gone."""
        pp, _ = cvc_params
        do, sp = trees
        fill(do, sp, [1, 2, 3])
        orphan = forge(sp.multiproof((3,)), {1: lambda _: None})
        with pytest.raises(VerificationError, match="lacks the parent"):
            orphan.authenticate(plain_check(pp), do.root_commitment, sp.count)

    def test_proof_byte_size(self, trees):
        do, sp = trees
        fill(do, sp, list(range(1, 16)))
        shallow = sp.multiproof((1,))
        deep = sp.multiproof((15,))
        assert deep.byte_size() > shallow.byte_size()
        width = shallow.value_bytes
        # arity + row count, then one entry row: position, flag, id,
        # hash, three group elements.
        assert shallow.byte_size() == 2 + 2 + 40 + 3 * width
        # ... plus a node row (position, flag, two elements) per ancestor
        # below the root: 7, 3 and 1.
        assert deep.byte_size() == shallow.byte_size() + 3 * (2 + 2 * width)
