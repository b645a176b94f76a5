"""Unit tests for the generalized-index Merkle multiproof (PR 9)."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mbtree import MBTree
from repro.core.merkle_family import MerkleProofSystem
from repro.core.multiproof import (
    SLOT_DESCEND,
    SLOT_HELPER,
    SLOT_LEAF,
    TreeMultiproof,
)
from repro.core.query.vo import ProvenEntry
from repro.errors import ReproError, VerificationError

from tests.reference_codec import (
    MerkleParts,
    forge_merkle,
    merkle_parts,
    merkle_table,
)
from tests.reference_multiproof import (
    MerklePath,
    build_multiproof,
    compute_multiproof_indices,
    gpath_adjacent,
    gpath_is_leftmost,
    gpath_is_rightmost,
    leaf_gindex,
    paths_adjacent,
    prove_path,
)


def vhash(key: int) -> bytes:
    return bytes([key % 251]) * 32


def make_tree(size: int, fanout: int = 4) -> MBTree:
    tree = MBTree(fanout=fanout)
    for key in range(size):
        tree.insert(key, vhash(key))
    return tree


def proven(tree: MBTree, keys) -> list[tuple[ProvenEntry, MerklePath]]:
    out = []
    for key in keys:
        entry, path = prove_path(tree, key)
        out.append(
            (
                ProvenEntry(object_id=entry.key, object_hash=entry.value_hash),
                path,
            )
        )
    return out


class TestGeneralizedIndex:
    def test_binary_gindex_matches_classic_formula(self):
        # For width-2 trees, g = 2**depth + leaf_index.
        assert leaf_gindex((0, 0), (2, 2)) == 4
        assert leaf_gindex((0, 1), (2, 2)) == 5
        assert leaf_gindex((1, 1), (2, 2)) == 7

    def test_mixed_radix_is_injective_per_level(self):
        widths = (4, 3)
        seen = set()
        for a in range(4):
            for b in range(3):
                seen.add(leaf_gindex((a, b), widths))
        assert len(seen) == 12

    def test_root_has_gindex_one(self):
        assert leaf_gindex((), ()) == 1


class TestIndexPartition:
    def test_single_leaf_binary_tree(self):
        codes = compute_multiproof_indices([(0, 1)], [(2, 2)])
        assert codes[(0,)] == SLOT_DESCEND
        assert codes[(1,)] == SLOT_HELPER
        assert codes[(0, 0)] == SLOT_HELPER
        assert codes[(0, 1)] == SLOT_LEAF

    def test_shared_parent_is_descended_once(self):
        codes = compute_multiproof_indices(
            [(0, 0), (0, 1)], [(2, 2), (2, 2)]
        )
        assert codes[(0,)] == SLOT_DESCEND
        assert codes[(0, 0)] == SLOT_LEAF
        assert codes[(0, 1)] == SLOT_LEAF
        assert codes[(1,)] == SLOT_HELPER

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ReproError):
            compute_multiproof_indices([(0,), (0, 1)], [(2,), (2, 2)])

    def test_conflicting_widths_rejected(self):
        with pytest.raises(ReproError):
            compute_multiproof_indices([(0, 0), (0, 1)], [(2, 2), (3, 2)])

    def test_empty_leaf_set_rejected(self):
        with pytest.raises(ReproError):
            compute_multiproof_indices([], [])


class TestBuildFoldParity:
    @pytest.mark.parametrize("fanout", [3, 4])
    @pytest.mark.parametrize("size", [5, 17, 60])
    def test_fold_root_matches_tree_root(self, fanout, size):
        tree = make_tree(size, fanout=fanout)
        rng = random.Random(size * fanout)
        keys = rng.sample(range(size), k=max(1, size // 3))
        multiproof, ordinals = build_multiproof(proven(tree, keys))
        assert multiproof.fold()[0] == tree.root_hash
        assert len(multiproof.leaves) == len(set(keys))
        assert len(ordinals) == len(set(keys))

    def test_full_cover_has_no_helpers(self):
        tree = make_tree(16)
        multiproof, _ = build_multiproof(proven(tree, range(16)))
        assert merkle_parts(multiproof).helpers == ()
        assert multiproof.fold()[0] == tree.root_hash

    def test_duplicate_entries_deduplicate(self):
        tree = make_tree(12)
        pairs = proven(tree, [3, 7, 3, 7, 3])
        multiproof, ordinals = build_multiproof(pairs)
        assert len(multiproof.leaves) == 2
        assert multiproof.fold()[0] == tree.root_hash
        assert sorted(ordinals.values()) == [0, 1]

    def test_leaf_ordinals_follow_key_order(self):
        tree = make_tree(30)
        multiproof, _ = build_multiproof(proven(tree, [25, 2, 14]))
        keys = [entry[0] for entry in multiproof.leaves]
        assert keys == sorted(keys) == [2, 14, 25]

    def test_multiproof_smaller_than_paths(self):
        tree = make_tree(60)
        pairs = proven(tree, range(0, 60, 2))
        multiproof, _ = build_multiproof(pairs)
        path_bytes = sum(40 + path.byte_size() for _, path in pairs)
        assert multiproof.byte_size() < path_bytes / 2

    def test_conflicting_sibling_digests_rejected(self):
        tree = make_tree(20)
        # Keys 0 and 1 share a leaf, so their leaf-level rows both claim
        # the digests of the leaf's remaining entries — tampering one
        # path's copy contradicts the other's.
        pairs = proven(tree, [0, 1])
        entry, path = pairs[1]
        step = path.steps[0]
        assert step.after, "keys 0 and 1 must share a non-full leaf"
        bad_step = dataclasses.replace(
            step, after=(bytes(32),) * len(step.after)
        )
        bad_path = dataclasses.replace(
            path, steps=(bad_step,) + path.steps[1:]
        )
        with pytest.raises(ReproError):
            build_multiproof([pairs[0], (entry, bad_path)])

    def test_mixed_depth_paths_rejected(self):
        shallow = make_tree(3)
        deep = make_tree(40)
        with pytest.raises(ReproError):
            build_multiproof(proven(shallow, [1]) + proven(deep, [1]))


def is_leftmost(mp: TreeMultiproof, ordinal: int) -> bool:
    """The three predicates of ``TreeMultiproof``'s "Positions" note."""
    return ordinal == 0 and mp.fold()[1][0] == 0


def is_rightmost(mp: TreeMultiproof, ordinal: int) -> bool:
    return (
        ordinal == len(mp.leaves) - 1
        and mp.fold()[1][ordinal] == len(merkle_parts(mp).helpers)
    )


def adjacent(mp: TreeMultiproof, left: int, right: int) -> bool:
    before = mp.fold()[1]
    return right == left + 1 and before[left] == before[right]


def run_over(tree: MBTree, mp: TreeMultiproof):
    """The client's view of ``mp`` (folded against the tree's root)."""
    ps = MerkleProofSystem(roots={"kw": tree.root_hash})
    ps.attach_multiproofs((mp,))
    return ps.proven_run("kw", 0)


class TestBoundaryPredicates:
    def test_leftmost_rightmost_match_paths(self):
        tree = make_tree(23)
        multiproof, ordinals = build_multiproof(
            proven(tree, [0, 5, 22])
        )
        by_key = {
            multiproof.leaves[ordinal][0]: ordinal
            for ordinal in range(len(multiproof.leaves))
        }
        assert is_leftmost(multiproof, by_key[0])
        assert not is_leftmost(multiproof, by_key[5])
        assert is_rightmost(multiproof, by_key[22])
        assert not is_rightmost(multiproof, by_key[5])
        # What the replayed join sees of it: the first key, the open end
        # behind the last, and nothing in between.
        run = run_over(tree, multiproof)
        assert run.first() == 0
        assert run.boundaries(22) == (22, None)
        with pytest.raises(VerificationError, match="lacks the boundary"):
            run.boundaries(5)

    @pytest.mark.parametrize("fanout", [3, 4])
    def test_adjacency_matches_paths_adjacent(self, fanout):
        size = 29
        tree = make_tree(size, fanout=fanout)
        multiproof, _ = build_multiproof(proven(tree, range(size)))
        paths = {key: prove_path(tree, key)[1] for key in range(size)}
        for left in range(size - 1):
            for right in (left + 1, min(left + 5, size - 1)):
                expected = paths_adjacent(paths[left], paths[right])
                assert adjacent(multiproof, left, right) == expected

    @settings(max_examples=80, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 5_000), unique=True, min_size=1, max_size=120),
        fanout=st.integers(3, 8),
        data=st.data(),
    )
    def test_helper_counts_equal_the_gpath_form(self, keys, fanout, data):
        """One integer per leaf decides what the root-to-leaf positions
        decided: random trees (insert order is the list order), random
        proven subsets, every pair of ordinals."""
        tree = MBTree(fanout=fanout)
        for key in keys:
            tree.insert(key, vhash(key))
        picks = sorted(
            set(data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=40)))
        )
        mp = tree.multiproof(picks)
        count = len(picks)
        assert len(mp.fold()[1]) == count
        for left in range(count):
            assert is_leftmost(mp, left) == gpath_is_leftmost(mp, left)
            assert is_rightmost(mp, left) == gpath_is_rightmost(mp, left)
            for right in range(count):
                assert adjacent(mp, left, right) == gpath_adjacent(mp, left, right)
        # And both agree with the tree itself.
        ordered = sorted(keys)
        for left, right in zip(picks, picks[1:]):
            neighbours = ordered.index(right) == ordered.index(left) + 1
            assert adjacent(mp, picks.index(left), picks.index(right)) == neighbours
        assert is_leftmost(mp, 0) == (picks[0] == ordered[0])
        assert is_rightmost(mp, count - 1) == (picks[-1] == ordered[-1])
        # The replayed join's view draws the same lines.
        run = run_over(tree, mp)
        for left, right in zip(picks, picks[1:]):
            if ordered.index(right) == ordered.index(left) + 1:
                assert run.boundaries(left) == (left, right)
            else:
                with pytest.raises(VerificationError):
                    run.boundaries(left)

    def test_adjacent_rejects_out_of_range_ordinals(self):
        """Outside what the leaves show there is nothing to be adjacent
        to: a probe below the first or above the last proven key is
        refused unless that key is the tree's own first or last."""
        tree = make_tree(9)
        multiproof, _ = build_multiproof(proven(tree, [1, 2]))
        assert len(multiproof.fold()[1]) == 2
        run = run_over(tree, multiproof)
        assert run.boundaries(1) == (1, 2)
        for outside in (0, 2, 5):
            with pytest.raises(VerificationError):
                run.boundaries(outside)


class TestFailClosed:
    def build(self, size=21, keys=(2, 9, 17)):
        tree = make_tree(size)
        multiproof, _ = build_multiproof(proven(tree, keys))
        return tree, multiproof

    def test_dropped_helper_fails(self):
        tree, mp = self.build()
        helpers = merkle_parts(mp).helpers
        bad = forge_merkle(mp, helpers=helpers[:-1])
        with pytest.raises(VerificationError):
            bad.fold()[0]

    def test_duplicated_helper_changes_root_or_fails(self):
        tree, mp = self.build()
        helpers = merkle_parts(mp).helpers
        bad = forge_merkle(mp, helpers=helpers + helpers[:1])
        with pytest.raises(VerificationError):
            bad.fold()[0]

    def test_reordered_helpers_change_the_root(self):
        tree, mp = self.build()
        helpers = merkle_parts(mp).helpers
        assert len(helpers) >= 2
        swapped = (helpers[1], helpers[0]) + helpers[2:]
        if swapped == helpers:
            pytest.skip("helpers coincide")
        bad = forge_merkle(mp, helpers=swapped)
        try:
            root = bad.fold()[0]
        except VerificationError:
            return
        assert root != tree.root_hash

    def test_truncated_nodes_fail(self):
        _, mp = self.build()
        bad = forge_merkle(mp, nodes=merkle_parts(mp).nodes[:-1])
        with pytest.raises(VerificationError):
            bad.fold()[0]

    def test_tampered_leaf_hash_changes_the_root(self):
        tree, mp = self.build()
        key, _ = mp.leaves[0]
        bad_leaves = ((key, bytes(32)),) + mp.leaves[1:]
        bad = forge_merkle(mp, leaves=bad_leaves)
        assert bad.fold()[0] != tree.root_hash

    def test_leaf_entry_bounds_checked(self):
        """A result's hash comes from a proven leaf or from nowhere."""
        tree, mp = self.build()
        run = run_over(tree, mp)
        assert run.object_hashes([9]) == {9: vhash(9)}
        with pytest.raises(VerificationError, match="not a proven entry"):
            run.object_hashes([9, 10])

    def test_longer_count_encoding_refused(self):
        """A count has one encoding: a padded varint would make a second
        body with the same fold."""
        _, mp = self.build()
        count = mp.body[1]  # the node count, behind the height byte
        assert count < 0x80
        padded = mp.body[:1] + bytes((count | 0x80, 0)) + mp.body[2:]
        with pytest.raises(VerificationError):
            TreeMultiproof(padded).fold()
        with pytest.raises(VerificationError):
            TreeMultiproof.from_wire(padded, 0)

    def test_cache_token_binds_structure(self):
        tree, mp = self.build()
        other_tree, other = self.build(size=22, keys=(2, 9, 17))
        assert mp.cache_token() != other.cache_token()
        bad = forge_merkle(
            mp, helpers=(bytes(32),) + merkle_parts(mp).helpers[1:]
        )
        assert bad.cache_token() != mp.cache_token()


class TestStackMachineRobustness:
    def test_descend_at_leaf_level_fails(self):
        mp = merkle_table(
            MerkleParts(
                height=1,
                nodes=((SLOT_DESCEND,),),
                helpers=(),
                leaves=((1, vhash(1)),),
            )
        )
        with pytest.raises(VerificationError):
            mp.fold()[0]

    def test_unconsumed_leaves_fail(self):
        mp = merkle_table(
            MerkleParts(
                height=1,
                nodes=((SLOT_LEAF,),),
                helpers=(),
                leaves=((1, vhash(1)), (2, vhash(2))),
            )
        )
        with pytest.raises(VerificationError):
            mp.fold()[0]

    def test_all_helper_cover_fails(self):
        mp = merkle_table(
            MerkleParts(
                height=1,
                nodes=((SLOT_HELPER, SLOT_HELPER),),
                helpers=(bytes(32), bytes(32)),
                leaves=(),
            )
        )
        with pytest.raises(VerificationError):
            mp.fold()[0]
