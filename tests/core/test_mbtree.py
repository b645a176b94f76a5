"""Unit tests for the Merkle B-tree."""

from bisect import bisect_right

import pytest

from repro.core import mbtree
from repro.core.multiproof import open_table
from repro.crypto.hashing import EMPTY_DIGEST, sha3
from repro.errors import IntegrityError, ReproError, VerificationError


def value_of(key: int) -> bytes:
    return sha3(b"value-%d" % key)


def build(keys, fanout=4):
    tree = mbtree.MBTree(fanout=fanout)
    for k in keys:
        tree.insert(k, value_of(k))
    return tree


class TestBasics:
    def test_empty_tree(self):
        tree = mbtree.MBTree()
        assert len(tree) == 0
        assert tree.root_hash == EMPTY_DIGEST
        assert tree.height == 0
        assert tree.min_key is None
        assert tree.boundaries(1) == (None, None)

    def test_fanout_validation(self):
        with pytest.raises(ReproError):
            mbtree.MBTree(fanout=2)

    def test_duplicate_key_rejected(self):
        tree = build([1, 2, 3])
        with pytest.raises(ReproError):
            tree.insert(2, value_of(2))

    def test_iteration_sorted(self):
        tree = build([5, 1, 9, 3, 7])
        assert [e.key for e in tree.iter_entries()] == [1, 3, 5, 7, 9]

    def test_height_grows_logarithmically(self):
        tree = build(range(100), fanout=4)
        assert 3 <= tree.height <= 5

    def test_max_key_tracked(self):
        tree = build([1, 5, 3])
        assert tree.max_key == 5


def run_of(tree, keys):
    """The table over ``keys``, folded to the root and opened."""
    return open_table(tree.multiproof(keys), tree.root_hash, "kw")


class TestProofs:
    def test_membership_proofs(self):
        tree = build(range(1, 50))
        for key in (1, 17, 33, 49):
            table = tree.multiproof([key])
            assert table.leaves == ((key, value_of(key)),)
            assert table.fold()[0] == tree.root_hash

    def test_missing_key(self):
        tree = build([1, 2, 3])
        with pytest.raises(ReproError):
            tree.multiproof([99])

    def test_first_last_flags(self):
        tree = build(range(1, 30))
        first, last = run_of(tree, [1]), run_of(tree, [29])
        assert first.first() == 1
        assert first.boundaries(0) == (None, 1)
        assert last.boundaries(29) == (29, None)
        with pytest.raises(VerificationError):
            first.boundaries(1)  # 1 is not the last entry
        with pytest.raises(VerificationError):
            last.first()  # 29 is not the first

    def test_path_byte_size_positive(self):
        tree = build(range(1, 30))
        assert tree.multiproof([10]).byte_size() > 40


def bracket(keys, target):
    """The inserted keys bracketing ``target``, from ``bisect``: an
    oracle that shares no routing code with the tree."""
    ordered = sorted(keys)
    rank = bisect_right(ordered, target)
    return (
        ordered[rank - 1] if rank else None,
        ordered[rank] if rank < len(ordered) else None,
    )


class TestBoundaries:
    def test_exact_match(self):
        keys = [2, 4, 6, 8]
        assert bracket(keys, 4) == (4, 6)
        assert build(keys).boundaries(4) == (4, 6)

    def test_between_keys(self):
        keys = [2, 4, 6, 8]
        tree = build(keys)
        assert bracket(keys, 5) == (4, 6)
        assert tree.boundaries(5) == (4, 6)
        assert run_of(tree, [4, 6]).boundaries(5) == (4, 6)

    def test_before_first(self):
        keys = [2, 4]
        tree = build(keys)
        assert bracket(keys, 1) == (None, 2)
        assert tree.boundaries(1) == (None, 2)
        assert run_of(tree, [2]).boundaries(1) == (None, 2)

    def test_after_last(self):
        keys = [2, 4]
        tree = build(keys)
        assert bracket(keys, 9) == (4, None)
        assert tree.boundaries(9) == (4, None)
        assert run_of(tree, [4]).boundaries(9) == (4, None)

    def test_boundary_proofs_verify(self):
        keys = range(0, 100, 3)
        tree = build(keys)
        lower, upper = bracket(keys, 50)
        assert tree.boundaries(50) == (lower, upper)
        table = tree.multiproof([lower, upper])
        assert table.fold()[0] == tree.root_hash
        assert table.leaves == (
            (lower, value_of(lower)),
            (upper, value_of(upper)),
        )


class TestAdjacency:
    def test_consecutive_entries_adjacent(self):
        tree = build(range(1, 60))
        for key in range(1, 59):
            assert run_of(tree, [key, key + 1]).boundaries(key) == (key, key + 1)

    def test_non_consecutive_not_adjacent(self):
        tree = build(range(1, 60))
        with pytest.raises(VerificationError, match="lacks the boundary"):
            run_of(tree, [10, 12]).boundaries(10)

    def test_reversed_order_not_adjacent(self):
        tree = build(range(1, 60))
        with pytest.raises(ReproError):
            tree.multiproof([11, 10])

    def test_same_entry_not_adjacent(self):
        tree = build(range(1, 10))
        with pytest.raises(VerificationError):
            run_of(tree, [5]).boundaries(5)


class TestUpdateSpine:
    """Algorithm 1's spine (that it folds to the tree's roots:
    ``test_update_path.py``)."""

    def test_spine_rejects_non_monotonic(self):
        tree = build([5, 9])
        for key in (3, 7, 9):
            with pytest.raises(ReproError):
                tree.update_spine(key)

    def test_serialise_roundtrip(self):
        tree = build(range(1, 40))
        spine = tree.update_spine(100)
        rebuilt = mbtree.UpdateSpine.deserialise(spine.serialise())
        assert rebuilt == spine

    def test_deserialise_rejects_truncation(self):
        tree = build(range(1, 40))
        raw = tree.update_spine(100).serialise()
        with pytest.raises(IntegrityError):
            mbtree.UpdateSpine.deserialise(raw[:-1])

    def test_deserialise_rejects_trailing_bytes(self):
        tree = build(range(1, 40))
        raw = tree.update_spine(100).serialise()
        with pytest.raises(IntegrityError):
            mbtree.UpdateSpine.deserialise(raw + b"x")

    def test_byte_size_grows_with_depth(self):
        small = build(range(1, 5)).update_spine(100)
        large = build(range(1, 200)).update_spine(500)
        assert len(large.serialise()) > len(small.serialise())


class TestInsertReport:
    def test_first_insert_creates_the_root_leaf(self):
        tree = mbtree.MBTree()
        report = tree.insert(1, value_of(1))
        assert report == mbtree.TreeInsertReport([], [0], 0, True)
        assert len(tree) == 1

    def test_reports_the_descent_rehashes_and_splits(self):
        tree = mbtree.MBTree(fanout=4)
        tree.insert(1, value_of(1))
        splits = roots = 0
        for key in [*range(40, 1, -3), *range(41, 80)]:
            height, root = tree.height, tree.store.store.root
            report = tree.insert(key, value_of(key))
            assert len(report.visited) == height
            assert report.visited[0] == root
            assert tree.store.is_leaf(report.visited[-1])
            assert len(report.rehashed) == height + report.splits + report.new_root
            assert report.new_root == (tree.height == height + 1)
            if report.new_root:
                assert report.splits == height
                assert report.rehashed[-1] == tree.store.store.root
            # A split's left half keeps its record; its sibling is new.
            for level in range(report.splits):
                left, right = report.rehashed[2 * level : 2 * level + 2]
                assert left == report.visited[height - 1 - level]
                assert right not in report.visited
            assert report.rehashed[-1] == tree.store.store.root
            splits += report.splits
            roots += report.new_root
        assert splits > 10
        assert roots >= 2
