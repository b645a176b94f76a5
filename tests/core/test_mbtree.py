"""Unit tests for the Merkle B-tree."""

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
        assert tree.locate(1) == (None, None)

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


class TestBoundaries:
    def test_exact_match(self):
        tree = build([2, 4, 6, 8])
        lower, upper = tree.locate(4)
        assert (lower.key, upper.key) == (4, 6)

    def test_between_keys(self):
        tree = build([2, 4, 6, 8])
        lower, upper = tree.locate(5)
        assert (lower.key, upper.key) == (4, 6)
        assert run_of(tree, [4, 6]).boundaries(5) == (4, 6)

    def test_before_first(self):
        tree = build([2, 4])
        lower, upper = tree.locate(1)
        assert lower is None and upper.key == 2
        assert run_of(tree, [2]).boundaries(1) == (None, 2)

    def test_after_last(self):
        tree = build([2, 4])
        lower, upper = tree.locate(9)
        assert upper is None and lower.key == 4
        assert run_of(tree, [4]).boundaries(9) == (4, None)

    def test_boundary_proofs_verify(self):
        tree = build(range(0, 100, 3))
        lower, upper = tree.locate(50)
        table = tree.multiproof([lower.key, upper.key])
        assert table.fold()[0] == tree.root_hash
        assert table.leaves == (
            (lower.key, lower.value_hash),
            (upper.key, upper.value_hash),
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
    def test_spine_matches_real_insertions(self):
        tree = mbtree.MBTree(fanout=4)
        for key in range(1, 150):
            spine = tree.gen_update_proof(key)
            assert mbtree.reconstruct_root(spine) == tree.root_hash
            new_entry = mbtree.entry_digest(key, value_of(key))
            predicted = mbtree.compute_updated_root(spine, new_entry, 4)
            tree.insert(key, value_of(key))
            assert predicted == tree.root_hash

    def test_spine_rejects_non_monotonic(self):
        tree = build([5])
        with pytest.raises(ReproError):
            tree.gen_update_proof(3)

    def test_serialise_roundtrip(self):
        tree = build(range(1, 40))
        spine = tree.gen_update_proof(100)
        rebuilt = mbtree.UpdateSpine.deserialise(spine.serialise())
        assert rebuilt == spine

    def test_deserialise_rejects_truncation(self):
        tree = build(range(1, 40))
        raw = tree.gen_update_proof(100).serialise()
        with pytest.raises(IntegrityError):
            mbtree.UpdateSpine.deserialise(raw[:-1])

    def test_deserialise_rejects_trailing_bytes(self):
        tree = build(range(1, 40))
        raw = tree.gen_update_proof(100).serialise()
        with pytest.raises(IntegrityError):
            mbtree.UpdateSpine.deserialise(raw + b"x")

    def test_empty_tree_spine(self):
        tree = mbtree.MBTree()
        spine = tree.gen_update_proof(1)
        assert mbtree.reconstruct_root(spine) == EMPTY_DIGEST
        new_entry = mbtree.entry_digest(1, value_of(1))
        predicted = mbtree.compute_updated_root(spine, new_entry, 4)
        tree.insert(1, value_of(1))
        assert predicted == tree.root_hash

    def test_byte_size_grows_with_depth(self):
        small = build(range(1, 5)).gen_update_proof(100)
        large = build(range(1, 200)).gen_update_proof(500)
        assert large.byte_size() > small.byte_size()


class RecordingObserver:
    """Counts structural events for cost-model assertions."""

    def __init__(self):
        self.visited = 0
        self.inserted = 0
        self.rehashed = 0
        self.splits = 0
        self.roots = 0

    def node_visited(self, node):
        self.visited += 1

    def entry_inserted(self, leaf):
        self.inserted += 1

    def node_rehashed(self, node):
        self.rehashed += 1

    def node_split(self, original, sibling):
        self.splits += 1

    def root_replaced(self, root):
        self.roots += 1


class TestObserver:
    def test_events_fire(self):
        tree = mbtree.MBTree(fanout=4)
        observer = RecordingObserver()
        for key in range(1, 30):
            tree.insert(key, value_of(key), observer=observer)
        assert observer.inserted == 28  # first insert creates the root leaf
        assert observer.visited > 0
        assert observer.splits > 0
        assert observer.roots >= 2  # initial leaf + at least one root split

    def test_observer_optional(self):
        tree = mbtree.MBTree()
        tree.insert(1, value_of(1))
        assert len(tree) == 1
