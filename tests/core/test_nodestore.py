"""Tests for the flat-buffer node store underneath the ADS trees.

Covers the storage invariants the trees rely on but never observe
directly: a record's index is its node (appended, never freed or
moved), blob round-trips preserve roots and proofs byte for byte, a
blob breaking that invariant is refused, and a golden fixture pins the
v1 record layout so a layout change cannot slip through as a silent
format break.
"""

import random
from pathlib import Path

import pytest

from repro.core.chameleon import ChameleonTreeSP
from repro.core.mbtree import MBTree
from repro.core.nodestore import (
    HEADER_SIZE,
    KIND_CHAMELEON,
    KIND_MBTREE,
    NIL,
    NODESTORE_VERSION,
    ChameleonStore,
    NodeStore,
    mb_record_size,
)
from repro.crypto.hashing import sha3
from repro.errors import IntegrityError

FIXTURES = Path(__file__).parent.parent / "fixtures"

#: Root hash of the golden fixture tree (fanout 4, keys 1..10 with
#: ``sha3(b"obj-<key>")`` value hashes) — pinned, not recomputed.
GOLDEN_ROOT = "ec70cd6b32e190ab533d4b1cc94930e49e94964d6592734652183d7b2925bb8f"


def build_tree(n: int, fanout: int = 4) -> MBTree:
    tree = MBTree(fanout=fanout)
    for key in range(1, n + 1):
        tree.insert(key, sha3(b"obj-%d" % key))
    return tree


def record_fields(tree: MBTree, index: int) -> tuple[int, int]:
    """A record's type byte and its ``seq`` word."""
    off = tree.store.store.offset(index)
    blob = tree.store.store.blob
    return blob[off], int.from_bytes(blob[off + 4 : off + 8], "big")


class TestNodeStoreAllocation:
    def test_alloc_appends(self):
        store = NodeStore(KIND_MBTREE, mb_record_size(4), param=4)
        assert [store.alloc() for _ in range(3)] == [0, 1, 2]
        assert store.allocated == 3
        assert store.byte_size == HEADER_SIZE + 3 * mb_record_size(4)
        assert bytes(store.blob[HEADER_SIZE:]) == bytes(3 * mb_record_size(4))

    def test_split_keeps_the_left_half_in_place(self):
        # Five keys overflow a fan-out-4 leaf: its first three stay in
        # record 0, whose two tail slots are zeroed, and the last two move
        # to an appended sibling under an appended root.
        tree = build_tree(5)
        view = tree.store
        assert tree.store.store.allocated == 3
        assert view.leaf_entries(0) == [(k, sha3(b"obj-%d" % k)) for k in (1, 2, 3)]
        assert view.leaf_entries(1) == [(k, sha3(b"obj-%d" % k)) for k in (4, 5)]
        assert view.children(2) == [0, 1]
        off = view.store.offset(0) + 48 + 40 * 3
        assert bytes(view.store.blob[off : off + 80]) == bytes(80)

    def test_split_heavy_build_leaves_no_dead_records(self):
        # Sequential inserts split the right spine over and over; each
        # split keeps its left half in place, so every record stays a
        # live node whose seq is its index.
        tree = build_tree(2000)
        store = tree.store.store
        view = tree.store

        def live(index: int) -> int:
            if view.is_leaf(index):
                return 1
            return 1 + sum(live(child) for child in view.children(index))

        assert store.allocated == live(store.root)
        assert store.seq == store.allocated
        for index in range(store.allocated):
            assert record_fields(tree, index)[1] == index

    def test_header_round_trip(self):
        store = NodeStore(KIND_MBTREE, mb_record_size(4), param=4, param2=5)
        store.alloc()
        store.root = 0
        store.count = 1
        store.max_key = 99
        clone = NodeStore.from_blob(store.to_bytes())
        assert clone.kind == KIND_MBTREE
        assert clone.record_size == mb_record_size(4)
        assert (clone.param, clone.param2) == (4, 5)
        assert (clone.root, clone.count, clone.max_key) == (0, 1, 99)
        assert clone.allocated == 1

    def test_from_blob_rejects_bad_magic(self):
        store = NodeStore(KIND_MBTREE, mb_record_size(4), param=4)
        blob = bytearray(store.to_bytes())
        blob[:4] = b"NOPE"
        with pytest.raises(IntegrityError):
            NodeStore.from_blob(blob)


class TestMBTreeBlobRoundTrip:
    def test_root_and_proofs_identical(self):
        tree = build_tree(300)
        clone = MBTree.from_blob(tree.to_blob())
        assert clone.root_hash == tree.root_hash
        assert len(clone) == len(tree)
        assert list(clone.iter_entries()) == list(tree.iter_entries())
        for keys in ([1], [150], [300], [1, 150, 300]):
            table = clone.multiproof(keys)
            assert table == tree.multiproof(keys)
            assert table.fold()[0] == tree.root_hash

    def test_reserialisation_is_byte_identical(self):
        tree = build_tree(57)
        blob = tree.to_blob()
        assert MBTree.from_blob(blob).to_blob() == blob

    def test_empty_tree_round_trips(self):
        tree = MBTree(fanout=4)
        clone = MBTree.from_blob(tree.to_blob())
        assert len(clone) == 0
        assert clone.root_hash == tree.root_hash
        clone.insert(1, sha3(b"x"))
        assert len(clone) == 1

    def test_loaded_tree_keeps_growing_identically(self):
        grown = build_tree(120)
        half = build_tree(60)
        resumed = MBTree.from_blob(half.to_blob())
        for key in range(61, 121):
            resumed.insert(key, sha3(b"obj-%d" % key))
        assert resumed.root_hash == grown.root_hash
        assert resumed.to_blob() == grown.to_blob()


class TestRefusedBlobs:
    """Blobs this store never writes are refused, not adopted."""

    def forged(self, offset: int, value: int) -> bytes:
        blob = bytearray(build_tree(30).to_blob())
        blob[offset : offset + 4] = value.to_bytes(4, "big")
        return bytes(blob)

    def test_a_free_head_is_refused(self):
        with pytest.raises(IntegrityError, match="free record"):
            MBTree.from_blob(self.forged(28, 0))

    def test_a_free_record_is_refused(self):
        blob = bytearray(build_tree(30).to_blob())
        blob[HEADER_SIZE + 2 * mb_record_size(4)] = 0
        with pytest.raises(IntegrityError, match="record 2 is free"):
            MBTree.from_blob(bytes(blob))

    @pytest.mark.parametrize("seq", [0, 4, NIL])
    def test_a_seq_other_than_the_index_is_refused(self, seq):
        offset = HEADER_SIZE + 3 * mb_record_size(4) + 4
        with pytest.raises(IntegrityError, match="record 3 carries seq"):
            MBTree.from_blob(self.forged(offset, seq))

    def test_a_header_seq_other_than_allocated_is_refused(self):
        allocated = NodeStore.from_blob(build_tree(30).to_blob()).allocated
        with pytest.raises(IntegrityError, match="header seq"):
            MBTree.from_blob(self.forged(36, allocated + 1))

    def test_random_builds_load_and_hold_the_invariant(self):
        rng = random.Random(37)
        for trial in range(40):
            fanout = rng.randint(3, 16)
            n = rng.randint(1, 300)
            keys = rng.sample(range(10 * n), n) if trial % 2 else range(1, n + 1)
            tree = MBTree(fanout)
            for key in keys:
                tree.insert(key, sha3(b"%d" % key))
            clone = MBTree.from_blob(tree.to_blob())
            assert clone.to_blob() == tree.to_blob()
            store = clone.store.store
            assert int.from_bytes(store.blob[28:32], "big") == NIL
            assert store.seq == store.allocated


class TestChameleonBlobRoundTrip:
    def test_fields_survive(self):
        store = ChameleonStore.create(arity=2, value_bytes=16)
        store.root_commitment = 0xDEADBEEF
        for pos in range(1, 8):
            store.append(
                object_id=pos * 10,
                object_hash=sha3(b"o%d" % pos),
                commitment=1000 + pos,
                opening=2000 + pos,
            )
        # Each insertion replaces its parent's opening; the root's lives
        # in the header next to c_0.
        store.set_opening(0, 0xC0FFEE)
        store.set_opening(3, 3000)
        clone = ChameleonStore.from_blob(store.to_blob())
        assert clone.arity == 2
        assert clone.value_bytes == 16
        assert clone.count == 7
        assert clone.root_commitment == 0xDEADBEEF
        assert clone.opening(0) == 0xC0FFEE
        for pos in range(1, 8):
            assert clone.object_id(pos) == pos * 10
            assert clone.object_hash(pos) == sha3(b"o%d" % pos)
            assert clone.commitment(pos) == 1000 + pos
            assert clone.opening(pos) == (3000 if pos == 3 else 2000 + pos)
        # The SP tree over the same blob rebuilds its ID list from it.
        tree = ChameleonTreeSP.from_blob(store.to_blob())
        assert tree.ids == [pos * 10 for pos in range(1, 8)]
        assert tree.rank_of(35) == 3
        # A blob of the per-slot layout (one child-index byte and one
        # more element per record) is refused, not misread.
        with pytest.raises(IntegrityError):
            old = bytearray(store.to_blob())
            old[8:12] = (41 + 3 * 16).to_bytes(4, "big")
            ChameleonStore.from_blob(bytes(old))

    def test_kind_confusion_rejected(self):
        mb = build_tree(5).to_blob()
        with pytest.raises(IntegrityError):
            ChameleonStore.from_blob(mb)


class TestGoldenV1Layout:
    """The committed fixture pins the v1 record layout byte for byte.

    If this test fails after a layout change, bump
    :data:`~repro.core.nodestore.NODESTORE_VERSION`, teach
    ``from_blob`` to read the old layout, and regenerate the fixture —
    do not just refresh the bytes.
    """

    fixture = FIXTURES / "nodestore_v1_mbtree.bin"

    def test_fixture_loads_with_pinned_root(self):
        tree = MBTree.from_blob(self.fixture.read_bytes())
        assert NODESTORE_VERSION == 1
        assert tree.root_hash.hex() == GOLDEN_ROOT
        assert len(tree) == 10
        assert [e.key for e in tree.iter_entries()] == list(range(1, 11))

    def test_fresh_build_reproduces_fixture_bytes(self):
        assert build_tree(10).to_blob() == self.fixture.read_bytes()

    def test_fixture_header_fields(self):
        blob = self.fixture.read_bytes()
        store = NodeStore.from_blob(blob)
        assert blob[:4] == b"RNS1"
        assert int.from_bytes(blob[4:6], "big") == NODESTORE_VERSION
        assert store.kind == KIND_MBTREE
        assert store.record_size == mb_record_size(4)
        assert store.root != NIL
        assert len(blob) == HEADER_SIZE + store.allocated * store.record_size
