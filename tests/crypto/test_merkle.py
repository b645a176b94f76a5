"""Unit tests for the binary Merkle hash tree."""

import pytest

from repro.crypto import merkle
from repro.crypto.hashing import EMPTY_DIGEST


class TestEmptyTree:
    def test_root_is_empty_digest(self):
        assert merkle.MerkleTree().root == EMPTY_DIGEST

    def test_len(self):
        assert len(merkle.MerkleTree()) == 0


def reference_path(payloads, index):
    """Sibling digests and sides from leaf ``index`` up, rebuilt from
    the payloads alone (odd levels duplicate their last digest)."""
    level = [merkle.leaf_hash(p) for p in payloads]
    path = []
    while len(level) > 1:
        sibling = index ^ 1 if index ^ 1 < len(level) else index
        path.append((level[sibling], index % 2 == 1))
        level = [
            merkle.node_hash(level[i], level[min(i + 1, len(level) - 1)])
            for i in range(0, len(level), 2)
        ]
        index //= 2
    return path


def fold(payload, path):
    current = merkle.leaf_hash(payload)
    for sibling, on_left in path:
        current = merkle.node_hash(sibling, current) if on_left else merkle.node_hash(current, sibling)
    return current


class TestProofs:
    """The root commits every payload at its index: a path rebuilt from
    the payloads alone folds to it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 16, 33])
    def test_all_leaves_provable(self, n):
        payloads = [b"leaf-%d" % i for i in range(n)]
        tree = merkle.MerkleTree(payloads)
        for i, payload in enumerate(payloads):
            assert fold(payload, reference_path(payloads, i)) == tree.root

    def test_wrong_payload_fails(self):
        payloads = [b"a", b"b", b"c"]
        tree = merkle.MerkleTree(payloads)
        assert fold(b"tampered", reference_path(payloads, 1)) != tree.root

    def test_wrong_index_proof_fails(self):
        payloads = [b"a", b"b", b"c", b"d"]
        tree = merkle.MerkleTree(payloads)
        assert fold(b"a", reference_path(payloads, 1)) != tree.root


class TestAppend:
    def test_append_changes_root(self):
        tree = merkle.MerkleTree([b"a"])
        root_before = tree.root
        index = tree.append(b"b")
        assert index == 1
        assert tree.root != root_before

    def test_old_proofs_invalid_after_append(self):
        tree = merkle.MerkleTree([b"a", b"b"])
        path = reference_path([b"a", b"b"], 0)
        old_root = tree.root
        tree.append(b"c")
        assert fold(b"a", path) == old_root
        assert fold(b"a", path) != tree.root


class TestDomainSeparation:
    def test_leaf_vs_node(self):
        digest = merkle.leaf_hash(b"x")
        # A single-leaf tree's root is the leaf hash, not a node hash.
        tree = merkle.MerkleTree([b"x"])
        assert tree.root == digest
        assert merkle.node_hash(digest, digest) != digest

    def test_second_preimage_structure(self):
        # An inner node's children cannot be replayed as a leaf payload.
        tree = merkle.MerkleTree([b"a", b"b", b"c", b"d"])
        left = merkle.leaf_hash(b"a")
        right = merkle.leaf_hash(b"b")
        forged_payload = left + right
        assert merkle.leaf_hash(forged_payload) != merkle.node_hash(left, right)
