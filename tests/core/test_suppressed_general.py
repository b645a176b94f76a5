"""Tests for the generalised (non-monotonic-key) suppressed updates."""

import dataclasses
import random
from bisect import bisect_right

import pytest

from repro.core.mbtree import MBTree
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.suppressed_general import (
    GeneralSuppressedContract,
    GeneralUpdateProof,
    generate_general_update,
    verify_and_update_root,
)
from repro.crypto.hashing import EMPTY_DIGEST, sha3
from repro.errors import IntegrityError, ReproError
from repro.ethereum.chain import Blockchain


def value_of(key: int) -> bytes:
    return sha3(b"v%d" % key)


class TestRootEquivalence:
    @pytest.mark.parametrize("fanout", [3, 4, 6])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_insertion_orders(self, fanout, seed):
        """Predicted root == actual root for arbitrary key orders."""
        rng = random.Random(seed)
        keys = rng.sample(range(10_000), 120)
        tree = MBTree(fanout=fanout)
        root = EMPTY_DIGEST
        for key in keys:
            proof = generate_general_update(tree, key)
            predicted = verify_and_update_root(
                proof, key, value_of(key), root, fanout
            )
            tree.insert(key, value_of(key))
            assert predicted == tree.root_hash, key
            root = predicted

    def test_monotonic_orders_still_work(self):
        tree = MBTree(fanout=4)
        root = EMPTY_DIGEST
        for key in range(60):
            proof = generate_general_update(tree, key)
            root = verify_and_update_root(proof, key, value_of(key), root, 4)
            tree.insert(key, value_of(key))
            assert root == tree.root_hash

    def test_descending_orders(self):
        tree = MBTree(fanout=4)
        root = EMPTY_DIGEST
        for key in range(60, 0, -1):
            proof = generate_general_update(tree, key)
            root = verify_and_update_root(proof, key, value_of(key), root, 4)
            tree.insert(key, value_of(key))
            assert root == tree.root_hash

    def test_duplicate_rejected_sp_side(self):
        tree = MBTree(fanout=4)
        tree.insert(5, value_of(5))
        with pytest.raises(ReproError):
            generate_general_update(tree, 5)


def build_tree(keys, fanout=4):
    tree = MBTree(fanout=fanout)
    for key in keys:
        tree.insert(key, value_of(key))
    return tree


class TestOrderingEnforcement:
    def test_wrong_leaf_rejected(self):
        """Routing an insertion into the wrong leaf must fail on-chain."""
        tree = build_tree(range(0, 100, 5))  # several leaves
        # Build a proof for key 7 (belongs near the start), then try to
        # use it for key 93 (belongs near the end).
        proof = generate_general_update(tree, 7)
        with pytest.raises(IntegrityError):
            verify_and_update_root(
                proof, 93, value_of(93), tree.root_hash, 4
            )

    def test_tampered_leaf_entry_rejected(self):
        tree = build_tree(range(0, 40, 3))
        proof = generate_general_update(tree, 10)
        forged = dataclasses.replace(
            proof,
            leaf_entries=proof.leaf_entries[:-1],
        )
        with pytest.raises(IntegrityError):
            verify_and_update_root(forged, 10, value_of(10), tree.root_hash, 4)

    def _leaf_front_proof(self, tree, keys):
        """Craft a proof placing a key at the FRONT of a middle leaf — a
        valid alternative to the standard descent's end-of-previous-leaf
        placement, reachable only with neighbour evidence.  Scans for a
        between-leaves gap whose successor is a leaf's first entry; the
        gap's bracketing keys come from ``bisect`` over ``keys``.
        """
        ordered = sorted(keys)
        for between_key in range(1, 99):
            rank = bisect_right(ordered, between_key)
            if rank in (0, len(ordered)) or ordered[rank - 1] == between_key:
                continue
            lower, upper = ordered[rank - 1], ordered[rank]
            probe = generate_general_update(tree, upper + 1)
            if probe.leaf_entries[0].key != upper:
                continue
            return (
                dataclasses.replace(
                    probe,
                    insert_index=0,
                    neighbour=tree.multiproof([lower, upper]),
                ),
                between_key,
                lower,
            )
        pytest.skip("tree shape exposes no leaf-front slot")

    def test_leaf_front_placement_with_predecessor_accepted(self):
        tree = build_tree(range(0, 100, 5))
        proof, key, _ = self._leaf_front_proof(tree, range(0, 100, 5))
        new_root = verify_and_update_root(
            proof, key, value_of(key), tree.root_hash, 4
        )
        assert new_root != tree.root_hash

    def test_missing_predecessor_rejected(self):
        """Edge insertion into a middle leaf needs neighbour evidence."""
        tree = build_tree(range(0, 100, 5))
        proof, key, _ = self._leaf_front_proof(tree, range(0, 100, 5))
        forged = dataclasses.replace(proof, neighbour=None)
        with pytest.raises(IntegrityError):
            verify_and_update_root(
                forged, key, value_of(key), tree.root_hash, 4
            )

    def test_non_adjacent_predecessor_rejected(self):
        tree = build_tree(range(0, 100, 5))
        proof, key, lower = self._leaf_front_proof(tree, range(0, 100, 5))
        # Swap in an earlier (verified but non-adjacent) predecessor.
        earlier = [k for k in range(0, 100, 5) if k < lower]
        if not earlier:
            pytest.skip("no earlier entry available")
        first = proof.leaf_entries[0].key
        forged = dataclasses.replace(
            proof, neighbour=tree.multiproof([earlier[0], first])
        )
        with pytest.raises(IntegrityError, match="wrong leaf"):
            verify_and_update_root(
                forged, key, value_of(key), tree.root_hash, 4
            )

    def test_neighbour_of_another_leaf_rejected(self):
        """Honest, adjacent evidence about the wrong pair of entries:
        the table must end at the target leaf's own edge entry."""
        tree = build_tree(range(0, 100, 5))
        proof, key, lower = self._leaf_front_proof(tree, range(0, 100, 5))
        elsewhere = tree.multiproof([lower - 10, lower - 5])
        forged = dataclasses.replace(proof, neighbour=elsewhere)
        with pytest.raises(IntegrityError):
            verify_and_update_root(
                forged, key, value_of(key), tree.root_hash, 4
            )

    def test_successor_evidence_is_the_table_of_the_edge_pair(self):
        tree = build_tree(range(0, 100, 5))
        proof = generate_general_update(tree, 11)
        edge = proof.leaf_entries[-1].key
        assert proof.insert_index == len(proof.leaf_entries)
        assert [key for key, _ in proof.neighbour.leaves] == [edge, 15]
        assert proof.byte_size() == (
            4
            + sum(1 + 32 * len(digests) for _, digests in proof.levels)
            + 40 * len(proof.leaf_entries)
            + proof.neighbour.byte_size()
        )

    def test_stale_root_rejected(self):
        tree = build_tree(range(10))
        proof = generate_general_update(tree, 100)
        tree.insert(50, value_of(50))
        with pytest.raises(IntegrityError):
            verify_and_update_root(proof, 100, value_of(100), tree.root_hash, 4)

    def test_empty_proof_against_nonempty_root(self):
        tree = build_tree(range(5))
        empty = GeneralUpdateProof(levels=(), leaf_entries=(), insert_index=0)
        with pytest.raises(IntegrityError):
            verify_and_update_root(empty, 9, value_of(9), tree.root_hash, 4)


class TestGeneralSuppressedContract:
    def test_end_to_end_random_keys(self):
        chain = Blockchain()
        contract = GeneralSuppressedContract(fanout=4)
        chain.deploy("gsmi", contract)
        tree = MBTree(fanout=4)
        rng = random.Random(9)
        keys = rng.sample(range(1000), 50)
        for object_id, key in enumerate(keys, start=1):
            metadata = ObjectMetadata.of(
                DataObject(object_id, ("kw",), b"c%d" % object_id)
            )
            chain.send_transaction(
                "do", "gsmi", "register_object",
                metadata.object_id, metadata.object_hash,
                payload=metadata.payload_bytes(),
            )
            proof = generate_general_update(tree, key)
            receipt = chain.send_transaction(
                "sp", "gsmi", "insert",
                "idx", key, metadata.object_id, metadata.object_hash, proof,
                payload=b"\x00" * proof.byte_size(),
            )
            assert receipt.status, receipt.error
            tree.insert(key, metadata.object_hash)
            assert chain.call_view("gsmi", "view_root", "idx") == tree.root_hash

    def test_bad_registration_rejected(self):
        chain = Blockchain()
        chain.deploy("gsmi", GeneralSuppressedContract(fanout=4))
        tree = MBTree(fanout=4)
        proof = generate_general_update(tree, 1)
        receipt = chain.send_transaction(
            "sp", "gsmi", "insert", "idx", 1, 99, sha3(b"unregistered"), proof,
            payload=b"",
        )
        assert not receipt.status
        assert "IntegrityError" in receipt.error

    def test_storage_writes_constant(self):
        """Only the root word is written per insertion (suppressed)."""
        chain = Blockchain()
        chain.deploy("gsmi", GeneralSuppressedContract(fanout=4))
        tree = MBTree(fanout=4)
        writes = []
        for object_id, key in enumerate((5, 2, 9, 1, 7, 3), start=1):
            metadata = ObjectMetadata.of(
                DataObject(object_id, ("kw",), b"c%d" % object_id)
            )
            chain.send_transaction(
                "do", "gsmi", "register_object",
                metadata.object_id, metadata.object_hash,
                payload=metadata.payload_bytes(),
            )
            proof = generate_general_update(tree, key)
            receipt = chain.send_transaction(
                "sp", "gsmi", "insert",
                "idx", key, metadata.object_id, metadata.object_hash, proof,
                payload=b"",
            )
            assert receipt.status
            tree.insert(key, metadata.object_hash)
            writes.append(receipt.gas.write_gas)
        assert set(writes[1:]) == {5_000}  # one supdate of the root word
