"""Unit tests for the four ADS smart contracts."""

import hashlib
import random

import pytest

from repro.core.chameleon_index import (
    ChameleonContract,
    CountUpdate,
    commitment_to_words,
    words_to_commitment,
)
from repro.core.chameleon_star import ChameleonStarContract
from repro.core.mbtree import MBTree
from repro.core.merkle_inv import MerkleInvContract
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.suppressed import (
    KeywordUpdate,
    SuppressedMerkleContract,
    build_updates,
    updates_payload,
)
from repro.crypto.bloom import BloomFilterChain
from repro.crypto.hashing import sha3
from repro.ethereum.chain import Blockchain
from repro.ethereum.contract import SmartContract
from repro.ethereum.vm import ExecutionContext


def make_chain(name, contract):
    chain = Blockchain()
    chain.deploy(name, contract)
    return chain


def metadata_for(oid, keywords):
    return ObjectMetadata.of(DataObject(oid, keywords, b"c%d" % oid))


class TestMerkleInvContract:
    def test_root_matches_reference_tree(self):
        chain = make_chain("mi", MerkleInvContract(fanout=4))
        reference = MBTree(fanout=4)
        for oid in range(1, 40):
            md = metadata_for(oid, ("kw",))
            receipt = chain.send_transaction(
                "do", "mi", "register_and_insert",
                md.object_id, md.object_hash, md.keywords,
                payload=md.payload_bytes(),
            )
            assert receipt.status
            reference.insert(md.object_id, md.object_hash)
            assert chain.call_view("mi", "view_root", "kw") == reference.root_hash

    def test_gas_grows_with_tree_size(self):
        chain = make_chain("mi", MerkleInvContract())
        early, late = 0, 0
        for oid in range(1, 101):
            md = metadata_for(oid, ("kw",))
            receipt = chain.send_transaction(
                "do", "mi", "register_and_insert",
                md.object_id, md.object_hash, md.keywords,
                payload=md.payload_bytes(),
            )
            if oid <= 10:
                early += receipt.gas.total
            if oid > 90:
                late += receipt.gas.total
        assert late > early  # logarithmic growth in n

    def test_object_hash_registered(self):
        chain = make_chain("mi", MerkleInvContract())
        md = metadata_for(1, ("a",))
        chain.send_transaction(
            "do", "mi", "register_and_insert",
            md.object_id, md.object_hash, md.keywords,
            payload=md.payload_bytes(),
        )
        assert chain.call_view("mi", "view_object_hash", 1) == md.object_hash

    def test_write_gas_dominates(self):
        chain = make_chain("mi", MerkleInvContract())
        md = metadata_for(1, ("a", "b"))
        receipt = chain.send_transaction(
            "do", "mi", "register_and_insert",
            md.object_id, md.object_hash, md.keywords,
            payload=md.payload_bytes(),
        )
        assert receipt.gas.write_gas > receipt.gas.other_gas


class TestSuppressedContract:
    def _insert(self, chain, trees, oid, keywords):
        md = metadata_for(oid, keywords)
        chain.send_transaction(
            "do", "smi", "register_object",
            md.object_id, md.object_hash, md.keywords,
            payload=md.payload_bytes(),
        )
        updates = build_updates(trees, md.object_id, md.keywords)
        receipt = chain.send_transaction(
            "sp", "smi", "insert",
            md.object_id, md.object_hash, updates,
            payload=updates_payload(updates),
        )
        for kw in md.keywords:
            trees.setdefault(kw, MBTree(4)).insert(md.object_id, md.object_hash)
        return receipt

    def test_root_tracks_sp_tree(self):
        chain = make_chain("smi", SuppressedMerkleContract(fanout=4))
        trees: dict[str, MBTree] = {}
        for oid in range(1, 60):
            receipt = self._insert(chain, trees, oid, ("kw",))
            assert receipt.status, receipt.error
            assert (
                chain.call_view("smi", "view_root", "kw")
                == trees["kw"].root_hash
            )

    def test_multiple_keywords_one_tx(self):
        chain = make_chain("smi", SuppressedMerkleContract(fanout=4))
        trees: dict[str, MBTree] = {}
        receipt = self._insert(chain, trees, 1, ("a", "b", "c"))
        assert receipt.status
        for kw in ("a", "b", "c"):
            assert chain.call_view("smi", "view_root", kw) == trees[kw].root_hash

    def test_unregistered_hash_rejected(self):
        chain = make_chain("smi", SuppressedMerkleContract(fanout=4))
        md = metadata_for(1, ("kw",))
        updates = build_updates({}, 1, ("kw",))
        receipt = chain.send_transaction(
            "sp", "smi", "insert", 1, md.object_hash, updates,
            payload=updates_payload(updates),
        )
        assert not receipt.status
        assert "IntegrityError" in receipt.error

    def test_tampered_spine_rejected(self):
        chain = make_chain("smi", SuppressedMerkleContract(fanout=4))
        trees: dict[str, MBTree] = {}
        self._insert(chain, trees, 1, ("kw",))
        # Attempt insert of object 2 with a forged spine.
        md = metadata_for(2, ("kw",))
        chain.send_transaction(
            "do", "smi", "register_object",
            md.object_id, md.object_hash, md.keywords,
            payload=md.payload_bytes(),
        )
        forged = KeywordUpdate(
            keyword="kw",
            spine_bytes=b"\x00\x01" + sha3(b"forged"),
        )
        receipt = chain.send_transaction(
            "sp", "smi", "insert", 2, md.object_hash, [forged],
            payload=updates_payload([forged]),
        )
        assert not receipt.status
        assert "IntegrityError" in receipt.error

    def test_storage_cost_constant_per_keyword(self):
        """The expensive ops must not grow with n (Table II)."""
        chain = make_chain("smi", SuppressedMerkleContract(fanout=4))
        trees: dict[str, MBTree] = {}
        writes = []
        for oid in range(1, 80):
            receipt = self._insert(chain, trees, oid, ("kw",))
            writes.append(receipt.gas.write_gas)
        # After the first insert (sstore), every root write is supdate.
        assert set(writes[1:]) == {5_000}


class TestChameleonContract:
    def test_setup_and_counts(self):
        chain = make_chain("ci", ChameleonContract(value_bytes=64))
        md = metadata_for(1, ("kw",))
        receipt = chain.send_transaction(
            "do", "ci", "insert_object",
            md.object_id, md.object_hash,
            [CountUpdate(keyword="kw", count=1)],
            [("kw", 0xABCDEF)],
            payload=b"x" * 50,
        )
        assert receipt.status
        commitment, count = chain.call_view("ci", "view_digest", "kw")
        assert commitment == 0xABCDEF
        assert count == 1

    def test_unknown_keyword_digest(self):
        chain = make_chain("ci", ChameleonContract())
        assert chain.call_view("ci", "view_digest", "nope") == (None, 0)

    def test_count_updates_are_supdates(self):
        chain = make_chain("ci", ChameleonContract(value_bytes=64))
        md = metadata_for(1, ("kw",))
        chain.send_transaction(
            "do", "ci", "insert_object", 1, md.object_hash,
            [CountUpdate("kw", 1)], [("kw", 5)], payload=b"",
        )
        md2 = metadata_for(2, ("kw",))
        receipt = chain.send_transaction(
            "do", "ci", "insert_object", 2, md2.object_hash,
            [CountUpdate("kw", 2)], [], payload=b"",
        )
        # Steady state: count update (supdate) + fresh objhash (sstore).
        assert receipt.gas.by_operation["supdate"] == 5_000
        assert receipt.gas.by_operation["sstore"] == 20_000

    def test_commitment_word_roundtrip(self):
        value = 0x1234567890ABCDEF << 256
        words = commitment_to_words(value, 64)
        assert len(words) == 2
        assert words_to_commitment(words) == value


class TestChameleonStarContract:
    def test_bloom_snapshot_matches_mirror(self):
        chain = make_chain("cis", ChameleonStarContract(
            value_bytes=64, bloom_capacity=3))
        mirror = BloomFilterChain(capacity=3)
        for oid in range(1, 11):
            md = metadata_for(oid, ("kw",))
            new = [("kw", 7)] if oid == 1 else []
            receipt = chain.send_transaction(
                "do", "cis", "insert_object", oid, md.object_hash,
                [CountUpdate("kw", oid)], new, payload=b"",
            )
            assert receipt.status
            mirror.add(oid)
        snapshot = chain.call_view("cis", "view_bloom_snapshot", "kw")
        assert snapshot == mirror.snapshot()
        rebuilt = BloomFilterChain.from_snapshot(snapshot, capacity=3)
        for oid in range(1, 11):
            assert not rebuilt.definitely_absent(oid)

    def test_bloom_params_view(self):
        chain = make_chain("cis", ChameleonStarContract(bloom_capacity=30))
        assert chain.call_view("cis", "view_bloom_params") == (256, 30)

    def test_filter_maintenance_cost_constant(self):
        chain = make_chain("cis", ChameleonStarContract(
            value_bytes=64, bloom_capacity=30))
        gas_per_insert = []
        for oid in range(1, 40):
            md = metadata_for(oid, ("kw",))
            new = [("kw", 7)] if oid == 1 else []
            receipt = chain.send_transaction(
                "do", "cis", "insert_object", oid, md.object_hash,
                [CountUpdate("kw", oid)], new, payload=b"",
            )
            gas_per_insert.append(receipt.gas.total)
        # Steady-state inserts (no new filter) cost the same regardless of n.
        steady = [
            g for i, g in enumerate(gas_per_insert[1:], start=2)
            if (i - 1) % 30 != 0
        ]
        assert max(steady) == min(steady)


class TestEveryDigestIsMetered:
    """Inside a call of the SMI contract every digest goes
    through ``env.keccak``: hashing in plain Python there is work the gas
    meter never sees."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        """Digests computed inside contract calls, and the metered ones."""
        counts = {"inside": False, "digests": 0, "metered": 0}
        real_sha3 = hashlib.sha3_256

        def sha3_256(*args, **kwargs):
            counts["digests"] += counts["inside"]
            return real_sha3(*args, **kwargs)

        def metered(method):
            def wrapper(self, *args):
                counts["metered"] += 1
                return method(self, *args)

            return wrapper

        bind = SmartContract.bind

        def binding(self, env):
            counts["inside"] = env is not None
            bind(self, env)

        monkeypatch.setattr(hashlib, "sha3_256", sha3_256)
        monkeypatch.setattr(ExecutionContext, "keccak", metered(ExecutionContext.keccak))
        monkeypatch.setattr(
            ExecutionContext, "keccak_concat", metered(ExecutionContext.keccak_concat)
        )
        monkeypatch.setattr(SmartContract, "bind", binding)
        return counts

    def test_smi_contract(self, counts):
        chain = make_chain("smi", SuppressedMerkleContract(fanout=4))
        trees = {}
        for oid in range(1, 40):
            md = metadata_for(oid, ("a", "b") if oid % 3 else ("a",))
            chain.send_transaction(
                "do", "smi", "register_object",
                md.object_id, md.object_hash, md.keywords, payload=b"",
            )
            updates = build_updates(trees, oid, md.keywords)
            receipt = chain.send_transaction(
                "sp", "smi", "insert", oid, md.object_hash, updates,
                payload=updates_payload(updates),
            )
            assert receipt.status
            for keyword in md.keywords:
                trees.setdefault(keyword, MBTree(fanout=4)).insert(oid, md.object_hash)
        assert counts["metered"] > 0
        assert counts["digests"] == counts["metered"]
