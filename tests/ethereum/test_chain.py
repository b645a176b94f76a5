"""Unit tests for the blockchain simulator."""

import pytest

from repro.core.mbtree import MBTree
from repro.crypto.hashing import EMPTY_DIGEST
from repro.errors import ChainError, IntegrityError, ReproError
from repro.ethereum.chain import Blockchain
from repro.ethereum.contract import SmartContract
from repro.ethereum.gas import GAS_TX, GAS_TXDATA_PER_BYTE
from repro.ethereum.storage import word_to_int


class Counter(SmartContract):
    """Minimal test contract: a stored counter plus a failing method."""

    def bump(self, by: int = 1) -> int:
        current = word_to_int(self.storage.load(("count",)))
        self.storage.store(("count",), current + by)
        self.emit("Bumped", by=by)
        return current + by

    def explode(self) -> None:
        raise IntegrityError("boom")

    def bump_then_crash(self) -> None:
        self.bump(5)
        raise ReproError("crashed after a write")

    def view_count(self) -> int:
        return self.storage.peek_int(("count",))


@pytest.fixture()
def chain():
    c = Blockchain()
    c.deploy("counter", Counter())
    return c


class TestDeployment:
    def test_duplicate_name_rejected(self, chain):
        with pytest.raises(ChainError):
            chain.deploy("counter", Counter())

    def test_unknown_contract(self, chain):
        with pytest.raises(ChainError):
            chain.contract("nope")


class TestTransactions:
    def test_successful_execution(self, chain):
        receipt = chain.send_transaction("alice", "counter", "bump", 2)
        assert receipt.status
        assert receipt.result == 2
        assert receipt.events[0].name == "Bumped"
        assert chain.call_view("counter", "view_count") == 2

    def test_base_and_payload_gas(self, chain):
        receipt = chain.send_transaction(
            "alice", "counter", "bump", payload=b"x" * 10
        )
        assert receipt.gas.by_operation["tx"] == GAS_TX
        assert receipt.gas.by_operation["txdata"] == 10 * GAS_TXDATA_PER_BYTE

    def test_nonces_increment(self, chain):
        r1 = chain.send_transaction("alice", "counter", "bump")
        r2 = chain.send_transaction("alice", "counter", "bump")
        r3 = chain.send_transaction("bob", "counter", "bump")
        assert r1.tx.nonce == 0
        assert r2.tx.nonce == 1
        assert r3.tx.nonce == 0

    def test_integrity_failure_yields_failed_receipt(self, chain):
        receipt = chain.send_transaction("alice", "counter", "explode")
        assert not receipt.status
        assert "boom" in receipt.error

    def test_any_other_error_reverts_storage_and_propagates(self, chain):
        chain.send_transaction("alice", "counter", "bump", 2)
        with pytest.raises(ReproError, match="crashed after a write"):
            chain.send_transaction("alice", "counter", "bump_then_crash")
        assert chain.call_view("counter", "view_count") == 2
        # No receipt was recorded and the nonce was not spent.
        assert len(chain.pending) == 1
        assert chain.send_transaction("alice", "counter", "bump").tx.nonce == 1
        assert chain.call_view("counter", "view_count") == 3

    def test_unknown_method(self, chain):
        with pytest.raises(ChainError):
            chain.send_transaction("alice", "counter", "no_such")

    def test_private_method_blocked(self, chain):
        with pytest.raises(ChainError):
            chain.send_transaction("alice", "counter", "_env")

    def test_gas_limit_aborts(self):
        chain = Blockchain(gas_limit=21_500)
        chain.deploy("counter", Counter())
        receipt = chain.send_transaction("a", "counter", "bump")
        assert not receipt.status
        assert "OutOfGasError" in receipt.error

    def test_view_guard(self, chain):
        with pytest.raises(ChainError):
            chain.call_view("counter", "bump")

    def test_contract_storage_sealed_outside_tx(self, chain):
        contract = chain.contract("counter")
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            contract.storage.load(("count",))
        with pytest.raises(StorageError):
            contract.env  # no active execution context


class TestBlocks:
    def test_mining_seals_pending(self, chain):
        chain.send_transaction("alice", "counter", "bump")
        chain.send_transaction("alice", "counter", "bump")
        block = chain.mine_block()
        assert len(block.receipts) == 2
        assert chain.pending == []
        assert chain.height == 1

    def test_chain_linkage_verifies(self, chain):
        for _ in range(3):
            chain.send_transaction("alice", "counter", "bump")
            chain.mine_block()
        assert chain.verify_chain()

    def test_tampering_breaks_linkage(self, chain):
        chain.send_transaction("alice", "counter", "bump")
        chain.mine_block()
        chain.send_transaction("alice", "counter", "bump")
        chain.mine_block()
        chain.blocks[1].header.timestamp += 1.0
        assert not chain.verify_chain()

    def test_proof_of_work_sealing(self):
        chain = Blockchain(seal_proof_of_work=True)
        chain.deploy("counter", Counter())
        chain.send_transaction("alice", "counter", "bump")
        block = chain.mine_block()
        digest = block.header.hash()
        assert int.from_bytes(digest[:4], "big") >> 24 == 0

    def test_total_gas_tracks_everything(self, chain):
        chain.send_transaction("alice", "counter", "bump")
        sealed_gas = chain.total_gas_used()
        chain.mine_block()
        assert chain.total_gas_used() == sealed_gas

    def test_receipt_lookup_by_digest(self, chain):
        receipt = chain.send_transaction("alice", "counter", "bump")
        assert chain.receipts_by_tx[receipt.tx.digest()] is receipt


def mined_tx_root(transactions):
    """The tx root of one block holding ``(sender, payload)`` calls."""
    chain = Blockchain()
    chain.deploy("counter", Counter())
    for sender, payload in transactions:
        chain.send_transaction(sender, "counter", "bump", payload=payload)
    return chain.mine_block().header.tx_root


class TestTxRoot:
    """The transaction root is an MB-tree root over the block's
    transaction digests, keyed by ordinal."""

    TXS = [
        ("alice", b"a"), ("bob", b"b"), ("carol", b"c"), ("dave", b"d"), ("erin", b"e"),
    ]

    def test_empty_block_keeps_the_empty_digest(self, chain):
        assert chain.mine_block().header.tx_root == EMPTY_DIGEST

    def test_root_of_the_ordinal_keyed_tree(self, chain):
        receipts = [
            chain.send_transaction(sender, "counter", "bump", payload=payload)
            for sender, payload in self.TXS
        ]
        tree = MBTree()
        for ordinal, receipt in enumerate(receipts):
            tree.insert(ordinal, receipt.tx.digest())
        assert chain.mine_block().header.tx_root == tree.root_hash

    def test_any_changed_digest_changes_the_root(self):
        root = mined_tx_root(self.TXS)
        for i, (sender, payload) in enumerate(self.TXS):
            changed = list(self.TXS)
            changed[i] = (sender, payload + b"!")
            assert mined_tx_root(changed) != root, i

    def test_reordering_changes_the_root(self):
        root = mined_tx_root(self.TXS)
        for i in range(len(self.TXS) - 1):
            swapped = list(self.TXS)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert mined_tx_root(swapped) != root, i
        assert mined_tx_root(self.TXS[::-1]) != root
