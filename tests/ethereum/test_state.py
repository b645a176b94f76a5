"""Tests for block state commitments and light-client reads."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ChainError, VerificationError
from repro.ethereum.chain import Blockchain
from repro.ethereum.contract import SmartContract
from repro.ethereum.state import (
    LightClient,
    StateCommitment,
    encode_storage_key,
    storage_slot_id,
    verify_storage_proof,
)


class KV(SmartContract):
    """Minimal store contract for state tests."""

    def put(self, key: str, value: int) -> None:
        self.storage.store(("kv", key), value)

    def view_get(self, key: str) -> int:
        return self.storage.peek_int(("kv", key))


@pytest.fixture()
def chain():
    c = Blockchain(track_state=True)
    c.deploy("kv", KV())
    return c


class TestKeyEncoding:
    def test_distinct_keys_distinct_encodings(self):
        seen = set()
        keys = [
            ("a", ("x",)),
            ("a", ("x", 1)),
            ("a", (("x", 1),)),
            ("b", ("x",)),
            ("a", (1,)),
            ("a", (True,)),
            ("a", (b"x",)),
        ]
        for contract, key in keys:
            encoding = encode_storage_key(contract, key)
            assert encoding not in seen
            seen.add(encoding)

    def test_type_confusion_resistant(self):
        # str "1" vs int 1 vs bytes b"1" all differ.
        assert encode_storage_key("c", ("1",)) != encode_storage_key("c", (1,))
        assert encode_storage_key("c", (b"1",)) != encode_storage_key("c", ("1",))

    def test_rejects_unsupported_types(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            encode_storage_key("c", (3.14,))

    def test_slot_ids_deterministic(self):
        assert storage_slot_id("c", ("k",)) == storage_slot_id("c", ("k",))


class TestStateCommitment:
    def test_root_changes_with_state(self, chain):
        chain.send_transaction("a", "kv", "put", "x", 1)
        block1 = chain.mine_block()
        chain.send_transaction("a", "kv", "put", "y", 2)
        block2 = chain.mine_block()
        assert block1.header.state_root != block2.header.state_root

    def test_presence_proof(self, chain):
        chain.send_transaction("a", "kv", "put", "x", 7)
        block = chain.mine_block()
        proof = chain.prove_storage("kv", ("kv", "x"))
        word = verify_storage_proof(block.header.state_root, proof)
        assert int.from_bytes(word, "big") == 7

    def test_absence_proof(self, chain):
        chain.send_transaction("a", "kv", "put", "x", 7)
        block = chain.mine_block()
        proof = chain.prove_storage("kv", ("kv", "missing"))
        word = verify_storage_proof(block.header.state_root, proof)
        assert word == b"\x00" * 32

    def test_tampered_word_rejected(self, chain):
        chain.send_transaction("a", "kv", "put", "x", 7)
        block = chain.mine_block()
        proof = chain.prove_storage("kv", ("kv", "x"))
        forged = dataclasses.replace(proof, word=(99).to_bytes(32, "big"))
        with pytest.raises(VerificationError):
            verify_storage_proof(block.header.state_root, forged)

    def test_false_absence_rejected(self, chain):
        chain.send_transaction("a", "kv", "put", "x", 7)
        chain.send_transaction("a", "kv", "put", "y", 8)
        block = chain.mine_block()
        honest = chain.prove_storage("kv", ("kv", "x"))
        # Claim x is absent, reusing another slot's boundaries.
        absent = chain.prove_storage("kv", ("kv", "missing"))
        forged = dataclasses.replace(
            absent, contract="kv", key=("kv", "x"), word=None
        )
        with pytest.raises(VerificationError):
            verify_storage_proof(block.header.state_root, forged)
        # The honest presence proof still passes.
        verify_storage_proof(block.header.state_root, honest)

    def test_untracked_chain_refuses(self):
        chain = Blockchain(track_state=False)
        chain.deploy("kv", KV())
        chain.send_transaction("a", "kv", "put", "x", 1)
        chain.mine_block()
        with pytest.raises(ChainError):
            chain.prove_storage("kv", ("kv", "x"))

    def test_empty_state_absence(self):
        commitment = StateCommitment.build({})
        proof = commitment.prove("kv", ("kv", "x"))
        assert verify_storage_proof(commitment.root, proof) == b"\x00" * 32


class TestLightClient:
    def test_follows_headers_and_reads(self, chain):
        client = LightClient(genesis_hash=chain.blocks[0].header.hash())
        chain.send_transaction("a", "kv", "put", "x", 5)
        block1 = chain.mine_block()
        client.accept_header(block1.header)
        proof = chain.prove_storage("kv", ("kv", "x"))
        word = client.read_storage(proof)
        assert int.from_bytes(word, "big") == 5

    def test_rejects_forked_header(self, chain):
        client = LightClient(genesis_hash=chain.blocks[0].header.hash())
        chain.send_transaction("a", "kv", "put", "x", 5)
        block = chain.mine_block()
        forged = dataclasses.replace(block.header, timestamp=0.0)
        client.accept_header(block.header)
        with pytest.raises(VerificationError):
            client.accept_header(forged)

    def test_rejects_unknown_block(self, chain):
        client = LightClient(genesis_hash=chain.blocks[0].header.hash())
        chain.send_transaction("a", "kv", "put", "x", 5)
        chain.mine_block()
        proof = chain.prove_storage("kv", ("kv", "x"))
        with pytest.raises(VerificationError):
            client.read_storage(proof, block_number=4)


# -- properties: every proof is a table of the state tree ------------------------


def commitment_over(stored: dict[str, int]) -> StateCommitment:
    """A state holding ``stored`` under contract ``kv``."""
    contract = KV()
    for name, value in stored.items():
        contract.storage.poke(("kv", name), value)
    return StateCommitment.build({"kv": contract})


names = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(
    stored=st.dictionaries(names, st.integers(1, 2**64), max_size=40),
    absent=st.lists(names, max_size=10),
)
def test_storage_proofs_verify_to_the_model(stored, absent):
    """Present and absent probes alike verify to the model's word, a
    presence proof is the 1-leaf table and an absence proof the table
    of at most two neighbours."""
    commitment = commitment_over(stored)
    for name in list(stored) + absent:
        proof = commitment.prove("kv", ("kv", name))
        word = verify_storage_proof(commitment.root, proof)
        assert int.from_bytes(word, "big") == stored.get(name, 0)
        if name in stored:
            assert len(proof.table.leaves) == 1
        elif stored:
            assert 1 <= len(proof.table.leaves) <= 2
        else:
            assert proof.table is None


@settings(max_examples=40, deadline=None)
@given(
    stored=st.dictionaries(names, st.integers(1, 2**64), min_size=1, max_size=40),
    probes=st.lists(st.tuples(names, names), min_size=1, max_size=10),
)
def test_a_slots_proof_never_verifies_for_another(stored, probes):
    """Slot A's proof, relabelled as slot B's, is refused — except an
    absence proof whose gap holds B too, which then verifies to B's
    true (zero) word.  What a proof verifies to is always the model's
    word of the slot it claims; a presence proof claims one slot."""
    commitment = commitment_over(stored)
    for a, b in probes:
        if a == b:
            continue
        proof = commitment.prove("kv", ("kv", a))
        relabelled = dataclasses.replace(proof, key=("kv", b))
        if a in stored:
            with pytest.raises(VerificationError):
                verify_storage_proof(commitment.root, relabelled)
            forged = dataclasses.replace(proof, word=(stored[a] + 1).to_bytes(32, "big"))
            with pytest.raises(VerificationError):
                verify_storage_proof(commitment.root, forged)
            continue
        try:
            word = verify_storage_proof(commitment.root, relabelled)
        except VerificationError:
            continue
        assert b not in stored and word == b"\x00" * 32
