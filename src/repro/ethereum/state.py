"""Block-level state commitments for light-client reads.

The paper's client "retrieves the authenticated digests (VO_chain) from
the blockchain", implicitly trusting that read.  Full nodes get that
for free; *light* clients need the chain to commit to contract storage
so individual words can be verified against block headers.  This module
provides that commitment: an MB-tree over every contract's storage
words, keyed by the canonical digest of ``(contract, key)``, whose root
is sealed into each block header.

Reusing the MB-tree gives both proof directions, each one multiproof
table of the state tree read through
:func:`~repro.core.multiproof.open_table`:

* **presence** — the 1-leaf table of the slot's word;
* **absence** — the table of the slot's one or two neighbours (the
  tree's :meth:`~repro.core.mbtree.MBTree.boundaries`), whose gap counts
  show them adjacent — the same check the query layer makes for
  completeness, and what proves a keyword *has no digest on-chain* to a
  light client.

State tracking is opt-in (``Blockchain(track_state=True)``): rebuilding
the commitment every block is O(slots) and the gas experiments don't
need it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mbtree import MBTree
from repro.core.multiproof import TreeMultiproof, open_table
from repro.crypto.hashing import EMPTY_DIGEST, digests_equal, sha3
from repro.errors import ReproError, VerificationError

#: Slot keys are mapped into this many bits of MB-tree key space (the
#: MB-tree's wire format carries 8-byte keys; 63 bits keep the sign bit
#: clear).  Collision probability for even 10^6 slots is ~5e-8.
KEY_BITS = 63


def encode_storage_key(contract: str, key: tuple) -> bytes:
    """Canonical byte encoding of a ``(contract, storage-key)`` pair.

    Tuples nest; each component is length- and type-tagged so distinct
    keys can never collide byte-wise.
    """

    def encode_component(component) -> bytes:
        """Type-tagged, length-prefixed encoding of one component."""
        if isinstance(component, str):
            raw = component.encode("utf-8")
            return b"s" + len(raw).to_bytes(4, "big") + raw
        if isinstance(component, bool):  # before int: bool is an int
            return b"b" + (b"\x01" if component else b"\x00")
        if isinstance(component, int):
            raw = component.to_bytes(
                (component.bit_length() + 8) // 8 or 1, "big", signed=True
            )
            return b"i" + len(raw).to_bytes(4, "big") + raw
        if isinstance(component, bytes):
            return b"y" + len(component).to_bytes(4, "big") + component
        if isinstance(component, tuple):
            inner = b"".join(encode_component(c) for c in component)
            return b"t" + len(inner).to_bytes(4, "big") + inner
        raise ReproError(
            f"unsupported storage key component {type(component)!r}"
        )

    return encode_component((contract,) + key)


def storage_slot_id(contract: str, key: tuple) -> int:
    """The slot's position in the state tree's key space."""
    digest = sha3(b"state-slot" + encode_storage_key(contract, key))
    return int.from_bytes(digest[:8], "big") >> (64 - KEY_BITS)


def _word_hash(word: bytes) -> bytes:
    """The state tree's leaf value for a storage word."""
    return sha3(b"state-word" + word)


@dataclass(frozen=True)
class StorageProof:
    """Light-client proof for one storage slot at one block.

    For a *present* slot, ``word`` is its value and ``table`` the 1-leaf
    table of it.  For an *absent* (zero) slot, ``word`` is ``None`` and
    ``table`` holds the slot's neighbours in the state tree — ``None``
    when the state is empty.
    """

    contract: str
    key: tuple
    word: bytes | None  # None encodes a proven-absent slot
    table: TreeMultiproof | None = None

    def byte_size(self) -> int:
        """Serialised size in bytes."""
        return 64 + (self.table.byte_size() if self.table is not None else 0)


class StateCommitment:
    """The per-block state tree over every contract's storage words."""

    def __init__(self) -> None:
        self._tree = MBTree(fanout=4)
        self._words: dict[int, bytes] = {}

    @classmethod
    def build(cls, contracts: dict[str, object]) -> "StateCommitment":
        """Snapshot all contracts' storage into a fresh commitment."""
        commitment = cls()
        slots: list[tuple[int, bytes]] = []
        for name, contract in contracts.items():
            storage = contract.storage
            # Canonical byte order keeps the snapshot independent of the
            # contracts' storage insertion order.
            for key in sorted(
                storage.keys(), key=lambda k: encode_storage_key(name, k)
            ):
                slot = storage_slot_id(name, key)
                slots.append((slot, storage.peek(key)))
        for slot, word in sorted(slots):
            commitment._tree.insert(slot, _word_hash(word))
            commitment._words[slot] = word
        return commitment

    @property
    def root(self) -> bytes:
        """The structure's authenticated root digest."""
        return self._tree.root_hash

    def prove(self, contract: str, key: tuple) -> StorageProof:
        """Produce a presence or absence proof for one slot."""
        slot = storage_slot_id(contract, key)
        word = self._words.get(slot)
        if word is not None:
            keys = [slot]
        else:
            keys = [k for k in self._tree.boundaries(slot) if k is not None]
        table = self._tree.multiproof(keys) if keys else None
        return StorageProof(contract=contract, key=key, word=word, table=table)


def verify_storage_proof(state_root: bytes, proof: StorageProof) -> bytes:
    """Stateless light-client check; returns the proven word.

    An absent slot verifies to the zero word.  Raises
    :class:`VerificationError` when the proof does not bind the claimed
    slot to ``state_root``.
    """
    slot = storage_slot_id(proof.contract, proof.key)
    if proof.table is None:
        if proof.word is not None or not digests_equal(state_root, EMPTY_DIGEST):
            raise VerificationError("storage proof carries no table")
        return b"\x00" * 32
    run = open_table(proof.table, state_root, "state")
    if proof.word is not None:
        if run.keys != [slot] or not digests_equal(
            proof.table.leaves[0][1], _word_hash(proof.word)
        ):
            raise VerificationError("presence proof does not bind the word")
        return proof.word
    lower, _ = run.boundaries(slot)
    if lower == slot:
        raise VerificationError("absence claimed for a stored slot")
    run.settle()
    return b"\x00" * 32


class LightClient:
    """Verifies chain linkage and storage reads from headers alone."""

    def __init__(self, genesis_hash: bytes) -> None:
        self._head_hash = genesis_hash
        self._head_number = 0
        self._headers: dict[int, "object"] = {}

    def accept_header(self, header) -> None:
        """Follow the chain: each header must extend the current head."""
        if not digests_equal(header.parent_hash, self._head_hash):
            raise VerificationError("header does not extend the known head")
        if header.number != self._head_number + 1:
            raise VerificationError("non-consecutive header number")
        self._head_hash = header.hash()
        self._head_number = header.number
        self._headers[header.number] = header

    def read_storage(self, proof: StorageProof, block_number: int | None = None) -> bytes:
        """Verify a storage word against an accepted header."""
        number = block_number if block_number is not None else self._head_number
        header = self._headers.get(number)
        if header is None:
            raise VerificationError(f"no accepted header for block {number}")
        return verify_storage_proof(header.state_root, proof)
