"""The Suppressed Merkle^inv index (Section IV).

Only each keyword MB-tree's *root hash* lives on-chain.  When the DO
appends an object, the SP constructs an update proof (``UpdVO``,
Algorithm 1) — the tree's right-most branch — and sends it to the smart
contract, which (Algorithm 2):

1. reconstructs the pre-insertion root from the ``UpdVO`` and compares
   it with the stored root (integrity of the SP's proof);
2. checks the inserted object's hash against the one the DO registered;
3. recomputes the post-insertion root in memory, handling leaf and
   internal node splits, and stores it with a single ``C_supdate``.

The logarithmic work is all cheap (``C_txdata``/``C_hash``/``C_mem``);
the expensive storage operations are constant per keyword — the
``O(L*C_1 + L*C_2*log n)`` row of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.mbtree import (
    DEFAULT_FANOUT,
    UpdateSpine,
    compute_updated_root,
    entry_payload,
    reconstruct_root,
)
from repro.crypto.hashing import digests_equal, word_count
from repro.errors import IntegrityError
from repro.ethereum.contract import SmartContract


@dataclass(frozen=True)
class KeywordUpdate:
    """One keyword's ``UpdVO`` inside the SP's update transaction."""

    keyword: str
    spine_bytes: bytes

    def payload_size(self) -> int:
        """Wire size of this keyword update in bytes."""
        return len(self.keyword.encode("utf-8")) + 1 + len(self.spine_bytes)


def gen_spines(
    trees, object_id: int, keywords: tuple[str, ...] | list[str]
) -> list[UpdateSpine]:
    """Algorithm 1 for every keyword, against the trees held here.

    ``trees`` maps keyword -> tree through ``get`` (absent keywords get
    the empty spine).  Runs wherever the trees live: in-process, or
    inside an affine shard worker.
    """
    spines = []
    for keyword in keywords:
        tree = trees.get(keyword)
        spines.append(
            tree.gen_update_proof(object_id)
            if tree is not None
            else UpdateSpine(internal_levels=(), leaf_entries=())
        )
    return spines


def build_updates(
    trees, object_id: int, keywords: tuple[str, ...]
) -> list[KeywordUpdate]:
    """SP side: run Algorithm 1 for every keyword of the new object.

    Must be called *before* the SP applies the insertion to its mirror
    trees (the spine describes the pre-insertion state).  ``trees`` is a
    keyword -> tree mapping, or the SP front-end's routed mapping, whose
    ``spines`` extracts them next to the trees.
    """
    batched = getattr(trees, "spines", None)
    spines = (
        batched(object_id, keywords)
        if batched is not None
        else gen_spines(trees, object_id, keywords)
    )
    return [
        KeywordUpdate(keyword=keyword, spine_bytes=spine.serialise())
        for keyword, spine in zip(keywords, spines)
    ]


class SuppressedMerkleContract(SmartContract):
    """On-chain side of the Suppressed Merkle^inv index."""

    def __init__(self, fanout: int = DEFAULT_FANOUT) -> None:
        super().__init__()
        self.fanout = fanout

    def register_object(
        self, object_id: int, object_hash: bytes, keywords: tuple[str, ...]
    ) -> None:
        """DO entry point: record the object's meta-data hash."""
        with obs.span("maintain.smi.register", keywords=len(keywords)):
            self.env.read_calldata(object_hash)
            self.storage.store(("objhash", object_id), object_hash)
            self.emit("ObjectRegistered", object_id=object_id)

    def insert(
        self,
        object_id: int,
        object_hash: bytes,
        updates: list[KeywordUpdate],
    ) -> None:
        """SP entry point: Algorithm 2 for every keyword's ``UpdVO``."""
        with obs.span("maintain.smi.insert", keywords=len(updates)):
            self._insert(object_id, object_hash, updates)

    def _insert(
        self,
        object_id: int,
        object_hash: bytes,
        updates: list[KeywordUpdate],
    ) -> None:
        registered = self.storage.load(("objhash", object_id))
        if not digests_equal(registered, object_hash):
            self.emit("InvalidUpdVO", object_id=object_id, reason="hash")
            raise IntegrityError(
                "object hash in UpdVO does not match the DO's registration"
            )
        new_entry = self._hash(entry_payload(object_id, object_hash))
        for update in updates:
            spine = UpdateSpine.deserialise(
                self.env.read_calldata(update.spine_bytes)
            )
            stored_root = self.storage.load(("root", update.keyword))
            # An absent keyword reads as the zero word, which equals the
            # EMPTY_DIGEST an empty spine reconstructs to.
            old_root = reconstruct_root(spine, hash_fn=self._hash)
            if not digests_equal(old_root, stored_root):
                self.emit(
                    "InvalidUpdVO",
                    object_id=object_id,
                    keyword=update.keyword,
                )
                raise IntegrityError(
                    f"UpdVO for keyword {update.keyword!r} does not match "
                    "the stored root hash"
                )
            new_root = compute_updated_root(
                spine, new_entry, self.fanout, hash_fn=self._hash
            )
            self.storage.store(("root", update.keyword), new_root)
        self.emit(
            "SuccessfulUpdate", object_id=object_id, keywords=len(updates)
        )

    def _hash(self, payload: bytes) -> bytes:
        """Metered hash: ``C_mem`` to stage the words, ``C_hash`` to digest."""
        self.env.touch_memory(word_count(payload))
        return self.env.keccak(payload)

    # -- free views --------------------------------------------------------------

    def view_root(self, keyword: str) -> bytes:
        """Free view: the keyword tree's on-chain root hash."""
        return self.storage.peek(("root", keyword))

    def view_object_hash(self, object_id: int) -> bytes:
        """Free view: the registered hash of one object."""
        return self.storage.peek(("objhash", object_id))


def updates_payload(updates: list[KeywordUpdate]) -> bytes:
    """Wire bytes of the SP's update transaction (``C_txdata``)."""
    chunks = []
    for update in updates:
        encoded_kw = update.keyword.encode("utf-8")
        chunks.append(len(encoded_kw).to_bytes(1, "big"))
        chunks.append(encoded_kw)
        chunks.append(len(update.spine_bytes).to_bytes(2, "big"))
        chunks.append(update.spine_bytes)
    return b"".join(chunks)
