"""Suppressed MB-tree maintenance for NON-monotonic keys.

Section IX lists, as future work, extending the suppressed-index idea
to "objects [whose keys] are not monotonically increment".  For the
*Chameleon* tree this is genuinely hard — a key-ordered linked list
threaded through CVC slots is insecure because trapdoor commitments
admit *stale openings*: after the DO re-points a predecessor's
successor slot, the old opening still verifies, so a malicious SP could
present the pre-update pointer and hide results (see DESIGN.md §5b).

For the *Suppressed Merkle* index, however, the extension is sound and
is implemented here.  The SP's update proof is the full insertion path,
:meth:`~repro.core.mbtree.MBTree.update_path` — of which Algorithm 1's
right-most spine is the append case — and the smart contract enforces,
entirely with cheap memory/hash operations, that:

1. the insertion lands at the *key-correct* position: within the leaf,
   neighbours bracket the key; at a leaf edge the proof carries one
   multiproof table over the tree's entry on the other side and the
   leaf's edge entry, which the contract folds to the stored root with
   its metered hash and whose gap counts must show the two adjacent, so
   the SP cannot route the insertion into a wrong leaf and later hide
   results behind a misordered tree;
2. the path folds to the stored root (integrity of the proof), and the
   same fold (:func:`~repro.core.mbtree.fold_update`, shared with the
   append-only contract) yields the new root, with ``ceil((F+1)/2)``
   splits cascading up the path; it replaces the stored root with a
   single ``C_supdate``.

Why the table pins the target leaf: it names the edge entry by key, not
by position.  The contract only ever accepts key-correct insertions of
new keys into a tree that starts empty, so by induction the committed
keys are sorted and unique — the entry with that key *is* the leaf's
edge entry, and its neighbour in the table is the leaf's neighbour in
the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mbtree import (
    DEFAULT_FANOUT,
    Entry,
    HashFn,
    MBTree,
    entry_payload,
    fold_update,
)
from repro.core.multiproof import TreeMultiproof, open_table
from repro.crypto.hashing import digests_equal, sha3, word_count
from repro.errors import IntegrityError, VerificationError
from repro.ethereum.contract import SmartContract


@dataclass(frozen=True)
class GeneralUpdateProof:
    """The generalised ``UpdVO``: the full insertion path.

    An :class:`~repro.core.mbtree.UpdatePath` on the wire: ``levels``
    lists, top-down, each internal node on the path as
    ``(followed_child_index, all_child_digests)`` (the fold recomputes
    the followed child's own digest); ``leaf_entries`` holds the target
    leaf's complete entries (keys included, so the contract can check
    ordering); ``insert_index`` is where the new key goes.
    ``neighbour`` is required exactly when the insertion touches the
    leaf's edge and the tree extends beyond it: the table over the entry
    across that edge and the leaf's edge entry.
    """

    levels: tuple[tuple[int, tuple[bytes, ...]], ...]
    leaf_entries: tuple[Entry, ...]
    insert_index: int
    neighbour: TreeMultiproof | None = None

    def byte_size(self) -> int:
        """Serialised size in bytes."""
        total = 4
        for _, digests in self.levels:
            total += 1 + 32 * len(digests)
        total += 40 * len(self.leaf_entries)
        if self.neighbour is not None:
            total += self.neighbour.byte_size()
        return total


def generate_general_update(tree: MBTree, key: int) -> GeneralUpdateProof:
    """SP side: build the generalised ``UpdVO`` for inserting ``key``.

    Must be called before applying the insertion to the mirror tree.
    The path is :meth:`MBTree.update_path`; the entry across a leaf edge
    comes from :meth:`MBTree.boundaries`.
    """
    path = tree.update_path(key)
    entries = tuple(Entry(*pair) for pair in path.leaf)
    neighbour = None
    if entries and path.index in (0, len(entries)):
        lower, upper = tree.boundaries(key)
        if path.index == 0 and lower is not None:
            neighbour = tree.multiproof([lower, entries[0].key])
        elif path.index == len(entries) and upper is not None:
            neighbour = tree.multiproof([entries[-1].key, upper])
    return GeneralUpdateProof(
        levels=path.levels,
        leaf_entries=entries,
        insert_index=path.index,
        neighbour=neighbour,
    )


def verify_and_update_root(
    proof: GeneralUpdateProof,
    key: int,
    value_hash: bytes,
    stored_root: bytes,
    fanout: int,
    hash_fn: HashFn = sha3,
) -> bytes:
    """Contract side: validate the proof and return the new root.

    Raises :class:`IntegrityError` on any inconsistency; pure function
    over an injectable hash so the contract can meter every digest.
    """
    i = proof.insert_index
    entries = proof.leaf_entries
    # -- 1. the proof's shape, and a key-correct place within the leaf ----------
    if not all(0 <= followed < len(digests) for followed, digests in proof.levels):
        raise IntegrityError("path index out of range")
    if not 0 <= i <= len(entries):
        raise IntegrityError("insertion index out of range")
    for prev, nxt in zip(entries, entries[1:]):
        if prev.key >= nxt.key:
            raise IntegrityError("leaf entries are not strictly sorted")
    if i > 0 and entries[i - 1].key >= key:
        raise IntegrityError("new key does not follow its leaf predecessor")
    if i < len(entries) and entries[i].key <= key:
        raise IntegrityError("new key does not precede its leaf successor")

    # -- 2. the path must fold to the stored root; the fold yields the new one --
    old_root, new_root = fold_update(
        [hash_fn(entry_payload(e.key, e.value_hash)) for e in entries],
        [(digests[:f], digests[f + 1 :]) for f, digests in proof.levels],
        i,
        hash_fn(entry_payload(key, value_hash)),
        fanout,
        hash_fn=hash_fn,
    )
    if not digests_equal(old_root, stored_root):
        raise IntegrityError("UpdVO does not match the stored root hash")

    # -- 3. at a leaf edge: the right leaf --------------------------------------
    if entries and i in (0, len(entries)):
        edge = entries[0] if i == 0 else entries[-1]
        if proof.neighbour is not None:
            try:
                run = open_table(
                    proof.neighbour, stored_root, "target leaf", hash_fn=hash_fn
                )
                lower, upper = run.boundaries(key)
                run.settle()
            except VerificationError as exc:
                raise IntegrityError(
                    f"neighbour evidence fails ({exc}): insertion routed "
                    "to the wrong leaf"
                ) from None
            shown = upper if i == 0 else lower
            if (
                lower == key
                or shown != edge.key
                or not digests_equal(
                    run.object_hashes([shown])[shown], edge.value_hash
                )
            ):
                raise IntegrityError(
                    "neighbour evidence does not end at the target leaf's "
                    "edge entry"
                )
        elif not all(
            followed == (0 if i == 0 else len(digests) - 1)
            for followed, digests in proof.levels
        ):
            raise IntegrityError(
                "edge insertion without a neighbour requires the globally "
                "outermost path"
            )
    return new_root


class GeneralSuppressedContract(SmartContract):
    """On-chain side: suppressed roots with arbitrary-key insertions."""

    def __init__(self, fanout: int = DEFAULT_FANOUT) -> None:
        super().__init__()
        self.fanout = fanout

    def register_object(self, object_id: int, object_hash: bytes) -> None:
        """DO entry point: record the object's hash."""
        self.env.read_calldata(object_hash)
        self.storage.store(("objhash", object_id), object_hash)
        self.emit("ObjectRegistered", object_id=object_id)

    def insert(
        self,
        index_name: str,
        key: int,
        object_id: int,
        object_hash: bytes,
        proof: GeneralUpdateProof,
    ) -> None:
        """Validate a generalised ``UpdVO`` and update the root."""
        registered = self.storage.load(("objhash", object_id))
        if not digests_equal(registered, object_hash):
            self.emit("InvalidUpdVO", object_id=object_id, reason="hash")
            raise IntegrityError(
                "object hash does not match the DO's registration"
            )
        stored_root = self.storage.load(("root", index_name))
        new_root = verify_and_update_root(
            proof, key, object_hash, stored_root, self.fanout,
            hash_fn=self._hash,
        )
        self.storage.store(("root", index_name), new_root)
        self.emit("SuccessfulUpdate", object_id=object_id, key=key)

    def _hash(self, payload: bytes) -> bytes:
        self.env.touch_memory(word_count(payload))
        return self.env.keccak(payload)

    def view_root(self, index_name: str) -> bytes:
        """Free view: the keyword tree's on-chain root hash."""
        return self.storage.peek(("root", index_name))
