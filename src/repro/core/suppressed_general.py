"""Suppressed MB-tree maintenance for NON-monotonic keys.

Section IX lists, as future work, extending the suppressed-index idea
to "objects [whose keys] are not monotonically increment".  For the
*Chameleon* tree this is genuinely hard — a key-ordered linked list
threaded through CVC slots is insecure because trapdoor commitments
admit *stale openings*: after the DO re-points a predecessor's
successor slot, the old opening still verifies, so a malicious SP could
present the pre-update pointer and hide results (see DESIGN.md §5b).

For the *Suppressed Merkle* index, however, the extension is sound and
is implemented here.  The SP's update proof generalises from the
right-most spine to the full insertion path, and the smart contract
enforces — entirely with cheap memory/hash operations — that:

1. the path folds to the stored root (integrity of the proof);
2. the insertion lands at the *key-correct* position: within the leaf,
   neighbours bracket the key; at leaf edges, the proof carries the
   global predecessor/successor entry with a Merkle path, and the
   contract checks positional *adjacency* so the SP cannot route the
   insertion into a wrong leaf and later hide results behind a
   misordered tree;
3. the recomputed root (with ``ceil((F+1)/2)`` splits cascading up the
   path) replaces the stored root with a single ``C_supdate``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mbtree import (
    DEFAULT_FANOUT,
    Entry,
    HashFn,
    MBTree,
    MerklePath,
    PathStep,
    entry_payload,
    leaf_payload,
    node_payload,
    paths_adjacent,
)
from repro.crypto.hashing import EMPTY_DIGEST, digests_equal, sha3, word_count
from repro.errors import IntegrityError, ReproError
from repro.ethereum.contract import SmartContract


@dataclass(frozen=True)
class NeighbourProof:
    """A global predecessor/successor entry with its Merkle path."""

    entry: Entry
    path: MerklePath

    def byte_size(self) -> int:
        """Serialised size in bytes."""
        return 40 + self.path.byte_size()


@dataclass(frozen=True)
class GeneralUpdateProof:
    """The generalised ``UpdVO``: the full insertion path.

    ``levels`` lists, top-down, each internal node on the path as
    ``(followed_child_index, all_child_digests)``; ``leaf_entries``
    holds the target leaf's complete entries (keys included, so the
    contract can check ordering); ``insert_index`` is where the new key
    goes.  ``predecessor``/``successor`` are required exactly when the
    insertion touches the leaf's edge and the tree extends beyond it.
    """

    levels: tuple[tuple[int, tuple[bytes, ...]], ...]
    leaf_entries: tuple[Entry, ...]
    insert_index: int
    predecessor: NeighbourProof | None = None
    successor: NeighbourProof | None = None

    def byte_size(self) -> int:
        """Serialised size in bytes."""
        total = 4
        for _, digests in self.levels:
            total += 1 + 32 * len(digests)
        total += 40 * len(self.leaf_entries)
        for neighbour in (self.predecessor, self.successor):
            if neighbour is not None:
                total += neighbour.byte_size()
        return total

    def leaf_entry_path(self, entry_index: int) -> MerklePath:
        """The Merkle path of ``leaf_entries[entry_index]`` (pre-insert)."""
        entry_digests = [e.digest() for e in self.leaf_entries]
        steps = [
            PathStep(
                index=entry_index,
                before=tuple(entry_digests[:entry_index]),
                after=tuple(entry_digests[entry_index + 1 :]),
            )
        ]
        for followed, digests in reversed(self.levels):
            steps.append(
                PathStep(
                    index=followed,
                    before=tuple(digests[:followed]),
                    after=tuple(digests[followed + 1 :]),
                )
            )
        return MerklePath(steps=tuple(steps))

    def path_is_leftmost(self) -> bool:
        """True when the path hugs the left tree edge."""
        return all(followed == 0 for followed, _ in self.levels)

    def path_is_rightmost(self) -> bool:
        """True when the path hugs the right tree edge."""
        return all(
            followed == len(digests) - 1 for followed, digests in self.levels
        )


def generate_general_update(tree: MBTree, key: int) -> GeneralUpdateProof:
    """SP side: build the generalised ``UpdVO`` for inserting ``key``.

    Must be called before applying the insertion to the mirror tree.
    """
    if digests_equal(tree.root_hash, EMPTY_DIGEST):
        return GeneralUpdateProof(levels=(), leaf_entries=(), insert_index=0)
    view = tree.store
    node = view.store.root
    levels: list[tuple[int, tuple[bytes, ...]]] = []
    while not view.is_leaf(node):
        width = view.count(node)
        child_index = width - 1
        for i in range(1, width):
            if key < view.min_key(view.child(node, i)):
                child_index = i - 1
                break
        levels.append((child_index, tuple(view.child_digests(node))))
        node = view.child(node, child_index)
    entries = tuple(
        Entry(key=view.leaf_key(node, s), value_hash=view.leaf_value_hash(node, s))
        for s in range(view.count(node))
    )
    insert_index = 0
    for i, entry in enumerate(entries):
        if entry.key == key:
            raise ReproError(f"duplicate key {key}")
        if entry.key < key:
            insert_index = i + 1
    predecessor = None
    successor = None
    if insert_index == 0:
        search = tree.boundaries(key, upper=False)
        if search.lower is not None:
            predecessor = NeighbourProof(
                entry=search.lower, path=search.lower_path
            )
    if insert_index == len(entries):
        search = tree.boundaries(key, lower=False)
        if search.upper is not None:
            successor = NeighbourProof(
                entry=search.upper, path=search.upper_path
            )
    return GeneralUpdateProof(
        levels=tuple(levels),
        leaf_entries=entries,
        insert_index=insert_index,
        predecessor=predecessor,
        successor=successor,
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
    # -- empty tree bootstrap ---------------------------------------------------
    if not proof.leaf_entries and not proof.levels:
        if not digests_equal(stored_root, EMPTY_DIGEST):
            raise IntegrityError("empty-tree proof against a non-empty root")
        new_entry = hash_fn(entry_payload(key, value_hash))
        return hash_fn(leaf_payload((new_entry,)))

    # -- 1. the path must fold to the stored root -------------------------------
    entry_digests = [
        hash_fn(entry_payload(e.key, e.value_hash)) for e in proof.leaf_entries
    ]
    current = hash_fn(leaf_payload(entry_digests))
    for followed, digests in reversed(proof.levels):
        if not 0 <= followed < len(digests):
            raise IntegrityError("path index out of range")
        if not digests_equal(digests[followed], current):
            raise IntegrityError("path digest mismatch along the UpdVO")
        current = hash_fn(node_payload(digests))
    if not digests_equal(current, stored_root):
        raise IntegrityError("UpdVO does not match the stored root hash")

    # -- 2. ordering: the insertion must be key-correct -------------------------
    i = proof.insert_index
    entries = proof.leaf_entries
    if not 0 <= i <= len(entries):
        raise IntegrityError("insertion index out of range")
    for prev, nxt in zip(entries, entries[1:]):
        if prev.key >= nxt.key:
            raise IntegrityError("leaf entries are not strictly sorted")
    if i > 0 and entries[i - 1].key >= key:
        raise IntegrityError("new key does not follow its leaf predecessor")
    if i < len(entries) and entries[i].key <= key:
        raise IntegrityError("new key does not precede its leaf successor")
    if i == 0:
        if proof.predecessor is not None:
            pred = proof.predecessor
            if pred.entry.key >= key:
                raise IntegrityError("global predecessor does not precede key")
            if not digests_equal(pred.path.compute_root(pred.entry), stored_root):
                raise IntegrityError("predecessor path fails verification")
            first_path = proof.leaf_entry_path(0)
            if not paths_adjacent(pred.path, first_path):
                raise IntegrityError(
                    "predecessor is not adjacent to the target leaf "
                    "(insertion routed to the wrong leaf)"
                )
        elif not proof.path_is_leftmost():
            raise IntegrityError(
                "edge insertion without a predecessor requires the "
                "globally leftmost path"
            )
    if i == len(entries):
        if proof.successor is not None:
            succ = proof.successor
            if succ.entry.key <= key:
                raise IntegrityError("global successor does not follow key")
            if not digests_equal(succ.path.compute_root(succ.entry), stored_root):
                raise IntegrityError("successor path fails verification")
            last_path = proof.leaf_entry_path(len(entries) - 1)
            if not paths_adjacent(last_path, succ.path):
                raise IntegrityError(
                    "successor is not adjacent to the target leaf "
                    "(insertion routed to the wrong leaf)"
                )
        elif not proof.path_is_rightmost():
            raise IntegrityError(
                "edge insertion without a successor requires the "
                "globally rightmost path"
            )

    # -- 3. recompute the new root with cascading splits ------------------------
    half = (fanout + 2) // 2
    new_entry = hash_fn(entry_payload(key, value_hash))
    new_digests = entry_digests[:i] + [new_entry] + entry_digests[i:]
    if len(new_digests) > fanout:
        carry = [
            hash_fn(leaf_payload(new_digests[:half])),
            hash_fn(leaf_payload(new_digests[half:])),
        ]
    else:
        carry = [hash_fn(leaf_payload(new_digests))]
    for followed, digests in reversed(proof.levels):
        children = list(digests[:followed]) + carry + list(digests[followed + 1 :])
        if len(children) > fanout:
            carry = [
                hash_fn(node_payload(children[:half])),
                hash_fn(node_payload(children[half:])),
            ]
        else:
            carry = [hash_fn(node_payload(children))]
    if len(carry) == 2:
        return hash_fn(node_payload(carry))
    return carry[0]


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
