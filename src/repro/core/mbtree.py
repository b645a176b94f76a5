"""Merkle B-tree (MB-tree): the multi-way authenticated index of [7].

Each keyword in the Merkle inverted index owns one MB-tree keyed by
object ID.  The tree is a B+-tree of fan-out ``F`` whose every node
carries a digest:

* a *leaf entry* ``<id, h(o)>`` has digest ``h(id || h(o))`` (tagged);
* a *leaf node* hashes the concatenation of its entry digests;
* an *internal node* hashes the concatenation of its child digests.

Storage
-------
Nodes are not Python objects: the whole tree lives in one contiguous
:class:`~repro.core.nodestore.NodeStore` buffer of fixed-width records
(flat-buffer storage, nodestore v1).  Build, insert-spine update and
path extraction are index arithmetic over that buffer; digests are
stored inline, so a leaf re-hash concatenates stored entry digests
instead of recomputing them.  The hash *preimages* —
:func:`entry_payload`, :func:`leaf_payload`, :func:`node_payload` — are
unchanged, so roots, proofs and metered gas are byte-identical to the
object-graph representation this replaced.  :meth:`MBTree.to_blob` /
:meth:`MBTree.from_blob` snapshot and restore the tree as one buffer.

Proof machinery
---------------
:class:`MerklePath` authenticates a single leaf entry and — crucially for
completeness proofs — encodes the entry's *position* at every level
(digests of siblings to the left and right).  Two verified paths can
therefore be checked for adjacency (:func:`paths_adjacent`), for being
the tree's first entry (:meth:`MerklePath.is_leftmost`) and for being its
last (:meth:`MerklePath.is_rightmost`), which is exactly what the
authenticated join of Section III-B needs.

Suppressed maintenance (Section IV)
-----------------------------------
:meth:`MBTree.gen_update_proof` implements Algorithm 1 — the SP extracts
the right-most branch as an :class:`UpdateSpine` — and
:func:`reconstruct_root` / :func:`compute_updated_root` implement the
smart contract's side of Algorithm 2 as pure functions over injectable
hash callables, so the on-chain code can meter every hash while reusing
the identical logic the tests validate against the real tree.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Protocol

from repro.core.nodestore import NIL, MBTreeStore
from repro.crypto.hashing import EMPTY_DIGEST, sha3
from repro.errors import IntegrityError, ReproError

if TYPE_CHECKING:
    from repro.core.multiproof import TreeMultiproof

#: Default fan-out, per Section VII-A: the largest F with
#: ``(F-1)*l_d + F*l_p + l_p < 32`` bytes.
DEFAULT_FANOUT = 4

_ENTRY_TAG = sha3(b"mb-entry")
_LEAF_TAG = sha3(b"mb-leaf")
_NODE_TAG = sha3(b"mb-node")

HashFn = Callable[[bytes], bytes]


def entry_payload(key: int, value_hash: bytes) -> bytes:
    """Byte layout hashed into a leaf-entry digest."""
    return _ENTRY_TAG + _ENTRY_TAG + key.to_bytes(8, "big") + value_hash


def leaf_payload(entry_digests: tuple[bytes, ...] | list[bytes]) -> bytes:
    """Byte layout hashed into a leaf-node digest."""
    return _LEAF_TAG + _LEAF_TAG + b"".join(entry_digests)


def node_payload(child_digests: tuple[bytes, ...] | list[bytes]) -> bytes:
    """Byte layout hashed into an internal-node digest."""
    return _NODE_TAG + _NODE_TAG + b"".join(child_digests)


def entry_digest(key: int, value_hash: bytes, hash_fn: HashFn = sha3) -> bytes:
    """Digest of one leaf entry."""
    return hash_fn(entry_payload(key, value_hash))


def leaf_digest(entry_digests, hash_fn: HashFn = sha3) -> bytes:
    """Digest of a leaf node from its entry digests."""
    return hash_fn(leaf_payload(entry_digests))


def node_digest(child_digests, hash_fn: HashFn = sha3) -> bytes:
    """Digest of an internal node from its child digests."""
    return hash_fn(node_payload(child_digests))


@dataclass(frozen=True)
class Entry:
    """A leaf entry ``<id, h(o)>``."""

    key: int
    value_hash: bytes

    def digest(self) -> bytes:
        """Canonical digest of this value."""
        return entry_digest(self.key, self.value_hash)


# ---------------------------------------------------------------------------
# Merkle paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathStep:
    """One level of a Merkle path: our index plus sibling digests.

    ``before``/``after`` hold the digests of siblings to our left and
    right at this level, so the verifier can both recompute the parent
    digest and reason about positions.
    """

    index: int
    before: tuple[bytes, ...]
    after: tuple[bytes, ...]

    def fold(self, current: bytes, is_leaf_level: bool) -> bytes:
        """Combine ``current`` with the siblings into the parent digest."""
        digests = self.before + (current,) + self.after
        if is_leaf_level:
            return leaf_digest(digests)
        return node_digest(digests)


@dataclass(frozen=True, eq=True)
class MerklePath:
    """Authentication path of one leaf entry, leaf level first."""

    steps: tuple[PathStep, ...]

    def compute_root(self, entry: Entry) -> bytes:
        """Fold the path upward from ``entry``'s digest to the root."""
        current = entry.digest()
        for level, step in enumerate(self.steps):
            current = step.fold(current, is_leaf_level=(level == 0))
        return current

    def is_leftmost(self) -> bool:
        """True when this is the first entry of the whole tree."""
        return all(step.index == 0 for step in self.steps)

    def is_rightmost(self) -> bool:
        """True when this is the last entry of the whole tree."""
        return all(not step.after for step in self.steps)

    @property
    def depth(self) -> int:
        """Number of levels in the path."""
        return len(self.steps)

    def byte_size(self) -> int:
        """Serialised size in bytes, matching the VO codec's encoding.

        The codec writes one depth byte, then per step a 2-byte index
        and the length-prefixed ``before``/``after`` digest runs (one
        length byte each).  Kept in lock-step by a codec test so VO
        size accounting cannot drift from the wire again.
        """
        digests = sum(len(s.before) + len(s.after) for s in self.steps)
        return 1 + 32 * digests + 4 * len(self.steps)


def paths_adjacent(left: MerklePath, right: MerklePath) -> bool:
    """Check that ``left`` immediately precedes ``right`` in leaf order.

    Both paths must already have been verified against the same root.
    Walking top-down, the paths must agree until a single divergence
    level where ``right``'s branch index is ``left``'s plus one; below
    the divergence ``left`` must hug the right edge and ``right`` the
    left edge of their respective subtrees.
    """
    if left.depth != right.depth:
        return False
    diverged = False
    # steps are leaf-first; iterate from the root downward.
    for step_l, step_r in zip(reversed(left.steps), reversed(right.steps)):
        if not diverged:
            if step_l.index == step_r.index:
                continue
            if step_r.index != step_l.index + 1:
                return False
            diverged = True
            # At the divergence level both steps describe the same node,
            # so their sibling multisets must be mutually consistent.
            full_l = step_l.before + (None,) + step_l.after
            full_r = step_r.before + (None,) + step_r.after
            if len(full_l) != len(full_r):
                return False
        else:
            if step_l.after or step_r.before or step_r.index != 0:
                return False
    return diverged


# ---------------------------------------------------------------------------
# Node handles and the observer protocol
# ---------------------------------------------------------------------------


def _leaf_digests(view: MBTreeStore, index: int) -> list[bytes]:
    """Entry digests of a leaf, recomputed from its stored entries.

    The flat record stores only ``<key, value_hash>`` per slot; the
    canonical entry digests it hashes into the leaf digest are cheap to
    rederive and never persisted.
    """
    return [
        entry_digest(view.leaf_key(index, slot), view.leaf_value_hash(index, slot))
        for slot in range(view.count(index))
    ]


class NodeHandle:
    """A stable reference to one logical tree node in the flat store.

    Handed to :class:`InsertObserver` hooks in place of the node objects
    the tree no longer has.  The handle pins the node's *sequence
    number*, which survives the free-then-reallocate record moves a
    split performs, so observers that defer work per logical node (the
    GEM^2 bulk-merge meter) read the node's final state at settlement —
    the same semantics object identity used to give them.
    """

    __slots__ = ("_view", "seq")

    def __init__(self, view: MBTreeStore, seq: int) -> None:
        self._view = view
        self.seq = seq

    @property
    def index(self) -> int:
        """The node's current record index."""
        return self._view.index_of_seq(self.seq)

    @property
    def is_leaf(self) -> bool:
        """Whether the node is a leaf."""
        return self._view.is_leaf(self.index)

    @property
    def width(self) -> int:
        """Number of entries (leaf) or children (internal)."""
        return self._view.count(self.index)

    @property
    def digest(self) -> bytes:
        """The node's current digest."""
        return self._view.digest(self.index)

    def payload(self) -> bytes:
        """The byte payload this node's digest is computed over."""
        index = self.index
        if self._view.is_leaf(index):
            return leaf_payload(_leaf_digests(self._view, index))
        return node_payload(self._view.child_digests(index))


class InsertObserver(Protocol):
    """Hook interface letting callers meter structural operations.

    The Merkle inverted index's on-chain contract implements this to
    charge gas exactly where the paper's cost analysis places it; the
    SP-side trees pass no observer and pay nothing.
    """

    def node_visited(self, node: NodeHandle) -> None:
        """Hook: a node's content word was fetched."""
        ...

    def entry_inserted(self, leaf: NodeHandle) -> None:
        """Hook: a new entry was stored into ``leaf``."""
        ...

    def node_rehashed(self, node: NodeHandle) -> None:
        """Hook: a node's digest was recomputed and stored."""
        ...

    def node_split(self, original: NodeHandle, new_sibling: NodeHandle) -> None:
        """Hook: an overflowing node was split."""
        ...

    def root_replaced(self, new_root: NodeHandle) -> None:
        """Hook: the tree gained a new root node."""
        ...


@dataclass(frozen=True)
class BoundarySearch:
    """Result of a boundary lookup for a target key.

    ``lower`` is the largest entry with ``key <= target`` (the matching
    object when keys are equal); ``upper`` is the smallest entry with
    ``key > target``.  Either may be ``None`` at the tree edges; a path
    is ``None`` when its entry is, or when the caller did not ask
    :meth:`MBTree.boundaries` for that side.
    """

    target: int
    lower: Entry | None
    lower_path: MerklePath | None
    upper: Entry | None
    upper_path: MerklePath | None

    @property
    def matched(self) -> bool:
        """True when the lower boundary equals the target key."""
        return self.lower is not None and self.lower.key == self.target


class MBTree:
    """A Merkle B+-tree over ``<id, h(o)>`` entries, flat-buffer backed.

    Supports arbitrary-order insertion (splits propagate upward), though
    the paper's workload only ever appends monotonically increasing IDs.
    All node state lives in ``self.store`` (an
    :class:`~repro.core.nodestore.MBTreeStore`); the tree keeps only
    scalar mirrors of the header fields for hot-path reads and writes
    them through, so the store's buffer is always a complete snapshot.
    """

    def __init__(self, fanout: int = DEFAULT_FANOUT) -> None:
        if fanout < 3:
            raise ReproError("MB-tree fan-out must be at least 3")
        self.fanout = fanout
        self.store = MBTreeStore.create(fanout)
        self._root_idx = NIL
        self._count = 0
        self._max_key: int | None = None

    # -- flat-buffer snapshots ----------------------------------------------------

    def to_blob(self) -> bytes:
        """Snapshot the whole tree as one nodestore-v1 buffer."""
        return self.store.to_blob()

    @classmethod
    def from_blob(cls, blob: bytes | bytearray | memoryview) -> "MBTree":
        """Restore a tree from :meth:`to_blob` output (one buffer read)."""
        view = MBTreeStore.from_blob(blob)
        tree = cls.__new__(cls)
        tree.fanout = view.fanout
        tree.store = view
        top = view.store.root
        tree._root_idx = top
        tree._count = view.store.count
        tree._max_key = view.store.max_key if tree._count else None
        if tree._count and top == NIL:
            raise IntegrityError("non-empty MB-tree blob lacks a root")
        return tree

    def __getstate__(self) -> dict:
        # Pickling ships the buffer, not an object graph: no recursion,
        # one memcpy, and the receiver revalidates the header.
        return {"blob": self.to_blob()}

    def __setstate__(self, state: dict) -> None:
        restored = MBTree.from_blob(state["blob"])
        self.fanout = restored.fanout
        self.store = restored.store
        self._root_idx = restored._root_idx
        self._count = restored._count
        self._max_key = restored._max_key

    # -- basic properties -----------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def root_hash(self) -> bytes:
        """The tree's authenticated digest (EMPTY_DIGEST when empty)."""
        if self._count == 0:
            return EMPTY_DIGEST
        return self.store.digest(self._root_idx)

    @property
    def max_key(self) -> int | None:
        """Largest key inserted so far, or None."""
        return self._max_key

    @property
    def min_key(self) -> int | None:
        """Smallest key in the tree, or None."""
        if self._count == 0:
            return None
        return self.store.min_key(self._root_idx)

    @property
    def height(self) -> int:
        """Number of levels (0 for an empty tree)."""
        if self._count == 0:
            return 0
        levels = 1
        node = self._root_idx
        while not self.store.is_leaf(node):
            levels += 1
            node = self.store.child(node, 0)
        return levels

    def _handle(self, index: int) -> NodeHandle:
        return NodeHandle(self.store, self.store.seq(index))

    def _set_root(self, index: int) -> None:
        self._root_idx = index
        self.store.store.root = index

    def _set_count(self, value: int) -> None:
        self._count = value
        self.store.store.count = value

    def _set_max_key(self, key: int) -> None:
        self._max_key = key
        self.store.store.max_key = key

    # -- insertion --------------------------------------------------------------

    def insert(
        self, key: int, value_hash: bytes, observer: InsertObserver | None = None
    ) -> None:
        """Insert ``<key, value_hash>``; duplicate keys are rejected."""
        view = self.store
        digest = entry_digest(key, value_hash)
        if self._count == 0:
            leaf = view.new_leaf()
            view.leaf_insert(leaf, 0, key, value_hash)
            view.set_digest(leaf, leaf_digest([digest]))
            self._set_root(leaf)
            self._set_count(1)
            self._set_max_key(key)
            if observer is not None:
                observer.root_replaced(self._handle(leaf))
                observer.node_rehashed(self._handle(leaf))
            return
        path = self._descend(key, observer)
        leaf = path[-1]
        position, found = view.leaf_find(leaf, key)
        if found:
            raise ReproError(f"duplicate key {key} in MB-tree")
        view.leaf_insert(leaf, position, key, value_hash)
        if observer is not None:
            observer.entry_inserted(self._handle(leaf))
        self._set_count(self._count + 1)
        if self._max_key is None or key > self._max_key:
            self._set_max_key(key)
        self._split_and_rehash(path, observer)

    def _descend(
        self, key: int, observer: InsertObserver | None
    ) -> list[int]:
        """Root-to-leaf record path guiding an insertion of ``key``."""
        view = self.store
        path: list[int] = []
        node = self._root_idx
        while True:
            if observer is not None:
                observer.node_visited(self._handle(node))
            path.append(node)
            if view.is_leaf(node):
                return path
            width = view.count(node)
            slot = width - 1
            for i in range(1, width):
                if key < view.min_key(view.child(node, i)):
                    slot = i - 1
                    break
            node = view.child(node, slot)

    def _rehash(self, index: int) -> None:
        view = self.store
        if view.is_leaf(index):
            if view.count(index):
                view.set_digest(
                    index, leaf_digest(_leaf_digests(view, index))
                )
            else:
                view.set_digest(index, EMPTY_DIGEST)
        else:
            view.set_digest(index, node_digest(view.child_digests(index)))

    def _split_and_rehash(
        self, path: list[int], observer: InsertObserver | None
    ) -> None:
        """Walk the insert path bottom-up, splitting overflowing nodes."""
        view = self.store
        half = (self.fanout + 2) // 2  # ceil((F + 1) / 2), paper's policy
        carry: tuple[int, tuple[int, int]] | None = None
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            if carry is not None:
                view.replace_child(node, carry[0], carry[1])
            carry = None
            if view.count(node) > self.fanout:
                left, right = view.split(node, half)
                self._rehash(left)
                self._rehash(right)
                if observer is not None:
                    observer.node_split(self._handle(left), self._handle(right))
                    observer.node_rehashed(self._handle(left))
                    observer.node_rehashed(self._handle(right))
                carry = (node, (left, right))
            else:
                if not view.is_leaf(node):
                    view.set_min_key(node, view.min_key(view.child(node, 0)))
                self._rehash(node)
                if observer is not None:
                    observer.node_rehashed(self._handle(node))
        if carry is not None:
            root = view.new_internal()
            view.set_children(root, list(carry[1]))
            self._rehash(root)
            self._set_root(root)
            if observer is not None:
                observer.root_replaced(self._handle(root))
                observer.node_rehashed(self._handle(root))

    # -- lookups -----------------------------------------------------------------

    def iter_entries(self) -> Iterator[Entry]:
        """All entries in key order."""
        view = self.store

        def walk(index: int) -> Iterator[Entry]:
            """Depth-first in-order traversal."""
            if view.is_leaf(index):
                for slot in range(view.count(index)):
                    yield Entry(
                        key=view.leaf_key(index, slot),
                        value_hash=view.leaf_value_hash(index, slot),
                    )
            else:
                for child in view.children(index):
                    yield from walk(child)

        if self._count:
            yield from walk(self._root_idx)

    def keys(self) -> list[int]:
        """All keys in order (no hash is read)."""
        view = self.store
        out: list[int] = []
        stack = [self._root_idx] if self._count else []
        while stack:
            node = stack.pop()
            if view.is_leaf(node):
                out += [
                    view.leaf_key(node, slot)
                    for slot in range(view.count(node))
                ]
            else:
                stack += reversed(view.children(node))
        return out

    def cursor(self) -> "LeafCursor":
        """A finger for boundary lookups whose targets ascend."""
        return LeafCursor(self)

    def first_entry(self) -> tuple[Entry, MerklePath] | None:
        """The smallest entry with its path, or None for an empty tree."""
        if self._count == 0:
            return None
        return self._entry_at_edge(leftmost=True)

    def last_entry(self) -> tuple[Entry, MerklePath] | None:
        """The largest entry with its path, or None for an empty tree."""
        if self._count == 0:
            return None
        return self._entry_at_edge(leftmost=False)

    def _entry_at_edge(self, leftmost: bool) -> tuple[Entry, MerklePath]:
        view = self.store
        node = self._root_idx
        steps: list[PathStep] = []
        while not view.is_leaf(node):
            slot = 0 if leftmost else view.count(node) - 1
            steps.append(self._node_step(node, slot))
            node = view.child(node, slot)
        slot = 0 if leftmost else view.count(node) - 1
        steps.append(self._leaf_step(node, slot))
        steps.reverse()
        entry = Entry(
            key=view.leaf_key(node, slot),
            value_hash=view.leaf_value_hash(node, slot),
        )
        return entry, MerklePath(steps=tuple(steps))

    def prove(self, key: int) -> tuple[Entry, MerklePath]:
        """Membership proof for an existing key (one descent)."""
        return self._prove_by_key(key)

    def locate(self, target: int) -> tuple[Entry | None, Entry | None]:
        """The entries bracketing ``target``, found without hashing.

        Returns ``(lower, upper)``: the largest entry with key <=
        ``target`` (the match, if any) and the smallest with key >
        ``target``; either is ``None`` at the tree edges.  One O(log n)
        descent over the cached per-record minimum keys, plus a walk
        down the successor subtree's left edge when the reached leaf
        tops out.  No digest is read or computed: proofs for located
        entries come from :meth:`multiproof` or :meth:`prove`.
        """
        if self._count == 0:
            return None, None
        view = self.store
        node = self._root_idx
        successor_subtree: int | None = None
        while not view.is_leaf(node):
            children = view.children(node)
            slot = len(children) - 1
            for i in range(1, len(children)):
                if target < view.min_key(children[i]):
                    slot = i - 1
                    # Deepest right sibling on the path: its subtree
                    # minimum is the successor when the reached leaf
                    # tops out.
                    successor_subtree = children[i]
                    break
            node = children[slot]
        position, found = view.leaf_find(node, target)
        rank = position + 1 if found else position  # leaf keys <= target
        lower = self._entry_at(node, rank - 1) if rank > 0 else None
        if rank < view.count(node):
            return lower, self._entry_at(node, rank)
        if successor_subtree is None:
            return lower, None
        node = successor_subtree
        while not view.is_leaf(node):
            node = view.child(node, 0)
        return lower, self._entry_at(node, 0)

    def _entry_at(self, leaf: int, slot: int) -> Entry:
        return Entry(
            key=self.store.leaf_key(leaf, slot),
            value_hash=self.store.leaf_value_hash(leaf, slot),
        )

    def boundaries(
        self, target: int, *, lower: bool = True, upper: bool = True
    ) -> BoundarySearch:
        """Locate the boundary entries around ``target`` with paths.

        ``lower`` = largest entry with key <= target (the match, if any);
        ``upper`` = smallest entry with key > target.  :meth:`locate`
        finds both entries; each *requested* side then costs one proof
        descent.  A side switched off keeps its entry but reports no
        path.
        """
        low, high = self.locate(target)
        return BoundarySearch(
            target=target,
            lower=low,
            lower_path=(
                self._prove_by_key(low.key)[1]
                if lower and low is not None
                else None
            ),
            upper=high,
            upper_path=(
                self._prove_by_key(high.key)[1]
                if upper and high is not None
                else None
            ),
        )

    def _prove_by_key(self, key: int) -> tuple[Entry, MerklePath]:
        if self._count == 0:
            raise ReproError(f"key {key} not present in MB-tree")
        view = self.store
        node = self._root_idx
        steps: list[PathStep] = []
        while not view.is_leaf(node):
            width = view.count(node)
            slot = width - 1
            for i in range(1, width):
                if key < view.min_key(view.child(node, i)):
                    slot = i - 1
                    break
            steps.append(self._node_step(node, slot))
            node = view.child(node, slot)
        position, found = view.leaf_find(node, key)
        if not found:
            raise ReproError(f"key {key} not present in MB-tree")
        steps.append(self._leaf_step(node, position))
        steps.reverse()
        entry = Entry(
            key=key, value_hash=view.leaf_value_hash(node, position)
        )
        return entry, MerklePath(steps=tuple(steps))

    def _node_step(self, index: int, slot: int) -> PathStep:
        digests = self.store.child_digests(index)
        return PathStep(
            index=slot,
            before=tuple(digests[:slot]),
            after=tuple(digests[slot + 1 :]),
        )

    def _leaf_step(self, index: int, slot: int) -> PathStep:
        digests = _leaf_digests(self.store, index)
        return PathStep(
            index=slot,
            before=tuple(digests[:slot]),
            after=tuple(digests[slot + 1 :]),
        )

    def multiproof(self, keys: Sequence[int]) -> TreeMultiproof:
        """One deduplicated proof for ``keys``, built in one pass.

        ``keys`` must be strictly ascending and all present.  A single
        DFS over the cover — the nodes on some key's root-to-leaf path —
        partitions the key list by the children's cached minimum keys,
        reads each helper digest from the store once and emits the
        :class:`~repro.core.multiproof.TreeMultiproof` in the order its
        fold consumes it.  ``keys[i]`` is the proof's leaf ordinal ``i``
        (DFS order is key order).
        """
        from repro.core.multiproof import (
            SLOT_DESCEND,
            SLOT_HELPER,
            SLOT_LEAF,
            TreeMultiproof,
        )

        if not keys:
            raise ReproError("a multiproof needs at least one key")
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ReproError("multiproof keys must be strictly ascending")
        if self._count == 0:
            raise ReproError(f"key {keys[0]} not present in MB-tree")
        view = self.store
        nodes: list[tuple[int, ...]] = []
        helpers: list[bytes] = []
        leaves: list[tuple[int, bytes]] = []

        def cover(node: int, lo: int, hi: int) -> int:
            """Emit the cover under ``node`` for ``keys[lo:hi]``.

            Returns the subtree's height.
            """
            width = view.count(node)
            if view.is_leaf(node):
                codes = []
                for slot in range(width):
                    key = view.leaf_key(node, slot)
                    value_hash = view.leaf_value_hash(node, slot)
                    if lo < hi and keys[lo] == key:
                        codes.append(SLOT_LEAF)
                        leaves.append((key, value_hash))
                        lo += 1
                    else:
                        codes.append(SLOT_HELPER)
                        helpers.append(entry_digest(key, value_hash))
                if lo < hi:
                    raise ReproError(f"key {keys[lo]} not present in MB-tree")
                nodes.append(tuple(codes))
                return 1
            children = view.children(node)
            # Child i owns the keys below child i+1's minimum (the same
            # routing every descent uses), so one forward sweep splits
            # the sorted key range.
            bounds = [lo]
            for child in children[1:]:
                floor = view.min_key(child)
                cut = bounds[-1]
                while cut < hi and keys[cut] < floor:
                    cut += 1
                bounds.append(cut)
            bounds.append(hi)
            nodes.append(
                tuple(
                    SLOT_DESCEND if bounds[i] < bounds[i + 1] else SLOT_HELPER
                    for i in range(width)
                )
            )
            below = 0
            for i, child in enumerate(children):
                if bounds[i] < bounds[i + 1]:
                    below = cover(child, bounds[i], bounds[i + 1])
                else:
                    helpers.append(view.digest(child))
            return below + 1

        height = cover(self._root_idx, 0, len(keys))
        return TreeMultiproof(
            height=height,
            nodes=tuple(nodes),
            helpers=tuple(helpers),
            leaves=tuple(leaves),
        )

    # -- suppressed maintenance (Algorithms 1 & 2) --------------------------------

    def gen_update_proof(self, new_key: int) -> "UpdateSpine":
        """Algorithm 1: extract the right-most branch as the ``UpdVO``.

        Must be called *before* inserting ``new_key``; appends only
        (``new_key`` greater than every existing key) are supported,
        matching the monotonic-ID assumption of Section IV-C.
        """
        if self._max_key is not None and new_key <= self._max_key:
            raise ReproError(
                "UpdVO generation requires monotonically increasing keys"
            )
        if self._count == 0:
            return UpdateSpine(internal_levels=(), leaf_entries=())
        view = self.store
        internal_levels: list[tuple[bytes, ...]] = []
        node = self._root_idx
        while not view.is_leaf(node):
            digests = view.child_digests(node)
            internal_levels.append(tuple(digests[:-1]))
            node = view.child(node, view.count(node) - 1)
        leaf_entries = tuple(_leaf_digests(view, node))
        return UpdateSpine(
            internal_levels=tuple(internal_levels), leaf_entries=leaf_entries
        )


class LeafCursor:
    """A finger on one tree for boundary lookups whose targets ascend.

    A join walk probes a tree with targets that only grow, so most
    probes land in the leaf the previous one reached, or in one nearby.
    The finger keeps the path to the current leaf — per internal node
    its children, their cached minimum keys and the slot taken — plus
    the leaf's keys and its upper bound (the minimum key of the deepest
    right sibling on the path, i.e. the tree's next key).  :meth:`seek`
    answers from the leaf while the target stays below that bound;
    otherwise it climbs only while the target is at or beyond the
    subtree's upper bound and re-descends from there.  A smaller target
    than the last one, or a tree that has changed size, starts over from
    the root.  No digest is read.

    :meth:`MBTree.locate` is the oracle: for every target both name the
    same two keys.
    """

    __slots__ = ("_tree", "_count", "_last", "_frames", "_keys", "_bound")

    def __init__(self, tree: MBTree) -> None:
        self._tree = tree
        self._count = -1  # nothing cached: the first seek descends
        self._last = 0
        #: Root-to-leaf internal nodes: [children, minimum keys, slot
        #: taken, upper bound of the node's own key range].
        self._frames: list[list] = []
        self._keys: list[int] = []
        self._bound: int | None = None

    def seek(self, target: int) -> tuple[int | None, int | None]:
        """The keys bracketing ``target``: ``(largest <=, smallest >)``."""
        tree = self._tree
        if tree._count != self._count or target < self._last:
            self._count = tree._count
            self._frames = []
            self._keys = []
            if self._count == 0:
                self._bound = None
                return None, None
            self._descend(tree._root_idx, None, target)
        elif self._bound is not None and target >= self._bound:
            frames = self._frames
            # The root's range is unbounded, so the climb stops there
            # at the latest.
            while frames[-1][3] is not None and target >= frames[-1][3]:
                frames.pop()
            self._descend(*self._route(frames[-1], target), target)
        self._last = target
        keys = self._keys
        rank = bisect_right(keys, target)
        return (
            keys[rank - 1] if rank else None,
            keys[rank] if rank < len(keys) else self._bound,
        )

    @staticmethod
    def _route(frame: list, target: int) -> tuple[int, int | None]:
        """Move a frame's slot forward to ``target``'s child.

        Returns the child and the upper bound of its key range: the next
        sibling's minimum, or the node's own bound for the last child.
        """
        children, minima, slot, outer = frame
        last = len(children) - 1
        while slot < last and target >= minima[slot + 1]:
            slot += 1
        frame[2] = slot
        return children[slot], minima[slot + 1] if slot < last else outer

    def _descend(self, node: int, bound: int | None, target: int) -> None:
        """Route ``target`` from ``node`` (key range below ``bound``)."""
        view = self._tree.store
        while not view.is_leaf(node):
            children = view.children(node)
            frame = [children, [view.min_key(c) for c in children], 0, bound]
            self._frames.append(frame)
            node, bound = self._route(frame, target)
        self._keys = [
            view.leaf_key(node, slot) for slot in range(view.count(node))
        ]
        self._bound = bound


@dataclass(frozen=True)
class UpdateSpine:
    """The ``UpdVO`` of Algorithm 1: the tree's right-most branch.

    ``internal_levels`` lists, top-down, the digests of each right-most
    internal node's children *except the last* (the branch continues
    there); ``leaf_entries`` holds every entry digest of the right-most
    leaf.
    """

    internal_levels: tuple[tuple[bytes, ...], ...]
    leaf_entries: tuple[bytes, ...]

    def byte_size(self) -> int:
        """Serialised size in bytes (charged as ``C_txdata``)."""
        digests = sum(len(level) for level in self.internal_levels)
        digests += len(self.leaf_entries)
        # One length byte per level plus the digests themselves.
        return 32 * digests + len(self.internal_levels) + 2

    def serialise(self) -> bytes:
        """Canonical wire encoding (what actually rides in the tx)."""
        out = [len(self.internal_levels).to_bytes(1, "big")]
        for level in self.internal_levels:
            out.append(len(level).to_bytes(1, "big"))
            out.extend(level)
        out.append(len(self.leaf_entries).to_bytes(1, "big"))
        out.extend(self.leaf_entries)
        return b"".join(out)

    @classmethod
    def deserialise(cls, data: bytes) -> "UpdateSpine":
        """Parse the canonical wire encoding."""
        view = memoryview(data)
        offset = 0

        def take(n: int) -> bytes:
            """Consume exactly ``n`` bytes or fail."""
            nonlocal offset
            chunk = bytes(view[offset : offset + n])
            if len(chunk) != n:
                raise IntegrityError("truncated UpdVO payload")
            offset += n
            return chunk

        n_levels = take(1)[0]
        levels = []
        for _ in range(n_levels):
            n_digests = take(1)[0]
            levels.append(tuple(take(32) for _ in range(n_digests)))
        n_entries = take(1)[0]
        entries = tuple(take(32) for _ in range(n_entries))
        if offset != len(data):
            raise IntegrityError("trailing bytes in UpdVO payload")
        return cls(internal_levels=tuple(levels), leaf_entries=entries)


def reconstruct_root(spine: UpdateSpine, hash_fn: HashFn = sha3) -> bytes:
    """Recompute the pre-insertion root hash from an ``UpdVO``.

    The smart contract compares this against its stored root to verify
    the SP's update proof (Algorithm 2, line 1).  Returns
    ``EMPTY_DIGEST`` for the empty-tree spine.
    """
    if not spine.leaf_entries and not spine.internal_levels:
        return EMPTY_DIGEST
    current = leaf_digest(spine.leaf_entries, hash_fn)
    for level in reversed(spine.internal_levels):
        current = node_digest(level + (current,), hash_fn)
    return current


def compute_updated_root(
    spine: UpdateSpine,
    new_entry: bytes,
    fanout: int,
    hash_fn: HashFn = sha3,
) -> bytes:
    """Algorithm 2's root recomputation: append ``new_entry`` and re-fold.

    Handles cascading node splits with the same ``ceil((F+1)/2)`` policy
    as :class:`MBTree`, so the returned digest equals the real tree's
    root after the corresponding insertion — verified by tests.
    """
    half = (fanout + 2) // 2
    entries = spine.leaf_entries + (new_entry,)
    if len(entries) > fanout:
        carry = [
            leaf_digest(entries[:half], hash_fn),
            leaf_digest(entries[half:], hash_fn),
        ]
    else:
        carry = [leaf_digest(entries, hash_fn)]
    for level in reversed(spine.internal_levels):
        children = list(level) + carry
        if len(children) > fanout:
            carry = [
                node_digest(children[:half], hash_fn),
                node_digest(children[half:], hash_fn),
            ]
        else:
            carry = [node_digest(children, hash_fn)]
    if len(carry) == 2:
        return node_digest(carry, hash_fn)
    return carry[0]
