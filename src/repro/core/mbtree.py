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
path extraction are index arithmetic over that buffer.  Node digests
are stored inline; entry digests are not — a leaf re-hash recomputes
them from the stored ``<key, value_hash>`` slots.  The hash *preimages* —
:func:`entry_payload`, :func:`leaf_payload`, :func:`node_payload` — are
unchanged, so roots, proofs and metered gas are byte-identical to the
object-graph representation this replaced.  :meth:`MBTree.to_blob` /
:meth:`MBTree.from_blob` snapshot and restore the tree as one buffer.

Proof machinery
---------------
The tree proves entries one way: :meth:`MBTree.multiproof` over the keys
asked for, a :class:`~repro.core.multiproof.TreeMultiproof` table that
one fold checks against the root.  A single entry is the 1-leaf table.
The fold also counts, per proven entry, the sibling digests passed
before it, and those counts are all the completeness checks of Section
III-B need (first entry, last entry, two entries adjacent): see
:class:`~repro.core.multiproof.ProvenRun`.  The keys to prove come from
the tree's key column without hashing: :meth:`MBTree.boundaries` is one
``bisect_right`` over it.

Suppressed maintenance (Section IV)
-----------------------------------
:meth:`MBTree.update_spine` reads Algorithm 1's ``UpdVO`` before an
append: the tree's right-most branch (:class:`UpdateSpine`), per
internal level the siblings left of the last child, then the right-most
leaf's entry digests.  Only an append has one.  :func:`fold_update` is
the contract's side of Algorithm 2: it folds the spine to the old root,
appends the new entry digest and re-folds with the split cascade, as a
pure function over an injectable hash callable, so the on-chain code
meters every hash while running the logic the tests check against the
real tree.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from repro.core.nodestore import NIL, MBTreeStore
from repro.core.wire import put_varint
from repro.crypto.hashing import EMPTY_DIGEST, sha3
from repro.errors import IntegrityError, ReproError

if TYPE_CHECKING:
    from repro.core.multiproof import TreeMultiproof
    from repro.core.query.vo import HeldNodeTable

#: Default fan-out, per Section VII-A: the largest F with
#: ``(F-1)*l_d + F*l_p + l_p < 32`` bytes.
DEFAULT_FANOUT = 4
#: The widest fan-out a node record holds: a node keeps ``F + 1``
#: entries until it splits, and its record counts them in one byte.
MAX_FANOUT = 254

_ENTRY_TAG = sha3(b"mb-entry")
_LEAF_TAG = sha3(b"mb-leaf")
_NODE_TAG = sha3(b"mb-node")

HashFn = Callable[[bytes], bytes]


#: What a leaf entry's hash preimage holds before its 40-byte
#: ``key(8) || h(o)(32)`` row — the row a leaf slot stores and a
#: multiproof ships.
ENTRY_PREFIX = _ENTRY_TAG + _ENTRY_TAG
#: What a leaf node's and an internal node's preimages hold before the
#: concatenated digests of their slots.
LEAF_PREFIX = _LEAF_TAG + _LEAF_TAG
NODE_PREFIX = _NODE_TAG + _NODE_TAG


def entry_payload(key: int, value_hash: bytes) -> bytes:
    """Byte layout hashed into a leaf-entry digest."""
    return ENTRY_PREFIX + key.to_bytes(8, "big") + value_hash


def leaf_payload(entry_digests: tuple[bytes, ...] | list[bytes]) -> bytes:
    """Byte layout hashed into a leaf-node digest."""
    return LEAF_PREFIX + b"".join(entry_digests)


def node_payload(child_digests: tuple[bytes, ...] | list[bytes]) -> bytes:
    """Byte layout hashed into an internal-node digest."""
    return NODE_PREFIX + b"".join(child_digests)


#: A node of 1-4 slots as a multiproof starts it: its width, then one
#: byte of codes (filled in once its slots are placed).
_ONE_BYTE_NODE = (b"", *(bytes((width, 0)) for width in range(1, 5)))


@lru_cache(maxsize=256)
def _leaf_keys(width: int) -> struct.Struct:
    """The keys of ``width`` leaf rows, unpacked in one call."""
    return struct.Struct(">" + "Q32x" * width)


def check_fanout(fanout: int) -> None:
    """Refuse a fan-out no MB-tree can have: below 3 or above
    :data:`MAX_FANOUT`."""
    if not 3 <= fanout <= MAX_FANOUT:
        raise ReproError(
            f"MB-tree fan-out must be between 3 and {MAX_FANOUT}, not {fanout}"
        )


def entry_digest(key: int, value_hash: bytes) -> bytes:
    """Digest of one leaf entry."""
    return sha3(entry_payload(key, value_hash))


def leaf_digest(entry_digests) -> bytes:
    """Digest of a leaf node from its entry digests."""
    return sha3(leaf_payload(entry_digests))


def node_digest(child_digests) -> bytes:
    """Digest of an internal node from its child digests."""
    return sha3(node_payload(child_digests))


@dataclass(frozen=True)
class Entry:
    """A leaf entry ``<id, h(o)>``."""

    key: int
    value_hash: bytes


def _leaf_digests(view: MBTreeStore, index: int) -> list[bytes]:
    """Entry digests of a leaf, recomputed from its stored entries.

    The flat record stores only ``<key, value_hash>`` per slot; the
    canonical entry digests it hashes into the leaf digest are cheap to
    rederive and never persisted.
    """
    return [
        entry_digest(key, value_hash) for key, value_hash in view.leaf_entries(index)
    ]


def _leaf_walk(view: MBTreeStore, root: int) -> list[int]:
    """Every key under ``root``, in order, read from the leaf records."""
    out: list[int] = []
    stack = [root]
    while stack:
        rows, children, _ = view.slots(stack.pop())
        if rows:
            out += _leaf_keys(len(rows) // 40).unpack(rows)
        else:
            stack += reversed(children)
    return out


class TreeInsertReport(NamedTuple):
    """What one :meth:`MBTree.insert` read and re-hashed, by record index.

    ``visited`` is the root-to-leaf descent, empty for a tree's first
    entry (which creates the root leaf).  ``rehashed`` lists, bottom-up,
    every record whose digest was recomputed: a split level's left then
    right half, one record per level above, and a new root last.  Splits
    cascade up from the leaf, so the first ``splits`` levels are the ones
    that split; ``new_root`` says the tree gained a root.  The on-chain
    baselines charge gas from it.
    """

    visited: list[int]
    rehashed: list[int]
    splits: int
    new_root: bool


class MBTree:
    """A Merkle B+-tree over ``<id, h(o)>`` entries, flat-buffer backed.

    Supports arbitrary-order insertion (splits propagate upward), though
    the paper's workload only ever appends monotonically increasing IDs.
    All node state lives in ``self.store`` (an
    :class:`~repro.core.nodestore.MBTreeStore`), so the store's buffer is
    always a complete snapshot.  Beside it the tree keeps its *key
    column*: every key, ascending, in one list that each insertion
    extends and a restore rebuilds from the leaves.  It is what the
    SP's probes read (:meth:`boundaries` is one ``bisect_right``); it is
    never persisted or pickled.
    """

    def __init__(self, fanout: int = DEFAULT_FANOUT) -> None:
        check_fanout(fanout)
        self.fanout = fanout
        self.store = MBTreeStore.create(fanout)
        self._root_idx = NIL
        self._keys: list[int] = []

    # -- flat-buffer snapshots ----------------------------------------------------

    def to_blob(self) -> bytes:
        """Snapshot the whole tree as one nodestore-v1 buffer."""
        return self.store.to_blob()

    @classmethod
    def from_blob(cls, blob: bytes | bytearray | memoryview) -> "MBTree":
        """Restore a tree from :meth:`to_blob` output (one buffer read).

        The key column is rebuilt by one walk of the leaves, which must
        find as many keys as the header counts.
        """
        view = MBTreeStore.from_blob(blob)
        tree = cls.__new__(cls)
        tree.fanout = view.fanout
        tree.store = view
        top = view.store.root
        tree._root_idx = top
        count = view.store.count
        if count and top == NIL:
            raise IntegrityError("non-empty MB-tree blob lacks a root")
        tree._keys = _leaf_walk(view, top) if count else []
        if len(tree._keys) != count:
            raise IntegrityError(
                f"MB-tree blob counts {count} keys, its leaves hold "
                f"{len(tree._keys)}"
            )
        return tree

    def __getstate__(self) -> dict:
        # Pickling ships the buffer, not an object graph: no recursion,
        # one memcpy, and the receiver revalidates the header and
        # rebuilds the key column.
        return {"blob": self.to_blob()}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(vars(MBTree.from_blob(state["blob"])))

    # -- basic properties -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def root_hash(self) -> bytes:
        """The tree's authenticated digest (EMPTY_DIGEST when empty)."""
        if not self._keys:
            return EMPTY_DIGEST
        return self.store.digest(self._root_idx)

    @property
    def max_key(self) -> int | None:
        """Largest key inserted so far, or None."""
        return self._keys[-1] if self._keys else None

    @property
    def min_key(self) -> int | None:
        """Smallest key in the tree, or None."""
        return self._keys[0] if self._keys else None

    @property
    def height(self) -> int:
        """Number of levels (0 for an empty tree)."""
        if not self._keys:
            return 0
        levels = 1
        node = self._root_idx
        while not self.store.is_leaf(node):
            levels += 1
            node = self.store.child(node, 0)
        return levels

    def _set_root(self, index: int) -> None:
        self._root_idx = index
        self.store.store.root = index

    # -- insertion --------------------------------------------------------------

    def insert(self, key: int, value_hash: bytes) -> TreeInsertReport:
        """Insert ``<key, value_hash>``; duplicate keys are rejected."""
        view = self.store
        keys = self._keys
        if not keys:
            leaf = view.new_leaf()
            view.leaf_insert(leaf, 0, key, value_hash)
            view.set_digest(leaf, leaf_digest([entry_digest(key, value_hash)]))
            self._set_root(leaf)
            self._add_key(key)
            return TreeInsertReport([], [leaf], 0, True)
        path = self._descend(key)
        leaf = path[-1]
        position, found = view.leaf_find(leaf, key)
        if found:
            raise ReproError(f"duplicate key {key} in MB-tree")
        view.leaf_insert(leaf, position, key, value_hash)
        self._add_key(key)
        return TreeInsertReport(path, *self._split_and_rehash(path))

    def _add_key(self, key: int) -> None:
        """Put ``key`` in the column and write the header through."""
        keys = self._keys
        header = self.store.store
        if not keys or key > keys[-1]:
            keys.append(key)  # the paper's workload: an append
            header.max_key = key
        else:
            insort(keys, key)
        header.count = len(keys)

    def _descend(self, key: int) -> list[int]:
        """Root-to-leaf record path guiding an insertion of ``key``."""
        view = self.store
        path: list[int] = []
        node = self._root_idx
        while True:
            path.append(node)
            if view.is_leaf(node):
                return path
            children = view.children(node)
            node = children[self._slot(children, key)]

    def _slot(self, children: list[int], key: int) -> int:
        """The slot among an internal node's ``children`` ``key`` routes to.

        The last child whose minimum key is at most ``key``, or the first
        child for a smaller key.  Scanning from the right finds an
        append's child, the last, with one comparison.
        """
        min_key = self.store.min_key
        slot = len(children) - 1
        while slot and key < min_key(children[slot]):
            slot -= 1
        return slot

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

    def _split_and_rehash(self, path: list[int]) -> tuple[list[int], int, bool]:
        """Walk the insert path bottom-up, splitting overflowing nodes.

        Returns the re-hashed records, the split count and whether a new
        root was added (:class:`TreeInsertReport`'s last three fields).
        """
        view = self.store
        half = split_point(self.fanout)
        rehashed: list[int] = []
        splits = 0
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
                rehashed += (left, right)
                splits += 1
                carry = (node, (left, right))
            else:
                if not view.is_leaf(node):
                    view.set_min_key(node, view.min_key(view.child(node, 0)))
                self._rehash(node)
                rehashed.append(node)
        if carry is None:
            return rehashed, splits, False
        root = view.new_internal()
        view.set_children(root, list(carry[1]))
        self._rehash(root)
        self._set_root(root)
        rehashed.append(root)
        return rehashed, splits, True

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

        if self._keys:
            yield from walk(self._root_idx)

    def keys(self) -> list[int]:
        """All keys in order: a copy of the key column."""
        return list(self._keys)

    def boundaries(self, target: int) -> tuple[int | None, int | None]:
        """The keys bracketing ``target``: ``(largest <=, smallest >)``.

        One ``bisect_right`` over the key column, no record or digest
        read.  It is the tree's one boundary lookup: the join views and
        the storage absence proofs read it.
        """
        keys = self._keys
        rank = bisect_right(keys, target)
        return (
            keys[rank - 1] if rank else None,
            keys[rank] if rank < len(keys) else None,
        )

    def multiproof(
        self, keys: Sequence[int], held: bytes = b"", base: int = 0, tables: frozenset = frozenset()
    ) -> TreeMultiproof | HeldNodeTable:
        """One deduplicated proof for ``keys``, built in one pass.

        ``keys`` must be strictly ascending and all present.  A single
        DFS over the cover — the nodes on some key's root-to-leaf path —
        partitions the key list by the children's cached minimum keys
        and writes the :class:`~repro.core.multiproof.TreeMultiproof`'s
        wire body in the order its fold consumes it, reading each
        covered record straight from the flat store: a proven entry's
        row is a copy of its 40-byte leaf slot, an entry helper the hash
        of that slot behind :data:`ENTRY_PREFIX`, a subtree helper the
        child's inline digest.  ``keys[i]`` is the proof's leaf ordinal
        ``i`` (DFS order is key order).

        ``held`` lists rows a client holds, bit ``i`` for the ID ``base -
        i``: the same DFS marks each listed proven row and entry helper
        (:func:`~repro.core.multiproof.expand_table`).  The marked table
        goes unless the cold one is a whole table the client holds
        (``tables``: ``(byte_size, cache_token)`` each), for a reference.
        """
        from repro.core.multiproof import SLOT_DESCEND, SLOT_LEAF, TreeMultiproof
        from repro.core.query.vo import HeldNodeTable, varint_size

        if held and tables and len(keys) == len(self._keys):
            # A scan of the whole tree: the table a client most likely holds.
            table = self.multiproof(keys)
            if (len(table.body), table.cache_token()) in tables:
                return table
        if not keys:
            raise ReproError("a multiproof needs at least one key")
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ReproError("multiproof keys must be strictly ascending")
        if not self._keys:
            raise ReproError(f"key {keys[0]} not present in MB-tree")
        view = self.store
        nodes = bytearray()
        helpers = bytearray()
        leaves = bytearray()
        node_count = 0
        bits = 8 * len(held)
        flags = format(int.from_bytes(held, "little"), f"0{bits}b")[::-1].encode().translate(_FLAGS)
        # Per list, a byte per item (1: listed, kept out of ``helpers`` or
        # ``leaves``), and each listed item's bit.
        helper_kinds, helper_bits = bytearray(), []
        leaf_kinds, leaf_bits = bytearray(), []

        def cover(node: int, lo: int, hi: int) -> int:
            """Write the cover under ``node`` for ``keys[lo:hi]``.

            Returns the subtree's height.
            """
            nonlocal node_count, nodes, helpers, leaves
            node_count += 1
            rows, children, fields = view.slots(node)
            width = len(rows) // 40 or len(children)
            # The node's width and codes come before its subtrees: reserve
            # the codes, and fill them in once the slots are placed.
            size = (width + 3) // 4
            if size == 1:
                nodes += _ONE_BYTE_NODE[width]
            else:
                put_varint(nodes, width)
                nodes += bytes(size)
            at = len(nodes) - size
            packed = 0  # every slot a helper (code 0) until marked
            below = 0
            if rows:
                for slot, key in enumerate(_leaf_keys(width).unpack_from(rows)):
                    bit = base - key
                    listed = bits and 0 <= bit < bits and flags[bit]
                    if lo < hi and keys[lo] == key:
                        packed |= SLOT_LEAF << 2 * slot
                        lo += 1
                        if bits:
                            leaf_kinds.append(listed)
                        if listed:
                            leaf_bits.append(bit)
                        else:
                            leaves += rows[40 * slot : 40 * slot + 40]
                    else:
                        if bits:
                            helper_kinds.append(listed)
                        if listed:
                            helper_bits.append(bit)
                        else:
                            helpers += sha3(ENTRY_PREFIX + rows[40 * slot : 40 * slot + 40])
                if lo < hi:
                    raise ReproError(f"key {keys[lo]} not present in MB-tree")
            else:
                # Child i owns the keys below child i+1's minimum (the
                # same routing every descent uses), so one forward sweep
                # splits the sorted key range.
                for slot, child in enumerate(children):
                    cut = hi
                    if lo < hi and slot + 1 < width:
                        cut = bisect_left(keys, fields[slot + 1][0], lo, hi)
                    if lo < cut:
                        packed |= SLOT_DESCEND << 2 * slot
                        below = cover(child, lo, cut)
                    else:
                        if bits:
                            helper_kinds.append(0)
                        helpers += fields[slot][1]
                    lo = cut
            if size == 1:
                nodes[at] = packed
            else:
                nodes[at : at + size] = packed.to_bytes(size, "little")
            return below + 1

        body = bytearray((cover(self._root_idx, 0, len(keys)),))
        put_varint(body, node_count)
        body += nodes
        if helper_bits or leaf_bits:
            counts = len(helper_kinds), len(leaf_kinds)
            cold_size = len(body) + sum(map(varint_size, counts)) + 32 * counts[0] + 40 * counts[1]
            if any(size == cold_size for size, _ in tables):
                table = self.multiproof(keys)  # a whole table the client holds?
                if (cold_size, table.cache_token()) in tables:
                    return table
            _put_marked(body, helpers, helper_kinds, helper_bits, bits)
            _put_marked(body, leaves, leaf_kinds, leaf_bits, bits)
            return HeldNodeTable(0, 0, 0, bytes(body))
        put_varint(body, len(helpers) // 32)
        body += helpers
        put_varint(body, len(leaves) // 40)
        body += leaves
        return TreeMultiproof(bytes(body))

    # -- suppressed maintenance (Algorithms 1 & 2) ------------------------------

    def update_spine(self, key: int) -> "UpdateSpine":
        """Algorithm 1's ``UpdVO`` for appending ``key``, read before it.

        An append follows the last child at every level and lands after
        the right-most leaf's last entry, so its route has no right
        siblings: per internal node on the right-most branch, top-down,
        every child digest but the last's, then the leaf's entry digests.
        A key not above every key in the tree is no append and has no
        spine.  The empty tree's spine is empty.
        """
        if not self._keys:
            return UpdateSpine(internal_levels=(), leaf_entries=())
        if key <= self._keys[-1]:
            raise ReproError(
                "UpdVO generation requires monotonically increasing keys"
            )
        view = self.store
        levels = []
        node = self._root_idx
        while not view.is_leaf(node):
            children = view.children(node)
            levels.append(tuple(map(view.digest, children[:-1])))
            node = children[-1]
        return UpdateSpine(
            internal_levels=tuple(levels),
            leaf_entries=tuple(_leaf_digests(view, node)),
        )


#: A list's per-item bytes (1: listed) as ``0`` / ``1`` digits, and back.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _put_marked(out: bytearray, cold: bytearray, kinds: bytearray, bits: list, limit: int) -> None:
    """Append a held-row list: its count, a bit per item (``kinds``), the
    ``cold`` items, then per listed item the varint of the summary bits
    it skips below the one before (the first, below ``limit``)."""
    put_varint(out, len(kinds))
    mask = int(kinds[::-1].translate(_DIGITS) or b"0", 2)
    out += mask.to_bytes((len(kinds) + 7) // 8, "little")
    out += cold
    skips = [above - bit - 1 for above, bit in zip((limit, *bits), bits)]
    if max(skips, default=0) < 0x80:
        out += bytes(skips)
        return
    for skip in skips:
        if skip < 0x80:
            out.append(skip)
        else:
            put_varint(out, skip)


@dataclass(frozen=True)
class UpdateSpine:
    """The ``UpdVO`` of Algorithm 1: the tree's right-most branch.

    ``internal_levels`` lists, top-down, the digests of each right-most
    internal node's children *except the last* (the branch continues
    there); ``leaf_entries`` holds every entry digest of the right-most
    leaf (:meth:`MBTree.update_spine`).  The contract folds it with
    :func:`fold_update`.
    """

    internal_levels: tuple[tuple[bytes, ...], ...]
    leaf_entries: tuple[bytes, ...]

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


def split_point(fanout: int) -> int:
    """Entries or children an overflowing node keeps on its left.

    ``ceil((F + 1) / 2)``, the paper's split policy: the real tree and
    the contracts' update fold both split here.
    """
    return (fanout + 2) // 2


def fold_update(
    spine: UpdateSpine,
    new_entry: bytes,
    fanout: int,
    hash_fn: HashFn = sha3,
) -> tuple[bytes, bytes]:
    """Algorithm 2 over an append's spine: ``(old_root, new_root)``.

    The spine folds to the pre-insertion root; then ``new_entry`` goes
    in after the leaf's last entry and the spine re-folds, splitting
    every node that overflows at :func:`split_point`, so the new root
    is the real tree's after the same append.  The empty spine (an
    empty tree) folds to ``EMPTY_DIGEST``.  A pure function over an
    injectable hash, so a contract meters every digest it computes.
    """
    leaf = spine.leaf_entries
    levels = spine.internal_levels
    if not leaf and not levels:
        return EMPTY_DIGEST, hash_fn(leaf_payload((new_entry,)))
    old_root = hash_fn(leaf_payload(leaf))
    for left in reversed(levels):
        old_root = hash_fn(node_payload((*left, old_root)))
    half = split_point(fanout)

    def settle(digests: list[bytes], payload: Callable) -> list[bytes]:
        """One node's digest, or two when it overflows and splits."""
        if len(digests) > fanout:
            return [hash_fn(payload(digests[:half])), hash_fn(payload(digests[half:]))]
        return [hash_fn(payload(digests))]

    carry = settle([*leaf, new_entry], leaf_payload)
    for left in reversed(levels):
        carry = settle([*left, *carry], node_payload)
    new_root = carry[0] if len(carry) == 1 else hash_fn(node_payload(carry))
    return old_root, new_root
