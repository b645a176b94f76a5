"""Flat-buffer node storage: every tree node of one ADS in one buffer.

All nodes of one tree live as fixed-width records inside a single
``bytearray``, the shape of Chia's ``merkle_blob``: child references are
record *indices* and digests are stored inline.  A record's index is the
node: the index never deletes a posting (objects are immutable), so a
record, once appended, is never freed or moved — a split keeps its left
half in place and appends the right half.  A whole tree then snapshots
as one buffer write and loads as one buffer read (mmap-friendly), and
crossing a process boundary is a single ``bytes`` copy.

Layout (nodestore format v1, all integers big-endian)
-----------------------------------------------------

64-byte header::

    0   magic        4s   b"RNS1"
    4   version      u16  1
    6   kind         u8   1 = MB-tree, 2 = chameleon
    7   flags        u8   reserved, 0
    8   record_size  u32
    12  param        u32  fan-out (MB-tree) / arity (chameleon)
    16  param2       u32  slot capacity (MB-tree) / value_bytes (chameleon)
    20  extra_len    u32  bytes of tree-level extra data after the header
    24  allocated    u32  record slots present in the buffer
    28  free_head    u32  always NIL (no record is ever freed)
    32  root         u32  root record index (MB-tree), NIL if empty
    36  seq          u32  ``allocated`` (MB-tree), 0 (chameleon)
    40  count        u64  entry count
    48  max_key      u64  largest key (MB-tree; valid iff count > 0)
    56  (reserved)   8 bytes, zero

then ``extra_len`` bytes of tree-level extra data (the chameleon root's
commitment and opening), then ``allocated`` fixed-width records.  Unused
slots are zero, so a store's bytes are a pure function of the operations
applied to it (golden fixtures pin this).

MB-tree record (``record_size = 48 + 40 * (fanout + 1)``)::

    0   type       u8   1 leaf, 2 internal
    1   count      u8   live entries / children
    4   seq        u32  the record's own index
    8   min_key    u64  smallest key under this node
    16  digest     32s
    48  slots:     leaf slot i (40 bytes each):
                       u64 key | 32s value_hash
                   internal slot i (4 bytes each): u32 child index

A leaf slot stores no entry digest: ``h(key || value_hash)`` is
recomputed whenever the leaf is re-hashed.  Records hold up to
``fanout + 1`` leaf slots because an insert lands *before* the overflow
split.  The ``free_head`` and ``seq`` fields are kept so v1 blobs stay
byte-identical; a blob with a free head, a free record (type 0) or a
``seq`` other than its record's index is refused.

Chameleon record (``record_size = 40 + 2 * value_bytes``)::

    0   object_id    u64
    8   object_hash  32s
    40  commitment   value_bytes
    ..  opening      value_bytes   of the node's whole vector

Chameleon positions are BFS-contiguous, so record ``pos - 1`` is node
``pos`` and parent references are pure index arithmetic
(:func:`repro.core.chameleon.parent_position`) — no stored links at all.
A record is one node-table row's fields in wire order; a blob whose
record size is another is refused, not misread.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from repro.errors import IntegrityError, ReproError

MAGIC = b"RNS1"

#: Format version recorded in every blob header and in manifest v3.
NODESTORE_VERSION = 1

#: Null record index (the empty root; the v1 header's free head).
NIL = 0xFFFF_FFFF

KIND_MBTREE = 1
KIND_CHAMELEON = 2

HEADER_SIZE = 64
_HEADER = struct.Struct(">4sHBB8I2Q8x")
assert _HEADER.size == HEADER_SIZE

_OFF_ALLOCATED = 24
_OFF_ROOT = 32
_OFF_SEQ = 36
_OFF_COUNT = 40
_OFF_MAX_KEY = 48

_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


class NodeStore:
    """A growable buffer of fixed-width records, appended and never freed.

    The store knows nothing about tree semantics: it hands out record
    indices (:meth:`alloc`), converts indices to buffer offsets, and keeps the header fields coherent so ``bytes(blob)`` is
    always a complete, loadable snapshot.  The typed field layout lives
    in the :class:`TreeView` subclasses.
    """

    __slots__ = (
        "blob",
        "kind",
        "record_size",
        "param",
        "param2",
        "extra_len",
        "allocated",
    )

    def __init__(
        self,
        kind: int,
        record_size: int,
        param: int,
        param2: int = 0,
        extra_len: int = 0,
    ) -> None:
        if record_size < 8:
            raise ReproError("node records must hold at least 8 bytes")
        self.blob = bytearray(HEADER_SIZE + extra_len)
        self.kind = kind
        self.record_size = record_size
        self.param = param
        self.param2 = param2
        self.extra_len = extra_len
        self.allocated = 0
        _HEADER.pack_into(
            self.blob,
            0,
            MAGIC,
            NODESTORE_VERSION,
            kind,
            0,
            record_size,
            param,
            param2,
            extra_len,
            0,
            NIL,
            NIL,
            0,
            0,
            0,
        )

    @classmethod
    def from_blob(cls, blob: bytes | bytearray | memoryview) -> "NodeStore":
        """Adopt a serialised store, validating the v1 header.

        A free head other than ``NIL`` is refused: no record is ever
        freed, so a blob that names one was not written by this store.
        """
        if len(blob) < HEADER_SIZE:
            raise IntegrityError("node-store blob shorter than its header")
        (
            magic,
            version,
            kind,
            _flags,
            record_size,
            param,
            param2,
            extra_len,
            allocated,
            free_head,
            _root,
            _seq,
            _count,
            _max_key,
        ) = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise IntegrityError("bad node-store magic")
        if version != NODESTORE_VERSION:
            raise IntegrityError(
                f"unsupported node-store version {version}"
            )
        expected = HEADER_SIZE + extra_len + allocated * record_size
        if len(blob) != expected:
            raise IntegrityError(
                f"node-store blob is {len(blob)} bytes, header implies "
                f"{expected}"
            )
        if free_head != NIL:
            raise IntegrityError("node-store blob names a free record")
        store = cls.__new__(cls)
        store.blob = bytearray(blob)
        store.kind = kind
        store.record_size = record_size
        store.param = param
        store.param2 = param2
        store.extra_len = extra_len
        store.allocated = allocated
        return store

    # -- header fields ----------------------------------------------------------

    def _get_u32(self, off: int) -> int:
        return _U32.unpack_from(self.blob, off)[0]

    def _set_u32(self, off: int, value: int) -> None:
        _U32.pack_into(self.blob, off, value)

    @property
    def root(self) -> int:
        """Root record index (NIL when the tree is empty)."""
        return self._get_u32(_OFF_ROOT)

    @root.setter
    def root(self, index: int) -> None:
        self._set_u32(_OFF_ROOT, index)

    @property
    def seq(self) -> int:
        """The header's ``seq`` word (``allocated`` in an MB-tree store)."""
        return self._get_u32(_OFF_SEQ)

    @seq.setter
    def seq(self, value: int) -> None:
        self._set_u32(_OFF_SEQ, value)

    @property
    def count(self) -> int:
        """Entry count recorded in the header."""
        return _U64.unpack_from(self.blob, _OFF_COUNT)[0]

    @count.setter
    def count(self, value: int) -> None:
        _U64.pack_into(self.blob, _OFF_COUNT, value)

    @property
    def max_key(self) -> int:
        """Largest key recorded in the header (valid iff count > 0)."""
        return _U64.unpack_from(self.blob, _OFF_MAX_KEY)[0]

    @max_key.setter
    def max_key(self, value: int) -> None:
        _U64.pack_into(self.blob, _OFF_MAX_KEY, value)

    # -- records ----------------------------------------------------------------

    def offset(self, index: int) -> int:
        """Buffer offset of record ``index`` (pure index arithmetic)."""
        return HEADER_SIZE + self.extra_len + index * self.record_size

    def alloc(self) -> int:
        """Append a zeroed record and return its index."""
        index = self.allocated
        self.allocated = index + 1
        self._set_u32(_OFF_ALLOCATED, self.allocated)
        self.blob.extend(bytes(self.record_size))
        return index

    @property
    def byte_size(self) -> int:
        """Total buffer size in bytes."""
        return len(self.blob)

    def to_bytes(self) -> bytes:
        """The complete snapshot: header + extra + records, one buffer."""
        return bytes(self.blob)


class TreeView:
    """Typed view over a :class:`NodeStore`: layout without semantics.

    Subclasses define one record layout each and expose field-level
    reads/writes as index arithmetic over the shared buffer.  Hashing,
    proof assembly and ordering rules stay with the tree classes that
    own the view (:class:`repro.core.mbtree.MBTree`,
    :class:`repro.core.chameleon.ChameleonTreeSP`).
    """

    kind = 0

    __slots__ = ("store",)

    def __init__(self, store: NodeStore) -> None:
        if store.kind != self.kind:
            raise IntegrityError(
                f"blob holds kind {store.kind}, view expects {self.kind}"
            )
        self.store = store

    @property
    def byte_size(self) -> int:
        """Total buffer size in bytes."""
        return self.store.byte_size

    def to_blob(self) -> bytes:
        """Snapshot the whole tree as one buffer."""
        return self.store.to_bytes()


# ---------------------------------------------------------------------------
# MB-tree layout
# ---------------------------------------------------------------------------

_MB_T = 0
_MB_CNT = 1
_MB_SEQ = 4
_MB_MIN = 8
_MB_DIG = 16
_MB_SLOTS = 48
_MB_LEAF_SLOT = 40  # u64 key + 32s value_hash
_MB_CHILD_SLOT = 4

MB_FREE = 0
MB_LEAF = 1
MB_INTERNAL = 2

_LEAF_ENTRY = struct.Struct(">Q32s")
#: A record's type byte and its ``seq``.
_MB_TYPE_SEQ = struct.Struct(">B3xI")
#: A record's cached minimum key and its digest, which follows it.
_MB_MIN_DIGEST = struct.Struct(">Q32s")


@lru_cache(maxsize=256)
def _child_run(count: int) -> struct.Struct:
    """``count`` consecutive u32 child slots (a one-byte count), read in
    one unpack."""
    return struct.Struct(f">{count}I")


def mb_record_size(fanout: int) -> int:
    """v1 MB-tree record size for a given fan-out."""
    return _MB_SLOTS + _MB_LEAF_SLOT * (fanout + 1)


class MBTreeStore(TreeView):
    """The MB-tree's record layout over a :class:`NodeStore`.

    All structural mutation (allocation, entry shifting, splitting,
    child splicing) happens here as buffer arithmetic; digests are
    written by the owning tree through :meth:`set_digest` so this module
    stays hash-agnostic.  A record's index is its node for the tree's
    whole life.
    """

    kind = KIND_MBTREE

    __slots__ = ()

    @classmethod
    def create(cls, fanout: int) -> "MBTreeStore":
        """A fresh, empty MB-tree store."""
        store = NodeStore(
            KIND_MBTREE,
            mb_record_size(fanout),
            param=fanout,
            param2=fanout + 1,
        )
        return cls(store)

    @classmethod
    def from_blob(cls, blob: bytes | bytearray | memoryview) -> "MBTreeStore":
        """Load a serialised MB-tree store, validating the layout.

        Every record must be a node (no free record) whose ``seq`` is its
        own index, and the header's ``seq`` must be ``allocated``.
        """
        store = NodeStore.from_blob(blob)
        if store.kind != KIND_MBTREE:
            raise IntegrityError("blob does not hold an MB-tree store")
        if store.record_size != mb_record_size(store.param):
            raise IntegrityError(
                "MB-tree record size disagrees with the stored fan-out"
            )
        if store.seq != store.allocated:
            raise IntegrityError("MB-tree header seq disagrees with its records")
        for index in range(store.allocated):
            node_type, seq = _MB_TYPE_SEQ.unpack_from(store.blob, store.offset(index))
            if node_type == MB_FREE:
                raise IntegrityError(f"MB-tree record {index} is free")
            if seq != index:
                raise IntegrityError(
                    f"MB-tree record {index} carries seq {seq}"
                )
        return cls(store)

    @property
    def fanout(self) -> int:
        """Tree fan-out recorded in the header."""
        return self.store.param

    # -- per-record fields ------------------------------------------------------

    def node_type(self, index: int) -> int:
        """Record type byte: leaf / internal."""
        return self.store.blob[self.store.offset(index) + _MB_T]

    def is_leaf(self, index: int) -> bool:
        """Whether the record is a leaf node."""
        return self.node_type(index) == MB_LEAF

    def count(self, index: int) -> int:
        """Live entries (leaf) or children (internal) in the record."""
        return self.store.blob[self.store.offset(index) + _MB_CNT]

    def _set_count(self, index: int, value: int) -> None:
        self.store.blob[self.store.offset(index) + _MB_CNT] = value

    def min_key(self, index: int) -> int:
        """Smallest key stored under this node (cached in the record)."""
        return _U64.unpack_from(
            self.store.blob, self.store.offset(index) + _MB_MIN
        )[0]

    def set_min_key(self, index: int, key: int) -> None:
        """Refresh the record's cached minimum key."""
        _U64.pack_into(self.store.blob, self.store.offset(index) + _MB_MIN, key)

    def digest(self, index: int) -> bytes:
        """The node's inline digest."""
        off = self.store.offset(index) + _MB_DIG
        return bytes(self.store.blob[off : off + 32])

    def set_digest(self, index: int, digest: bytes) -> None:
        """Store the node's digest inline."""
        off = self.store.offset(index) + _MB_DIG
        self.store.blob[off : off + 32] = digest

    # -- allocation -------------------------------------------------------------

    def _new_node(self, node_type: int) -> int:
        index = self.store.alloc()
        self.store.seq = self.store.allocated
        blob = self.store.blob
        off = self.store.offset(index)
        blob[off + _MB_T] = node_type
        _U32.pack_into(blob, off + _MB_SEQ, index)
        return index

    def new_leaf(self) -> int:
        """Append an empty leaf record."""
        return self._new_node(MB_LEAF)

    def new_internal(self) -> int:
        """Append an empty internal record."""
        return self._new_node(MB_INTERNAL)

    def slots(self, index: int) -> tuple[bytes, list[int], list[tuple[int, bytes]]]:
        """A node's live slots in one read: ``(rows, children, fields)``.

        For a leaf, ``rows`` holds its ``key(8) || value_hash(32)`` slots
        as one slice and the lists are empty.  For an internal node,
        ``rows`` is empty, ``children`` lists the child record indices
        and ``fields`` each child's ``(min_key, digest)``.
        """
        store = self.store
        blob = store.blob
        off = store.offset(index)
        count = blob[off + _MB_CNT]
        base = off + _MB_SLOTS
        if blob[off + _MB_T] == MB_LEAF:
            return bytes(blob[base : base + _MB_LEAF_SLOT * count]), [], []
        children = list(_child_run(count).unpack_from(blob, base))
        first = store.offset(0) + _MB_MIN
        size = store.record_size
        unpack = _MB_MIN_DIGEST.unpack_from
        return b"", children, [unpack(blob, first + child * size) for child in children]

    # -- leaf slots -------------------------------------------------------------

    def leaf_key(self, index: int, slot: int) -> int:
        """Key of one leaf entry."""
        off = self.store.offset(index) + _MB_SLOTS + _MB_LEAF_SLOT * slot
        return _U64.unpack_from(self.store.blob, off)[0]

    def leaf_value_hash(self, index: int, slot: int) -> bytes:
        """Value hash of one leaf entry."""
        off = self.store.offset(index) + _MB_SLOTS + _MB_LEAF_SLOT * slot + 8
        return bytes(self.store.blob[off : off + 32])

    def leaf_insert(
        self, index: int, position: int, key: int, value_hash: bytes
    ) -> None:
        """Insert one entry into a leaf record, shifting later slots.

        Only the ``<key, value_hash>`` pair is stored; entry digests are
        recomputed by the owning tree on demand (this layout stays
        hash-agnostic, and caching them inline would grow every record
        by ``32 * (fanout + 1)`` bytes).
        """
        blob = self.store.blob
        base = self.store.offset(index) + _MB_SLOTS
        count = self.count(index)
        start = base + _MB_LEAF_SLOT * position
        if position < count:
            end = base + _MB_LEAF_SLOT * count
            blob[start + _MB_LEAF_SLOT : end + _MB_LEAF_SLOT] = blob[start:end]
        _LEAF_ENTRY.pack_into(blob, start, key, value_hash)
        self._set_count(index, count + 1)
        if position == 0:
            self.set_min_key(index, key)

    def leaf_entries(self, index: int) -> list[tuple[int, bytes]]:
        """Every ``(key, value_hash)`` of a leaf, slot order."""
        blob = self.store.blob
        base = self.store.offset(index) + _MB_SLOTS
        return [
            _LEAF_ENTRY.unpack_from(blob, base + _MB_LEAF_SLOT * slot)
            for slot in range(self.count(index))
        ]

    def leaf_find(self, index: int, key: int) -> tuple[int, bool]:
        """Binary-search a leaf: (insertion position, exact match?)."""
        lo, hi = 0, self.count(index)
        while lo < hi:
            mid = (lo + hi) // 2
            mid_key = self.leaf_key(index, mid)
            if mid_key == key:
                return mid, True
            if mid_key < key:
                lo = mid + 1
            else:
                hi = mid
        return lo, False

    # -- internal slots ---------------------------------------------------------

    def child(self, index: int, slot: int) -> int:
        """Child record index in one internal slot."""
        off = self.store.offset(index) + _MB_SLOTS + _MB_CHILD_SLOT * slot
        return _U32.unpack_from(self.store.blob, off)[0]

    def children(self, index: int) -> list[int]:
        """All child record indices, slot order."""
        return list(
            _child_run(self.count(index)).unpack_from(
                self.store.blob, self.store.offset(index) + _MB_SLOTS
            )
        )

    def child_digests(self, index: int) -> list[bytes]:
        """Digests of all children of an internal node."""
        return [self.digest(c) for c in self.children(index)]

    def set_children(self, index: int, child_indices: list[int]) -> None:
        """Overwrite an internal node's child list (new root / rebuild)."""
        blob = self.store.blob
        base = self.store.offset(index) + _MB_SLOTS
        for slot, child in enumerate(child_indices):
            _U32.pack_into(blob, base + _MB_CHILD_SLOT * slot, child)
        self._set_count(index, len(child_indices))
        self.set_min_key(index, self.min_key(child_indices[0]))

    def replace_child(self, index: int, old_child: int, pair: tuple[int, int]) -> None:
        """Splice a split child: ``old_child``'s slot becomes ``pair``."""
        blob = self.store.blob
        base = self.store.offset(index) + _MB_SLOTS
        count = self.count(index)
        for slot in range(count):
            off = base + _MB_CHILD_SLOT * slot
            if _U32.unpack_from(blob, off)[0] == old_child:
                end = base + _MB_CHILD_SLOT * count
                blob[off + 2 * _MB_CHILD_SLOT : end + _MB_CHILD_SLOT] = blob[
                    off + _MB_CHILD_SLOT : end
                ]
                _U32.pack_into(blob, off, pair[0])
                _U32.pack_into(blob, off + _MB_CHILD_SLOT, pair[1])
                self._set_count(index, count + 1)
                if slot == 0:
                    self.set_min_key(index, self.min_key(pair[0]))
                return
        raise ReproError("split child not found under its parent record")

    # -- splitting --------------------------------------------------------------

    def split(self, index: int, half: int) -> tuple[int, int]:
        """Split an overflowing node: ``(index, new right sibling)``.

        The first ``half`` slots stay in place and the slots after them
        are zeroed; the rest move to a record appended as the right
        sibling.  Digests are the caller's job.
        """
        node_type = self.node_type(index)
        count = self.count(index)
        slot = _MB_LEAF_SLOT if node_type == MB_LEAF else _MB_CHILD_SLOT
        base = self.store.offset(index) + _MB_SLOTS
        tail = bytes(self.store.blob[base + slot * half : base + slot * count])
        self.store.blob[base + slot * half : base + slot * count] = bytes(len(tail))
        self._set_count(index, half)

        right = self._new_node(node_type)
        blob = self.store.blob
        off = self.store.offset(right)
        blob[off + _MB_CNT] = count - half
        blob[off + _MB_SLOTS : off + _MB_SLOTS + len(tail)] = tail
        if node_type == MB_LEAF:
            self.set_min_key(right, self.leaf_key(right, 0))
        else:
            self.set_min_key(right, self.min_key(self.child(right, 0)))
        return index, right


# ---------------------------------------------------------------------------
# Chameleon layout
# ---------------------------------------------------------------------------

_CH_FIELDS = 40  # object_id u64 || object_hash 32s


def chameleon_record_size(value_bytes: int) -> int:
    """Chameleon record size for a given group-element width."""
    return _CH_FIELDS + 2 * value_bytes


class ChameleonStore(TreeView):
    """The chameleon tree's record layout over a :class:`NodeStore`.

    Positions are BFS-contiguous and 1-based, so node ``pos`` is record
    ``pos - 1`` and the store needs no links:
    parents are index arithmetic.  Group elements (a node's commitment
    and the opening of its whole vector) are fixed-width big-endian
    integers of ``value_bytes`` bytes — the on-chain word width — and
    the root's invariant commitment ``c_0`` and its opening ``Lambda_0``
    live in the header's extra region.  Every insertion appends one
    record and overwrites one opening: its parent's.
    """

    kind = KIND_CHAMELEON

    __slots__ = ()

    @classmethod
    def create(cls, arity: int, value_bytes: int) -> "ChameleonStore":
        """A fresh, empty chameleon store."""
        store = NodeStore(
            KIND_CHAMELEON,
            chameleon_record_size(value_bytes),
            param=arity,
            param2=value_bytes,
            extra_len=2 * value_bytes,
        )
        return cls(store)

    @classmethod
    def from_blob(
        cls, blob: bytes | bytearray | memoryview
    ) -> "ChameleonStore":
        """Load a serialised chameleon store, validating the layout."""
        store = NodeStore.from_blob(blob)
        if store.kind != KIND_CHAMELEON:
            raise IntegrityError("blob does not hold a chameleon store")
        if store.record_size != chameleon_record_size(store.param2):
            raise IntegrityError(
                "chameleon record size disagrees with the stored width"
            )
        if store.extra_len != 2 * store.param2:
            raise IntegrityError("chameleon extra region width mismatch")
        return cls(store)

    @property
    def arity(self) -> int:
        """Tree arity recorded in the header."""
        return self.store.param

    @property
    def value_bytes(self) -> int:
        """Group-element width in bytes."""
        return self.store.param2

    @property
    def count(self) -> int:
        """Number of nodes (== the on-chain ``cnt``)."""
        return self.store.allocated

    def _pack_int(self, value: int) -> bytes:
        try:
            return value.to_bytes(self.value_bytes, "big")
        except OverflowError as exc:
            raise ReproError(
                f"group element does not fit in {self.value_bytes} bytes"
            ) from exc

    def _element_offset(self, pos: int, which: int) -> int:
        """Where element ``which`` (0 commitment, 1 opening) of ``pos`` lives."""
        vb = self.value_bytes
        if pos == 0:
            return HEADER_SIZE + which * vb
        return self.store.offset(pos - 1) + _CH_FIELDS + which * vb

    def _element(self, pos: int, which: int) -> int:
        off = self._element_offset(pos, which)
        return int.from_bytes(self.store.blob[off : off + self.value_bytes], "big")

    @property
    def root_commitment(self) -> int:
        """The invariant root commitment ``c_0`` (header extra region)."""
        return self._element(0, 0)

    @root_commitment.setter
    def root_commitment(self, value: int) -> None:
        off = self._element_offset(0, 0)
        self.store.blob[off : off + self.value_bytes] = self._pack_int(value)

    @property
    def root_bytes(self) -> bytes:
        """``c_0`` as stored: ``value_bytes`` big-endian bytes."""
        return self.commitment_bytes(0)

    def append(
        self,
        object_id: int,
        object_hash: bytes,
        commitment: int,
        opening: int,
    ) -> int:
        """Append the next node; returns its 1-based position."""
        index = self.store.alloc()
        blob = self.store.blob
        off = self.store.offset(index)
        _U64.pack_into(blob, off, object_id)
        blob[off + 8 : off + _CH_FIELDS] = object_hash
        vb = self.value_bytes
        base = off + _CH_FIELDS
        blob[base : base + vb] = self._pack_int(commitment)
        blob[base + vb : base + 2 * vb] = self._pack_int(opening)
        self.store.count = self.store.allocated
        return index + 1

    def set_opening(self, pos: int, opening: int) -> None:
        """Replace node ``pos``'s opening (``0`` is the root's)."""
        off = self._element_offset(pos, 1)
        self.store.blob[off : off + self.value_bytes] = self._pack_int(opening)

    def object_id(self, pos: int) -> int:
        """Object ID at a 1-based position."""
        return _U64.unpack_from(self.store.blob, self.store.offset(pos - 1))[0]

    def object_hash(self, pos: int) -> bytes:
        """Object hash at a 1-based position."""
        off = self.store.offset(pos - 1) + 8
        return bytes(self.store.blob[off : off + 32])

    def commitment(self, pos: int) -> int:
        """Node commitment ``c_pos`` (``0`` is the root's)."""
        return self._element(pos, 0)

    def opening(self, pos: int) -> int:
        """The opening of node ``pos``'s whole vector (``0`` is the root's)."""
        return self._element(pos, 1)

    def commitment_bytes(self, pos: int) -> bytes:
        """``c_pos`` as stored (``0`` is the root's)."""
        off = self._element_offset(pos, 0)
        return bytes(self.store.blob[off : off + self.value_bytes])

    def opening_bytes(self, pos: int) -> bytes:
        """Node ``pos``'s opening as stored (``0`` is the root's)."""
        off = self._element_offset(pos, 1)
        return bytes(self.store.blob[off : off + self.value_bytes])

    def append_fields(self, out: bytearray, pos: int) -> None:
        """Append node ``pos``'s ``id || h(o) || c || Lambda`` to ``out``.

        The record holds exactly a row's fields in wire order, so this is
        one slice; no group element is parsed.
        """
        off = self.store.offset(pos - 1)
        out += self.store.blob[off : off + self.store.record_size]
