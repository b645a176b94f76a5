"""Chameleon trees (Section V): CVC-backed positional trees.

A Chameleon tree for keyword ``w`` is a ``q``-ary tree whose node at
position ``pos`` (BFS numbering, root = 0) carries a chameleon vector
commitment over ``q + 1`` slots: slot 1 holds the node's data value and
slots ``2..q+1`` hold the commitments of its children.  Every node's
commitment is *pre-determined* — ``Com(<0,...,0>, PRF(sk, pos||w))`` —
and never changes; insertions use the trapdoor to find collisions that
splice new values into the fixed commitments.  The on-chain footprint is
therefore constant: the root commitment ``c_0`` (written once) and the
object count ``cnt``.

Data binding.  The paper stores ``h(o)`` in slot 1.  We store the tagged
entry digest ``h(id || h(o))`` (the same binding the MB-tree uses for
its leaf entries) so that the *object ID* claimed for a boundary node is
authenticated even when the verifier does not hold the raw object — a
detail the paper leaves implicit but that completeness checking relies
on.

Positions double as an order index: object IDs arrive monotonically and
node positions are assigned in insertion order, so position order equals
ID order.  Adjacency (completeness) checks reduce to ``pos_u == pos_l + 1``
and termination to ``pos == cnt`` (Algorithm 6).

What a query shows of a tree is its *node table*
(:class:`ChameleonMultiproof`): one row per node, entry rows carrying
``<id, h(o)>`` and the slot-1 opening, every row the opening that hangs
it under its parent.  The SP slices the rows out of the tree's flat
buffer (:meth:`ChameleonTreeSP.multiproof`); the client authenticates
them all under the on-chain ``<c_0, cnt>``
(:meth:`ChameleonMultiproof.authenticate`) and then answers the join's
probes from the authenticated ``(position, id)`` pairs itself.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.mbtree import Entry, entry_digest
from repro.core.nodestore import ChameleonStore
from repro.core.query.vo import varint_size
from repro.core.wire import put_varint, read_varint
from repro.crypto import vc
from repro.crypto.prf import node_randomness
from repro.errors import ReproError, VerificationError

#: Default tree arity (the paper's running example uses q = 2).
DEFAULT_ARITY = 2


def parent_position(pos: int, arity: int) -> tuple[int, int]:
    """``getPar(pos)``: the parent position and 1-based child index ``j``."""
    if pos < 1:
        raise ReproError("only non-root positions have parents")
    return (pos - 1) // arity, (pos - 1) % arity + 1


def child_position(parent: int, j: int, arity: int) -> int:
    """Inverse of :func:`parent_position`."""
    if not 1 <= j <= arity:
        raise ReproError(f"child index {j} out of range for arity {arity}")
    return parent * arity + j


@dataclass(frozen=True)
class InsertionProof:
    """What the DO hands the SP for one inserted object (Algorithm 4).

    ``<cnt, o, h(o), c_pos, pi_pos, rho_par_j>`` — the object itself
    travels separately; this records the cryptographic material.
    """

    position: int
    object_id: int
    object_hash: bytes
    commitment: int  # c_pos
    slot1_proof: int  # pi_pos
    parent_link_proof: int  # rho_{par, j}
    parent_position: int
    child_index: int  # j, 1-based


#: ``(position, commitment, slot, message, proof) -> bool`` — one CVC
#: ``Ver``, told which row of the table it serves.
OpeningCheck = Callable[[int, int, int, "int | bytes", int], bool]

_U64 = struct.Struct(">Q")


def scan_rows(
    buf: bytes, pos: int, count: int, arity: int, value_bytes: int
) -> tuple[list[tuple[int, int, int]], int]:
    """Walk ``count`` node-table rows from ``buf[pos:]`` without parsing them.

    Returns one ``(position, offset, flag)`` per row — ``offset`` is
    where the row's fields start, after the flag byte, counted from
    ``pos`` — and the offset in ``buf`` behind the last row.  This is
    the table's whole structural check, shared by the wire decoder and
    the verifier, and it fails closed:
    positions strictly ascending from 1, flags 0 or 1, every row's
    parent (BFS arithmetic) present unless it is the root, every row
    inside the buffer, and every node row (flag 0) the parent of some
    row — a node the table shows for nothing is refused like an unread
    entry.  No group element is touched.
    """
    if not 1 <= arity <= 0xFF:
        raise VerificationError(f"node table arity {arity} out of range")
    node_width = 2 * value_bytes
    entry_width = 40 + 3 * value_bytes
    size = len(buf)
    if count * (2 + node_width) > size - pos:
        raise VerificationError("node table longer than its payload")
    rows: list[tuple[int, int, int]] = []
    seen: set[int] = set()
    hanging: set[int] = set()
    previous = 0
    start = pos
    try:
        for _ in range(count):
            position = buf[pos]
            pos += 1
            if position > 0x7F:
                position, pos = read_varint(buf, pos - 1)
            flag = buf[pos]
            pos += 1
            if flag > 1:
                raise VerificationError(f"invalid row flag {flag} in node table")
            if position <= previous:
                raise VerificationError(
                    "node table positions are not strictly ascending"
                )
            parent = (position - 1) // arity
            if parent:
                if parent not in seen:
                    raise VerificationError(
                        f"node table lacks the parent of position {position}"
                    )
                hanging.discard(parent)
            rows.append((position, pos - start, flag))
            pos += entry_width if flag else node_width
            seen.add(position)
            if not flag:
                hanging.add(position)
            previous = position
    except IndexError:
        raise VerificationError("truncated node table") from None
    if pos > size:
        raise VerificationError("truncated node table")
    if hanging:
        raise VerificationError(
            f"node table row {min(hanging)} hangs no entry (childless node row)"
        )
    return rows, pos


@dataclass(frozen=True, eq=True)
class ChameleonMultiproof:
    """One keyword tree's share of a query: its node table.

    Every node the query needs of the tree appears exactly once, in
    ascending position order, and the table is closed under
    :func:`parent_position`: an *entry row* per ``<id, h(o)>`` some
    probe read, a *node row* per ancestor (below the root) that is not
    itself read.  A row is::

        varint position || u8 flag || [id(8) || h(o)(32)] || c_pos
                        || [slot-1 opening] || link opening

    with the bracketed fields present iff ``flag`` is 1; group elements
    take ``value_bytes`` each.  Which slot of which parent the link
    opening opens is BFS arithmetic on the position, so neither a child
    index nor a parent pointer travels: a row cannot be re-hung
    elsewhere in the tree without changing the position it — and every
    row below it — is checked at.  The openings come last in a row, so
    replacing a node's two by one subvector opening changes a row's
    tail, not its layout.

    ``body`` is the rows' wire bytes, ``count`` how many there are.  The
    SP slices them out of the tree's flat buffer
    (:meth:`ChameleonTreeSP.multiproof`) and the codec frames them by
    reference; nobody turns a group element into an integer until the
    client authenticates the table (:meth:`authenticate`).
    """

    arity: int
    value_bytes: int
    count: int
    body: bytes

    @classmethod
    def from_wire(
        cls, buf: bytes, pos: int, count: int, arity: int, value_bytes: int
    ) -> tuple["ChameleonMultiproof", int]:
        """The table whose ``count`` rows start at ``buf[pos]``, and their end.

        The rows are validated and kept as the bytes they arrived as.
        """
        rows, end = scan_rows(buf, pos, count, arity, value_bytes)
        table = cls(arity, value_bytes, count, buf[pos:end])
        object.__setattr__(table, "_rows", rows)
        return table, end

    def rows(self) -> list[tuple[int, int, int]]:
        """``(position, offset, flag)`` per row; the table validated once.

        Every reader goes through :func:`scan_rows`, so a malformed
        table fails closed on first touch.
        """
        rows = self.__dict__.get("_rows")
        if rows is None:
            rows, end = scan_rows(
                self.body, 0, self.count, self.arity, self.value_bytes
            )
            if end != len(self.body):
                raise VerificationError("node table body outruns its rows")
            object.__setattr__(self, "_rows", rows)
        return rows

    @property
    def leaves(self) -> list[tuple[int, bytes]]:
        """The ``(id, h(o))`` of the entry rows, ascending (as on the wire)."""
        body = self.body
        return [
            (_U64.unpack_from(body, offset)[0], body[offset + 8 : offset + 40])
            for _, offset, flag in self.rows()
            if flag
        ]

    def byte_size(self) -> int:
        """Serialised size in bytes: arity, row count, rows."""
        return 1 + varint_size(self.count) + len(self.body)

    def authenticate(
        self, check: OpeningCheck, root_commitment: int, count: int
    ) -> tuple[list[int], list[tuple[int, bytes]]]:
        """The one CVC membership check, for every row of the table.

        Under the on-chain ``<c_0, cnt>``: each position lies in
        ``[1, cnt]``; each row's link opens the child slot of its
        parent's commitment — ``c_0`` for a child of the root — to the
        row's own, the slot being BFS arithmetic on the position, so
        positions are authenticated, not trusted; and each entry row's
        slot 1 opens to ``h(id || h(o))``.  ``check`` performs, recalls
        or records one opening verification.  Returns the entry rows'
        positions and their ``(id, h(o))``, ascending by position.
        """
        body = self.body
        width = self.value_bytes
        arity = self.arity
        commitments = {0: root_commitment}
        positions: list[int] = []
        leaves: list[tuple[int, bytes]] = []
        for position, offset, flag in self.rows():
            if position > count:
                raise VerificationError(
                    f"position {position} outside the committed count {count}"
                )
            if flag:
                object_id = _U64.unpack_from(body, offset)[0]
                object_hash = body[offset + 8 : offset + 40]
                offset += 40
            commitment = int.from_bytes(body[offset : offset + width], "big")
            offset += width
            if flag:
                if not check(
                    position,
                    commitment,
                    1,
                    entry_digest(object_id, object_hash),
                    int.from_bytes(body[offset : offset + width], "big"),
                ):
                    raise VerificationError(
                        "slot-1 opening of the node commitment failed "
                        f"(position {position})"
                    )
                offset += width
                positions.append(position)
                leaves.append((object_id, object_hash))
            parent, child_index = parent_position(position, arity)
            if not check(
                position,
                commitments[parent],
                child_index + 1,
                commitment,
                int.from_bytes(body[offset : offset + width], "big"),
            ):
                raise VerificationError(
                    f"parent link of position {position} failed "
                    "commitment verification"
                )
            commitments[position] = commitment
        return positions, leaves


class ChameleonTreeDO:
    """The data owner's view of one keyword's Chameleon tree.

    Owns the trapdoor and the per-node ``aux`` values; produces the
    insertion proofs consumed by the SP (Algorithms 3 and 4).
    """

    def __init__(
        self,
        cvc: vc.ChameleonVectorCommitment,
        prf_key: bytes,
        keyword: str,
        arity: int = DEFAULT_ARITY,
    ) -> None:
        if not cvc.has_trapdoor:
            raise ReproError("the DO's tree requires the CVC trapdoor")
        if cvc.arity != arity + 1:
            raise ReproError(
                f"CVC arity must be q+1 = {arity + 1}, got {cvc.arity}"
            )
        self.cvc = cvc
        self.prf_key = prf_key
        self.keyword = keyword
        self.arity = arity
        self.count = 0
        self._aux: dict[int, vc.CVCAux] = {}
        self._commitments: dict[int, int] = {}
        self._setup()

    def _setup(self) -> None:
        """Algorithm 3: create the root node's commitment ``c_0``."""
        self.root_commitment, root_aux = self._fresh_node(0)
        self._aux[0] = root_aux
        self._commitments[0] = self.root_commitment

    def _fresh_node(self, position: int) -> tuple[int, vc.CVCAux]:
        """Pre-determined empty commitment for ``position``."""
        randomiser = node_randomness(self.prf_key, position, self.keyword)
        return self.cvc.commit_empty(randomiser)

    def aux_at(self, position: int) -> vc.CVCAux:
        """The auxiliary information for one node (witness computation)."""
        aux = self._aux.get(position)
        if aux is None:
            raise ReproError(f"no node at position {position}")
        return aux

    def insert(self, object_id: int, object_hash: bytes) -> InsertionProof:
        """Algorithm 4: add an object, returning its insertion proof.

        Two trapdoor collisions splice the object into the fixed
        commitments (the new node's slot 1, its parent's child slot) and
        two trapdoor openings prove them.  The tree changes only once
        both proofs exist.
        """
        pos = self.count + 1
        c_pos, aux_pos = self._fresh_node(pos)
        entry = entry_digest(object_id, object_hash)
        aux_pos = self.cvc.collide(c_pos, 1, None, entry, aux_pos, check=False)
        par, j = parent_position(pos, self.arity)
        aux_par = self.cvc.collide(
            self._commitments[par], j + 1, None, c_pos, self._aux[par], check=False
        )
        proof = InsertionProof(
            position=pos,
            object_id=object_id,
            object_hash=object_hash,
            commitment=c_pos,
            slot1_proof=self.cvc.open_held(1, aux_pos),
            parent_link_proof=self.cvc.open_held(j + 1, aux_par),
            parent_position=par,
            child_index=j,
        )
        self._aux[pos] = aux_pos
        self._aux[par] = aux_par
        self._commitments[pos] = c_pos
        self.count = pos
        return proof

    def retract(self, position: int, parent_aux: vc.CVCAux) -> None:
        """Undo the insertion at ``position``, the tree's latest.

        ``parent_aux`` is what the parent held before it (``insert``
        replaces aux objects, never mutates them).  Safe to call whether
        or not the insertion got as far as changing the tree.
        """
        self._aux.pop(position, None)
        self._commitments.pop(position, None)
        self._aux[parent_position(position, self.arity)[0]] = parent_aux
        self.count = position - 1


class ChameleonTreeSP:
    """The SP's complete copy of one keyword's Chameleon tree.

    Stores the insertion proofs streamed by the DO and cuts node tables
    out of them for query processing.  All node material lives in
    a flat :class:`~repro.core.nodestore.ChameleonStore` buffer —
    positions are BFS-contiguous, so the position-to-record map and the
    ID order are both pure index arithmetic over the records, and the
    whole tree snapshots/ships as one buffer.  ``value_bytes`` is the
    group-element width (``ceil(modulus_bits / 8)``).
    """

    def __init__(
        self,
        root_commitment: int,
        arity: int = DEFAULT_ARITY,
        value_bytes: int = 128,
    ) -> None:
        self.store = ChameleonStore.create(arity=arity, value_bytes=value_bytes)
        self.store.root_commitment = root_commitment

    # -- flat-buffer snapshots ----------------------------------------------------

    def to_blob(self) -> bytes:
        """Snapshot the whole tree as one nodestore-v1 buffer."""
        return self.store.to_blob()

    @classmethod
    def from_blob(cls, blob: bytes | bytearray | memoryview) -> "ChameleonTreeSP":
        """Restore a tree from :meth:`to_blob` output (one buffer read)."""
        tree = cls.__new__(cls)
        tree.store = ChameleonStore.from_blob(blob)
        return tree

    def __getstate__(self) -> dict:
        return {"blob": self.to_blob()}

    def __setstate__(self, state: dict) -> None:
        self.store = ChameleonStore.from_blob(state["blob"])

    @property
    def root_commitment(self) -> int:
        """The invariant root commitment ``c_0``."""
        return self.store.root_commitment

    @root_commitment.setter
    def root_commitment(self, value: int) -> None:
        self.store.root_commitment = value

    @property
    def arity(self) -> int:
        """Tree arity ``q``."""
        return self.store.arity

    def __len__(self) -> int:
        return self.store.count

    @property
    def count(self) -> int:
        """Number of objects in the tree (the on-chain ``cnt``)."""
        return self.store.count

    def apply_insertion(self, proof: InsertionProof) -> None:
        """Ingest one DO insertion proof (in position order)."""
        count = self.store.count
        expected = count + 1
        if proof.position != expected:
            raise ReproError(
                f"insertion proofs must arrive in order; expected position "
                f"{expected}, got {proof.position}"
            )
        if count and proof.object_id <= self.store.object_id(count):
            raise ReproError("object IDs must be strictly increasing")
        self.store.append(
            object_id=proof.object_id,
            object_hash=proof.object_hash,
            commitment=proof.commitment,
            slot1_proof=proof.slot1_proof,
            parent_link_proof=proof.parent_link_proof,
            child_index=proof.child_index,
        )

    def id_at_position(self, pos: int) -> int:
        """The object ID stored at a 1-based position."""
        if not 1 <= pos <= self.count:
            raise ReproError(f"position {pos} outside tree of size {self.count}")
        return self.store.object_id(pos)

    def position_of(self, object_id: int) -> int | None:
        """``getPos``: position of an exact ID, or None."""
        rank = self.store.rank_of(object_id)  # IDs are position-sorted
        if rank > 0 and self.store.object_id(rank) == object_id:
            return rank
        return None

    def entry_at(self, pos: int) -> Entry:
        """The ``<id, h(o)>`` entry at a 1-based position."""
        return Entry(
            key=self.store.object_id(pos),
            value_hash=self.store.object_hash(pos),
        )

    @property
    def run_root(self) -> bytes:
        """``c_0 || cnt``: the bytes that move whenever the tree does.

        What a located run records of this tree (an MB-tree's is its
        root digest), compared again at prove time.
        """
        return self.store.root_bytes + _U64.pack(self.count)

    def multiproof(self, positions: tuple[int, ...]) -> ChameleonMultiproof:
        """The node table over ``positions`` (ascending, unique, non-empty).

        One entry row per position, one node row per further ancestor
        below the root; the fields are sliced out of the store's
        records, never parsed.
        """
        if not positions:
            raise ReproError("a node table needs at least one position")
        if positions[0] < 1 or positions[-1] > self.count:
            raise ReproError(f"positions outside tree of size {self.count}")
        if any(a >= b for a, b in zip(positions, positions[1:])):
            raise ReproError("positions must be strictly ascending")
        arity = self.arity
        entries = set(positions)
        needed = set(entries)
        for position in positions:
            position = (position - 1) // arity
            while position and position not in needed:
                needed.add(position)
                position = (position - 1) // arity
        store = self.store
        body = bytearray()
        for position in sorted(needed):
            entry = position in entries
            put_varint(body, position)
            body.append(entry)
            store.append_fields(body, position, entry)
        return ChameleonMultiproof(
            arity, store.value_bytes, len(needed), bytes(body)
        )
