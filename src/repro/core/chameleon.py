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

Every node is opened once, as a whole: ``Lambda_pos = a^{r_pos}`` opens
slot 1 and every child slot of ``c_pos`` together (DESIGN.md §6.1).  An
insertion therefore hands the SP two openings — the new node's and its
parent's, whose child slot the collision just filled — and the SP keeps
one per node, overwriting the parent's.

What a query shows of a tree is its *node table*
(:class:`ChameleonMultiproof`): the root's opening, then one row per
node the query needs, each with its ``<id, h(o)>``, its commitment and
its opening, plus the commitments of the children no row shows.  The SP
slices the rows out of the tree's flat buffer
(:meth:`ChameleonTreeSP.multiproof`); the client authenticates them all
under the on-chain ``<c_0, cnt>`` (:meth:`ChameleonMultiproof.authenticate`)
and then answers the join's probes from the authenticated ``(position,
id)`` pairs of the rows marked read.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.mbtree import Entry, entry_digest
from repro.core.nodestore import ChameleonStore
from repro.core.query.vo import HeldNodeTable, varint_size
from repro.core.wire import put_varint, read_varint
from repro.crypto import vc
from repro.crypto.hashing import token_hasher
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

    ``<cnt, o, h(o), c_pos, Lambda_pos, Lambda_par>`` — the object itself
    travels separately; this records the cryptographic material: the
    new node's commitment and whole-vector opening, and its parent's
    opening after the collision that hung the new node in child slot
    ``j + 1``.
    """

    position: int
    object_id: int
    object_hash: bytes
    commitment: int  # c_pos
    opening: int  # Lambda_pos
    parent_opening: int  # Lambda_par, replacing the parent's previous one
    parent_position: int
    child_index: int  # j, 1-based


#: Child bits fit one flag byte beside the read bit: arity at most 7.
MAX_ARITY = 7

#: ``(position, node, children) -> bool`` — records or recalls one
#: whole-vector opening (see :meth:`ChameleonMultiproof.authenticate`).
StatementCheck = Callable[[int, bytes, list[bytes]], bool]

#: Row bytes before the shipped children: ``id(8) || h(o)(32)``, then
#: ``c`` and ``Lambda`` of ``value_bytes`` each.
_ENTRY = 40

_U64 = struct.Struct(">Q")

#: Hash state seeded with the table-token tag; copied per table.
_TOKEN_HASHER = token_hasher("repro/chameleon-table-token")

#: How many children a flag byte ships (bits 1..7).
_SHIPPED = tuple(bin(flags >> 1).count("1") for flags in range(256))


def scan_rows(
    buf: bytes, pos: int, count: int, arity: int, value_bytes: int
) -> tuple[list[tuple[int, int, int]], int]:
    """Walk a node table's root and ``count`` rows from ``buf[pos:]``.

    Returns one ``(position, offset, flags)`` per node — the root first,
    as position 0 — where ``offset`` is where the node's fields start
    (after the flag byte; for the root, at ``Lambda_0``), counted from
    ``pos``, and the offset in ``buf`` behind the last row.  This is the
    table's structural check, shared by the wire decoder and the
    verifier; it needs no ``cnt`` and touches no group element, and it
    fails closed: flag bits only for read (bit 0, never on the root) and
    the ``arity`` children; positions strictly ascending from 1; every
    row's parent (BFS arithmetic) present, the root included; no child
    both shipped by its parent and a row of its own; every row inside
    the buffer; and every node not read the parent of some row — a node
    the table shows for nothing is refused like an unread entry.
    """
    if not 1 <= arity <= MAX_ARITY:
        raise VerificationError(f"node table arity {arity} out of range")
    fixed = _ENTRY + 2 * value_bytes
    limit = 2 << arity
    size = len(buf)
    if 1 + value_bytes + count * (2 + fixed) > size - pos:
        raise VerificationError("node table longer than its payload")
    start = pos
    try:
        flags = buf[pos]
        pos += 1
        if flags >= limit or flags & 1:
            raise VerificationError(f"invalid root flags {flags} in node table")
        rows = [(0, pos - start, flags)]
        pos += value_bytes * (1 + _SHIPPED[flags])
        seen = {0}
        # Only the flags of nodes that ship a child are kept for the check.
        shipping = {0: flags} if flags else {}
        hanging = {0}
        previous = 0
        for _ in range(count):
            position = buf[pos]
            pos += 1
            if position > 0x7F:
                position, pos = read_varint(buf, pos - 1)
            flags = buf[pos]
            pos += 1
            if position <= previous:
                raise VerificationError(
                    "node table positions are not strictly ascending"
                )
            parent = (position - 1) // arity
            if parent not in seen:
                raise VerificationError(
                    f"node table lacks the parent of position {position}"
                )
            if shipping and parent in shipping and (
                shipping[parent] >> (position - parent * arity) & 1
            ):
                raise VerificationError(
                    f"node table ships position {position} and shows its row"
                )
            hanging.discard(parent)
            rows.append((position, pos - start, flags))
            pos += fixed
            if flags > 1:
                if flags >= limit:
                    raise VerificationError(
                        f"invalid row flags {flags} in node table"
                    )
                pos += value_bytes * _SHIPPED[flags]
                shipping[position] = flags
            seen.add(position)
            if not flags & 1:
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


def expand_rows(
    buf: bytes,
    pos: int,
    count: int,
    arity: int,
    value_bytes: int,
    held: dict[int, bytes],
    rebuilt: dict[int, bytes],
) -> tuple[bytes, int]:
    """The cold body of the held-node table at ``buf[pos:]``, and its end.

    The table is a node table's body in which a node may be *short*: the
    root's flag bit 0 set (the read bit, never set on the root), or a
    row's position varint carrying ``position << 1 | 1``; a short node is
    its flag byte alone.  Its fields — ``Lambda_0`` for the root, ``id ||
    h(o) || c || Lambda`` for a row, then the shipped children's
    commitments — are rebuilt from ``held[position]``, the statement the
    client's cache holds for it (``shape || node || children``, see
    :mod:`repro.core.proofcache`): a shipped child ``j`` is the node's
    ``j``-th filled child slot.  A full node is copied as it stands.
    Nothing is checked here beyond what rebuilding needs — the body goes
    through :func:`scan_rows` and the verifier like any other — and a
    short node the client holds no statement for, or whose flags ship a
    child its statement lacks, is a :class:`~repro.errors.VerificationError`.
    ``rebuilt`` memoises each short row's cold bytes by ``(position << 1
    | 1) << 8 | flags`` and belongs to ``held`` alone: a session meets
    the same nodes query after query.  Runs off the end with an
    ``IndexError``, which the caller maps to its truncation error.
    """
    if not 1 <= arity <= MAX_ARITY:
        raise VerificationError(f"node table arity {arity} out of range")
    if 1 + 2 * count > len(buf) - pos:
        raise VerificationError("node table longer than its payload")
    width = value_bytes
    fixed = _ENTRY + 2 * width
    get = held.get
    out = bytearray()
    flags = buf[pos]
    pos += 1
    if flags & 1:
        flags ^= 1
        out.append(flags)
        out += _held_fields(get(0), 0, flags, width)
    else:
        out.append(flags)
        end = pos + width * (1 + _SHIPPED[flags])
        out += buf[pos:end]
        pos = end
    memo = rebuilt.get
    for _ in range(count):
        marked = buf[pos]
        if marked > 0x7F:
            marked, pos = read_varint(buf, pos)
        else:
            pos += 1
        flags = buf[pos]
        pos += 1
        if marked & 1:
            key = marked << 8 | flags
            row = memo(key)
            if row is None:
                position = marked >> 1
                row = bytearray()
                put_varint(row, position)
                row.append(flags)
                row += _held_fields(get(position), position, flags, width)
                row = rebuilt[key] = bytes(row)
            out += row
            continue
        position = marked >> 1
        if position < 0x80:
            out.append(position)
        else:
            put_varint(out, position)
        out.append(flags)
        end = pos + fixed + width * _SHIPPED[flags]
        out += buf[pos:end]
        pos = end
    if pos > len(buf):
        raise VerificationError("truncated node table")
    return bytes(out), pos


def _held_fields(
    statement: bytes | None, position: int, flags: int, width: int
) -> bytes:
    """A short node's fields — ``Lambda_0`` for the root, ``id || h(o) ||
    c || Lambda`` for a row — and the child slots its ``flags`` ship, cut
    from the statement the session holds for it: ``shape || c_0 ||
    Lambda_0 || children`` or ``shape || id || h(o) || c || Lambda ||
    children``, the shape byte being bit 7 for the root and the count of
    filled child slots."""
    if statement is None:
        raise VerificationError(
            f"short row for node {position}, which the session does not hold"
        )
    shape = statement[0]
    filled = shape & 0x7F
    node = 1 + (_ENTRY + 2 * width if position else 2 * width)
    if (
        shape >> 7 != (not position)
        or flags >> (filled + 1)
        or len(statement) != node + filled * width
    ):
        raise VerificationError(
            f"short row for node {position} does not match the node held"
        )
    return b"".join(
        [
            statement[1 if position else 1 + width : node],
            *[
                statement[node + j * width : node + (j + 1) * width]
                for j in range(filled)
                if flags >> j + 1 & 1
            ],
        ]
    )


@dataclass(frozen=True, eq=True)
class ChameleonMultiproof:
    """One keyword tree's share of a query: its node table.

    Every node the query needs of the tree appears exactly once: the
    root, then one row per node below it in ascending position order,
    closed under :func:`parent_position` — an entry the join read, or an
    ancestor of one.  The body is::

        u8 flags || Lambda_0 || shipped children
        ( varint position || u8 flags || id(8) || h(o)(32) || c_pos
          || Lambda_pos || shipped children ) *

    Flag bit 0 marks a row the join *read* (an entry row; never the
    root), bit ``j`` says child ``j``'s commitment is *shipped*: written
    after the node's opening, in child order, because the child is not a
    row of its own.  Group elements take ``value_bytes`` each.  Each
    ``Lambda`` opens its node's whole vector — slot 1 ``h(id || h(o))``
    (empty at the root), slot ``j + 1`` child ``j``'s commitment — so a
    node's children are covered by its own opening, and which slot of
    which parent a row hangs in is BFS arithmetic on its position: a
    row cannot be re-hung elsewhere without changing the statement it —
    and its parent — are checked by.

    ``body`` is those bytes, ``count`` the number of rows below the
    root.  The SP slices them out of the tree's flat buffer
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
        """The table whose root and ``count`` rows start at ``buf[pos]``, and their end.

        The rows are validated and kept as the bytes they arrived as.
        """
        rows, end = scan_rows(buf, pos, count, arity, value_bytes)
        table = cls(arity, value_bytes, count, buf[pos:end])
        object.__setattr__(table, "_rows", rows)
        return table, end

    def __reduce__(self):
        # The wire fields only: the row scan is redone on the far side.
        return (
            ChameleonMultiproof,
            (self.arity, self.value_bytes, self.count, self.body),
        )

    def rows(self) -> list[tuple[int, int, int]]:
        """``(position, offset, flags)`` per node, root first; validated once.

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

    def entries(self) -> tuple[list[int], list[tuple[int, bytes]]]:
        """The read rows' positions and ``(id, h(o))``, ascending.

        Read off the validated structure alone: they are authenticated
        once :meth:`authenticate` (or a recall of it) has said so.
        """
        body = self.body
        unpack = _U64.unpack_from
        read = [(position, at) for position, at, flags in self.rows() if flags & 1]
        return [position for position, _ in read], [
            (unpack(body, at)[0], body[at + 8 : at + _ENTRY]) for _, at in read
        ]

    @property
    def leaves(self) -> list[tuple[int, bytes]]:
        """The ``(id, h(o))`` of the read rows, ascending (as on the wire)."""
        return self.entries()[1]

    def cache_token(self) -> bytes:
        """Collision-resistant digest of the whole table.

        Tagged hash (:func:`~repro.crypto.hashing.token_hasher`) over
        ``arity || value_bytes || count || body`` —
        fixed-width fields, then the body, so the encoding is injective.
        With the modulus, ``c_0`` and ``cnt`` it is the verification-
        cache key of :meth:`authenticate`'s verdict, which reads nothing
        else (see :mod:`repro.core.proofcache`).  Computed once per
        table, without a row scan: the SP hashes the tables a client may
        hold, and equal tokens are equal bytes, whose rows the client
        checked when it first read them.
        """
        token = self.__dict__.get("_token")
        if token is None:
            if not 0 <= self.count < len(self.body):
                raise VerificationError("node table has more rows than bytes")
            hasher = _TOKEN_HASHER.copy()
            hasher.update(
                bytes((self.arity,))
                + self.value_bytes.to_bytes(4, "big")
                + self.count.to_bytes(8, "big")
            )
            hasher.update(self.body)
            token = hasher.digest()
            object.__setattr__(self, "_token", token)
        return token

    def byte_size(self) -> int:
        """Serialised size in bytes: arity, row count, root and rows."""
        return 1 + varint_size(self.count) + len(self.body)

    def statement(self, node: bytes, children: list[bytes]) -> vc.Statement:
        """One node's ``(c, messages, Lambda)`` from the bytes it arrived as.

        ``node`` is ``c_0 || Lambda_0`` for the root, ``id || h(o) || c
        || Lambda`` for a row; ``children`` the commitments of its filled
        child slots, in order (the rest are empty).
        """
        width = self.value_bytes
        if len(node) == 2 * width:
            first = None
        else:
            object_id = _U64.unpack_from(node)[0]
            first = entry_digest(object_id, node[8:_ENTRY])
        messages = [first]
        messages += [int.from_bytes(child, "big") for child in children]
        messages += [None] * (self.arity - len(children))
        return (
            int.from_bytes(node[-2 * width : -width], "big"),
            messages,
            int.from_bytes(node[-width:], "big"),
        )

    def authenticate(
        self, check: StatementCheck, root_commitment: int, count: int
    ) -> tuple[list[int], list[tuple[int, bytes]]]:
        """The one CVC membership check, for every node of the table.

        Under the on-chain ``<c_0, cnt>``: each position lies in
        ``[1, cnt]``; each node's child slots are filled exactly up to
        ``cnt`` — a child at a position ``<= cnt`` is a row or shipped,
        none beyond ``cnt`` is shipped — and the node's opening must open
        its commitment (``c_0`` at the root) to slot 1 ``h(id || h(o))``
        (empty at the root) and those children's commitments.  Positions
        are therefore authenticated, not trusted.  ``check(position,
        node, children)`` records, recalls or performs one such
        statement (see :meth:`statement`).  Returns the read rows'
        positions and their ``(id, h(o))``, ascending by position
        (:meth:`entries`).
        """
        body = self.body
        width = self.value_bytes
        arity = self.arity
        fixed = _ENTRY + 2 * width
        rows = self.rows()
        at = {position: offset + _ENTRY for position, offset, _ in rows[1:]}
        if root_commitment >> (8 * width):
            raise VerificationError(
                f"c_0 does not fit the table's {width}-byte elements"
            )
        root = root_commitment.to_bytes(width, "big")
        for position, offset, flags in rows:
            if position > count:
                raise VerificationError(
                    f"position {position} outside the committed count {count}"
                )
            if position:
                end = offset + fixed
                node = body[offset:end]
            else:
                end = offset + width
                node = root + body[offset:end]
            children = []
            child = position * arity
            for j in range(1, arity + 1):
                child += 1
                if flags >> j & 1:
                    if child > count:
                        raise VerificationError(
                            f"node {position} ships child {child}, beyond "
                            f"the committed count {count}"
                        )
                    children.append(body[end : end + width])
                    end += width
                elif child <= count:
                    start = at.get(child)
                    if start is None:
                        raise VerificationError(
                            f"child {child} of node {position} is neither a "
                            "row nor shipped"
                        )
                    children.append(body[start : start + width])
            if not check(position, node, children):
                raise VerificationError(
                    f"opening of node {position}, or a commitment it holds, "
                    "is out of range"
                )
        return self.entries()


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
        if not 1 <= arity <= MAX_ARITY:
            raise ReproError(f"tree arity must be 1..{MAX_ARITY}, got {arity}")
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
        two trapdoor openings — one per touched node, of its whole
        vector — prove them.  The tree changes only once both exist.
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
            opening=self.cvc.open_vector(aux_pos),
            parent_opening=self.cvc.open_vector(aux_par),
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

    Stores the insertion proofs streamed by the DO — per node its
    commitment and the latest opening of its whole vector — and cuts
    node tables out of them for query processing.  All node material lives in
    a flat :class:`~repro.core.nodestore.ChameleonStore` buffer —
    positions are BFS-contiguous, so the position-to-record map is pure
    index arithmetic over the records, and the whole tree snapshots/ships
    as one buffer.  IDs ascend with positions, so the tree also keeps
    them as one list, ``ids`` (position ``p``'s ID is ``ids[p - 1]``):
    each insertion appends to it, a restore rebuilds it from the
    records, and a probe is one ``bisect_right`` over it.  It is never
    persisted or pickled.  ``value_bytes`` is the group-element width
    (``ceil(modulus_bits / 8)``).
    """

    def __init__(
        self,
        root_commitment: int,
        arity: int = DEFAULT_ARITY,
        value_bytes: int = 128,
    ) -> None:
        self.store = ChameleonStore.create(arity=arity, value_bytes=value_bytes)
        self.store.root_commitment = root_commitment
        self.ids: list[int] = []

    # -- flat-buffer snapshots ----------------------------------------------------

    def to_blob(self) -> bytes:
        """Snapshot the whole tree as one nodestore-v1 buffer."""
        return self.store.to_blob()

    @classmethod
    def from_blob(cls, blob: bytes | bytearray | memoryview) -> "ChameleonTreeSP":
        """Restore a tree from :meth:`to_blob` output (one buffer read)."""
        tree = cls.__new__(cls)
        tree.store = store = ChameleonStore.from_blob(blob)
        tree.ids = [store.object_id(pos) for pos in range(1, store.count + 1)]
        return tree

    def __getstate__(self) -> dict:
        return {"blob": self.to_blob()}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(vars(ChameleonTreeSP.from_blob(state["blob"])))

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
        """Ingest one DO insertion proof (in position order).

        Appends the new node and replaces its parent's opening, which
        the collision that filled the parent's child slot made stale.
        """
        count = self.store.count
        expected = count + 1
        if proof.position != expected:
            raise ReproError(
                f"insertion proofs must arrive in order; expected position "
                f"{expected}, got {proof.position}"
            )
        if count and proof.object_id <= self.ids[-1]:
            raise ReproError("object IDs must be strictly increasing")
        self.store.append(
            object_id=proof.object_id,
            object_hash=proof.object_hash,
            commitment=proof.commitment,
            opening=proof.opening,
        )
        parent, _ = parent_position(proof.position, self.arity)
        self.store.set_opening(parent, proof.parent_opening)
        self.ids.append(proof.object_id)

    def id_at_position(self, pos: int) -> int:
        """The object ID stored at a 1-based position."""
        if not 1 <= pos <= self.count:
            raise ReproError(f"position {pos} outside tree of size {self.count}")
        return self.ids[pos - 1]

    def rank_of(self, target: int) -> int:
        """Number of stored IDs ``<= target``; also the largest one's position."""
        return bisect_right(self.ids, target)

    def position_of(self, object_id: int) -> int | None:
        """``getPos``: position of an exact ID, or None."""
        rank = self.rank_of(object_id)
        if rank and self.ids[rank - 1] == object_id:
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

    def multiproof(
        self,
        positions: tuple[int, ...],
        held: bytes = b"",
        sizes: frozenset[int] = frozenset(),
    ) -> ChameleonMultiproof | HeldNodeTable:
        """The node table over ``positions`` (ascending, unique, non-empty).

        One read row per position, one row per further ancestor below
        the root, and the commitment of every child that is not a row
        shipped in its parent's; the fields are sliced out of the store's
        records, never parsed.

        ``held`` is a client's bitmap of the positions it holds under
        this ``cnt`` (bit ``p % 8`` of byte ``p // 8`` for position
        ``p``).  The one walk of the table's nodes (:meth:`_rows`) then
        writes each held node short and every other row behind its
        marked position: the result is a :class:`HeldNodeTable`.  The
        cold table is returned instead when no node of the table is
        held, and is written beside the short one, in the same walk,
        when its size is one of ``sizes`` (the client holds a whole
        table of that size, which only the cold bytes can match).
        """
        if not positions:
            raise ReproError("a node table needs at least one position")
        count = self.count
        if positions[0] < 1 or positions[-1] > count:
            raise ReproError(f"positions outside tree of size {count}")
        if any(a >= b for a, b in zip(positions, positions[1:])):
            raise ReproError("positions must be strictly ascending")
        arity = self.arity
        width = self.store.value_bytes
        entries = set(positions)
        needed = set(entries)
        for position in positions:
            position = (position - 1) // arity
            while position and position not in needed:
                needed.add(position)
                position = (position - 1) // arity
        order = sorted(needed)
        cold = not held or self._cold_size(needed, order) in sizes
        body, short_body, short = self._rows(needed, order, entries, held, cold)
        if not short:
            return ChameleonMultiproof(arity, width, len(order), bytes(body))
        return HeldNodeTable(
            arity,
            width,
            len(order),
            bytes(short_body),
            cold=ChameleonMultiproof(arity, width, len(order), bytes(body)) if cold else None,
        )

    def _cold_size(self, needed: set[int], order: list[int]) -> int:
        """The byte size of the cold node table whose rows are ``needed``
        (ancestor-closed; ``order`` the same, ascending), from the
        positions alone.

        Every row is ``position || flags || id || h(o) || c || Lambda``
        plus the commitments of its children that are not rows.  Each
        row is the child of the root or of another row, so those
        children number all children of the root and the rows, less the
        rows: ``arity`` each for a node whose slots all lie within
        ``cnt``, ``cnt % arity`` for the one node whose last slots lie
        beyond, none after it.  A position's varint takes a byte per
        started 7 bits.  Both counts are bisections of ``order``.
        """
        count = self.count
        arity = self.arity
        width = self.store.value_bytes
        rows = len(order)
        varints = rows
        bound = 0x80
        while order and order[-1] >= bound:
            varints += rows - bisect_left(order, bound)
            bound <<= 7
        full = count // arity - 1  # the last node whose slots all fill
        children = arity * (bisect_right(order, full) + (full >= 0))
        partial = count // arity
        if count % arity and (not partial or partial in needed):
            children += count % arity
        return (
            1 + varint_size(rows)  # arity and row count, as ``byte_size`` counts
            + 1 + width  # the root's flags and ``Lambda_0``
            + rows * (1 + _ENTRY + 2 * width)
            + varints
            + width * (children - rows)
        )

    def _rows(
        self,
        needed: set[int],
        order: list[int],
        entries: set[int],
        held: bytes,
        cold: bool,
    ) -> tuple[bytearray, bytearray, int]:
        """:meth:`multiproof`'s one walk over the table whose rows are
        ``needed`` (``order`` ascending, ``entries`` the read ones): the
        cold body, the body with each node ``held`` lists short and every
        other row behind ``position << 1``, and how many nodes went
        short.

        A held node's cold row is written only when ``cold`` is set;
        else the cold body is whole only if no node was held.
        """
        count = self.count
        arity = self.arity
        store = self.store
        # A table of every node (a scan) has no child to ship, and nor
        # has a node whose children all lie beyond ``cnt``.
        complete = len(order) == count
        bits = len(held)
        short = 0
        body = bytearray()
        marked = bytearray()
        for position in (0, *order):
            flags = position in entries
            first = position * arity
            children = ()
            if not complete and first < count:
                children = [
                    child
                    for child in range(first + 1, min(first + arity, count) + 1)
                    if child not in needed
                ]
                for child in children:
                    flags |= 1 << (child - first)
            kept = True
            if held:
                at = position >> 3
                if at < bits and held[at] >> (position & 7) & 1:
                    # A kind-4 row marks its position; a short one is
                    # its flags alone (the root's with bit 0 set).
                    short += 1
                    kept = False
                    if position:
                        put_varint(marked, position << 1 | 1)
                        marked.append(flags)
                    else:
                        marked.append(flags | 1)
                    if not cold:
                        continue
            if position:
                put_varint(body, position)
                fields = len(body)
                body.append(flags)
                store.append_fields(body, position)
            else:
                fields = 0
                body.append(flags)
                body += store.opening_bytes(0)
            for child in children:
                body += store.commitment_bytes(child)
            if held and kept:
                if position:
                    put_varint(marked, position << 1)
                marked += body[fields:]
        return body, marked, short
