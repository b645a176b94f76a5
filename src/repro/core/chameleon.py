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
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from repro.core.mbtree import Entry, entry_digest
from repro.core.nodestore import ChameleonStore
from repro.core.query.vo import DEFAULT_VALUE_BYTES, TableRef, varint_size
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


@dataclass(frozen=True)
class ChameleonLink:
    """One parent-child edge in a membership proof."""

    child_index: int  # j in 1..q
    child_commitment: int
    proof: int  # parent's slot j+1 opens to child_commitment

    def byte_size(self, value_bytes: int) -> int:
        """Serialised size in bytes."""
        return 1 + 2 * value_bytes


@dataclass(frozen=True)
class MembershipProof:
    """``Pi``: proves ``<id, h(o)>`` sits at ``position`` under ``c_0``.

    ``links`` runs bottom-up; ``links[0]`` connects the proven node to
    its parent and the last link's parent is the root.  Ancestor nodes
    contribute only their link (their slot-1 payloads are irrelevant),
    matching the paper's example proof shape.

    ``tree`` is SP-side context that never travels: the ``(c_0, q)`` of
    the tree the proof was assembled from.  VO compression groups a
    query's entries on it (the CVC twin of the root digest a Merkle path
    folds to); a proof decoded from the wire has none and stays in its
    per-entry form.  The verifier never reads it.
    """

    position: int
    entry_commitment: int  # c_pos of the proven node
    slot1_proof: int  # pi_pos
    links: tuple[ChameleonLink, ...]
    tree: tuple[int, int] | None = field(
        default=None, compare=False, repr=False
    )

    def byte_size(self, value_bytes: int = DEFAULT_VALUE_BYTES) -> int:
        """Serialised size: commitments and proofs are group elements."""
        base = 9 + 2 * value_bytes  # position + c_pos + pi + link count
        return base + sum(link.byte_size(value_bytes) for link in self.links)

    def nodes(self, arity: int) -> dict[int, "ChameleonNode"]:
        """The proof as ``position -> node`` rows.

        The same shape a :class:`ChameleonMultiproof` holds for a whole
        query, so both go through :func:`verify_position`.  Positions
        come from the child-index chain, so the claimed ``position`` is
        checked here rather than trusted.
        """
        if not self.links:
            raise VerificationError("membership proof has no links to the root")
        if self.links[0].child_commitment != self.entry_commitment:
            raise VerificationError("proof's first link does not carry the node")
        nodes: dict[int, ChameleonNode] = {}
        pos = 0
        for link in reversed(self.links):
            pos = child_position(pos, link.child_index, arity)
            nodes[pos] = ChameleonNode(pos, link.child_commitment, link.proof)
        if pos != self.position:
            raise VerificationError(
                f"claimed position {self.position} does not match the "
                f"link-derived position {pos}"
            )
        return nodes


@dataclass(frozen=True)
class ChameleonNode:
    """One row of a node table: a node and the opening that hangs it."""

    position: int
    commitment: int  # c_pos
    link_proof: int  # the parent's slot j+1 opens to c_pos

    def byte_size(self, value_bytes: int) -> int:
        """Serialised size in bytes."""
        return varint_size(self.position) + 2 * value_bytes


@dataclass(frozen=True)
class ChameleonMultiproof:
    """One keyword tree's shared ancestors for a whole query.

    Every node any proven entry of the tree needs — the entry's own node
    and each ancestor below the root — appears exactly once, in
    ascending position order, and the table is closed under
    :func:`parent_position`.  Which slot of which parent a row's
    ``link_proof`` opens is BFS arithmetic on its position, so neither a
    child index nor a parent pointer travels: a row cannot be re-hung
    elsewhere in the tree without changing the position every entry
    below it is checked at.  ``arity`` makes the table self-describing
    (the decoder checks closure without a proof system); the verifier
    compares it with the scheme's own.
    """

    arity: int
    nodes: tuple[ChameleonNode, ...]

    #: The codec frame that can carry this table.
    frame_version = 4

    def index(self) -> dict[int, ChameleonNode]:
        """``position -> node``, built (and the table validated) once.

        Every reader goes through here, so a table that is unsorted,
        repeats a position or lacks an ancestor fails closed on first
        touch — in the decoder and in the verifier alike.
        """
        index = self.__dict__.get("_index")
        if index is not None:
            return index
        if not 1 <= self.arity <= 0xFF:
            raise VerificationError(f"node table arity {self.arity} out of range")
        index = {}
        previous = 0
        for node in self.nodes:
            if node.position <= previous:
                raise VerificationError(
                    "node table positions are not strictly ascending"
                )
            parent = (node.position - 1) // self.arity
            if parent and parent not in index:
                raise VerificationError(
                    f"node table lacks the parent of position {node.position}"
                )
            index[node.position] = node
            previous = node.position
        object.__setattr__(self, "_index", index)
        return index

    def node(self, position: int) -> ChameleonNode:
        """The row at ``position``; raises when the table has none."""
        node = self.index().get(position)
        if node is None:
            raise VerificationError(f"node table has no position {position}")
        return node

    def byte_size(self, value_bytes: int = DEFAULT_VALUE_BYTES) -> int:
        """Serialised size in bytes (matches the v4 codec encoding)."""
        return (
            1
            + varint_size(len(self.nodes))
            + sum(node.byte_size(value_bytes) for node in self.nodes)
        )


@dataclass(frozen=True)
class NodeRef(TableRef):
    """A proof slot pointing into the VO's node tables.

    What is left of a membership proof once its chain lives in a
    :class:`ChameleonMultiproof`: which table, which row, and the one
    opening no other entry shares — slot 1 of the entry's own node.
    """

    table_index: int
    position: int
    slot1_proof: int  # pi_pos

    #: The codec frame that can carry this proof.
    frame_version = 4

    def byte_size(self, value_bytes: int = DEFAULT_VALUE_BYTES) -> int:
        """Serialised size in bytes (presence/tag bytes are the entry's)."""
        return (
            varint_size(self.table_index)
            + varint_size(self.position)
            + value_bytes
        )


def build_node_table(
    arity: int, proofs: list[MembershipProof]
) -> ChameleonMultiproof:
    """Merge one tree's membership proofs into its node table.

    Raises :class:`~repro.errors.ReproError` when two proofs disagree
    about a position or a chain does not end at the root — an honest SP
    never constructs such inputs.
    """
    nodes: dict[int, ChameleonNode] = {}
    for proof in proofs:
        pos = proof.position
        for link in proof.links:
            known = nodes.get(pos)
            if known is not None:
                if (known.commitment, known.link_proof) != (
                    link.child_commitment,
                    link.proof,
                ):
                    raise ReproError(f"two nodes claim tree position {pos}")
                break  # its ancestors were registered along with it
            nodes[pos] = ChameleonNode(pos, link.child_commitment, link.proof)
            pos = parent_position(pos, arity)[0]
        else:
            if pos != 0:
                raise ReproError("membership proof does not reach the root")
    return ChameleonMultiproof(
        arity=arity, nodes=tuple(nodes[pos] for pos in sorted(nodes))
    )


#: ``(commitment, slot, message, proof) -> bool`` — one CVC ``Ver``.
OpeningCheck = Callable[[int, int, "int | bytes", int], bool]


def verify_position(
    check: OpeningCheck,
    root_commitment: int,
    count: int,
    arity: int,
    node_at: Callable[[int], ChameleonNode],
    position: int,
    object_id: int,
    object_hash: bytes,
    slot1_proof: int,
    authenticated: set[int],
) -> None:
    """The one CVC membership check: ``<id, h(o)>`` sits at ``position``.

    ``node_at(pos)`` yields the claimed node at a position (raising when
    there is none); ``check`` performs — or recalls — one opening
    verification.  The position must lie in ``[1, count]``; slot 1 of
    its node must open to ``h(id || h(o))``; and every link from the
    node up to the on-chain ``c_0`` must open, the slot of each being
    BFS arithmetic on the child's position, so the position itself is
    authenticated, not trusted.  ``authenticated`` holds the positions
    whose chain already reached ``root_commitment`` in this verification
    context and is extended on success only, so a shared ancestor is
    walked once.
    """
    if not 1 <= position <= count:
        raise VerificationError(
            f"position {position} outside the committed count {count}"
        )
    node = node_at(position)
    if not check(
        node.commitment, 1, entry_digest(object_id, object_hash), slot1_proof
    ):
        raise VerificationError("slot-1 opening of the node commitment failed")
    chain: list[int] = []
    while node.position not in authenticated:
        parent, child_index = parent_position(node.position, arity)
        above = node_at(parent) if parent else None
        if not check(
            above.commitment if above else root_commitment,
            child_index + 1,
            node.commitment,
            node.link_proof,
        ):
            raise VerificationError(
                f"parent link of position {node.position} failed "
                "commitment verification"
            )
        chain.append(node.position)
        if above is None:
            break
        node = above
    authenticated.update(chain)


def verify_membership(
    pp: vc.CVCPublicParams,
    root_commitment: int,
    count: int,
    arity: int,
    object_id: int,
    object_hash: bytes,
    proof: MembershipProof,
) -> None:
    """Verify a membership proof against the on-chain ``<c_0, cnt>``.

    Raises :class:`VerificationError` with the failed check's name; the
    position encoded in the link chain is authenticated, not trusted.
    """
    verify_position(
        partial(vc.verify, pp),
        root_commitment,
        count,
        arity,
        proof.nodes(arity).__getitem__,
        proof.position,
        object_id,
        object_hash,
        proof.slot1_proof,
        set(),
    )


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


@dataclass(frozen=True)
class ChameleonBoundarySearch:
    """Boundary lookup result mirroring the MB-tree's, in proof form."""

    target: int
    lower: Entry | None
    lower_proof: MembershipProof | None
    upper: Entry | None
    upper_proof: MembershipProof | None

    @property
    def matched(self) -> bool:
        """True when the lower boundary equals the target key."""
        return self.lower is not None and self.lower.key == self.target


class ChameleonTreeSP:
    """The SP's complete copy of one keyword's Chameleon tree.

    Stores the insertion proofs streamed by the DO and assembles
    membership proofs for query processing.  All node material lives in
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
        value_bytes: int = DEFAULT_VALUE_BYTES,
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

    def prove_membership(self, pos: int) -> MembershipProof:
        """Assemble ``Pi`` for the node at ``pos`` from stored material."""
        return self._prove(pos, {}, (self.root_commitment, self.arity))

    def _prove(
        self,
        pos: int,
        chains: dict[int, tuple[ChameleonLink, ...]],
        tree: tuple[int, int],
    ) -> MembershipProof:
        """``Pi`` for ``pos``; ``chains`` shares link chains between calls.

        A node's chain is its own link followed by its parent's chain,
        so proofs assembled against one ``chains`` map read each node's
        group elements out of the store once and share the link objects.
        """
        if not 1 <= pos <= self.count:
            raise ReproError(f"no node at position {pos}")
        store = self.store
        arity = tree[1]
        missing: list[int] = []
        current = pos
        while current != 0 and current not in chains:
            missing.append(current)
            current = (current - 1) // arity
        for current in reversed(missing):
            link = ChameleonLink(
                child_index=store.child_index(current),
                child_commitment=store.commitment(current),
                proof=store.parent_link_proof(current),
            )
            chains[current] = (link,) + chains.get((current - 1) // arity, ())
        links = chains[pos]
        return MembershipProof(
            position=pos,
            entry_commitment=links[0].child_commitment,
            slot1_proof=store.slot1_proof(pos),
            links=links,
            tree=tree,
        )

    def first(self) -> tuple[Entry, MembershipProof] | None:
        """The first entry with its membership proof, or None."""
        if not self.count:
            return None
        return self.entry_at(1), self.prove_membership(1)

    def last(self) -> tuple[Entry, MembershipProof] | None:
        """The last entry with its membership proof, or None."""
        if not self.count:
            return None
        return self.entry_at(self.count), self.prove_membership(self.count)

    def boundaries(
        self,
        target: int,
        chains: dict[int, tuple[ChameleonLink, ...]] | None = None,
    ) -> ChameleonBoundarySearch:
        """Boundary entries around ``target`` with membership proofs.

        A caller that probes one tree many times (a join walk) passes
        the same ``chains`` map to every call, see :meth:`_prove`; node
        material never changes once appended, so the map cannot go
        stale.
        """
        if chains is None:
            chains = {}
        tree = (self.root_commitment, self.arity)
        idx = self.store.rank_of(target)  # count of ids <= target
        lower = None
        lower_proof = None
        upper = None
        upper_proof = None
        if idx > 0:
            lower = self.entry_at(idx)
            lower_proof = self._prove(idx, chains, tree)
        if idx < self.count:
            upper = self.entry_at(idx + 1)
            upper_proof = self._prove(idx + 1, chains, tree)
        return ChameleonBoundarySearch(
            target=target,
            lower=lower,
            lower_proof=lower_proof,
            upper=upper,
            upper_proof=upper_proof,
        )

    def all_entries(self) -> list[tuple[Entry, MembershipProof]]:
        """Every entry with proof, position order (single-keyword scans)."""
        chains: dict[int, tuple[ChameleonLink, ...]] = {}
        tree = (self.root_commitment, self.arity)
        return [
            (self.entry_at(pos), self._prove(pos, chains, tree))
            for pos in range(1, self.count + 1)
        ]
