"""Multiproofs: one deduplicated proof per tree per query.

A DNF answer that references ``k`` entries of one MB-tree ships ``k``
independent :class:`~repro.core.mbtree.MerklePath` objects whose sibling
digests overlap almost entirely — the dominant VO cost in the paper's
high-selectivity regime (Figs. 11/12).  This module replaces them with a
single :class:`TreeMultiproof` per ``(tree, commitment)``: the shared
siblings are deduplicated, every proven entry is recovered from one
upward fold, and the entry *positions* (the generalized indices the
boundary-adjacency checks need) come out of the same walk for free.

Generalized indices
-------------------
The ethereum/consensus-specs multiproof format addresses binary-tree
nodes by ``gindex = 2**depth + index``.  MB-trees are multi-way with
per-node child counts, so the binary gindex generalizes to a mixed-radix
fold over the root-to-leaf *gpath* (the child index chosen at each
level) and the per-level node *widths*::

    g = 1
    for index, width in zip(gpath, widths):
        g = g * width + index

which reduces to ``2**depth + index`` exactly when every width is 2.
The widths are authenticated: a node's digest hashes the concatenation
of *all* its children, so the verifier's fold fails unless the claimed
slot count matches the committed one.

Wire shape
----------
A :class:`TreeMultiproof` lists the proof's *cover nodes* in DFS
pre-order; each node is a tuple of per-slot codes (``SLOT_HELPER`` — a
supplied sibling digest, ``SLOT_DESCEND`` — the next DFS node,
``SLOT_LEAF`` — a proven ``<id, h(o)>`` entry), with the helper digests
and the leaf entries carried in DFS order.  Verification is a
stack-machine fold (:meth:`TreeMultiproof.fold_root`): structurally
malformed proofs — codes out of place, leftover or missing helpers,
descend below the leaf level — raise
:class:`~repro.errors.VerificationError` before any root comparison.

Construction is *locate, then prove once*: the join's Merkle views hand
out entries whose proof slot is a :class:`DeferredProof`, and
:func:`compress_query_vo` — run on the SP after the per-conjunct VOs are
gathered in call order, so the compressed VO is deterministic for any
shard count or pool mode — asks each touched tree once, through
:func:`prove_keys`, for :meth:`~repro.core.mbtree.MBTree.multiproof`
over everything the query located in it.  :func:`prove_keys` runs
wherever the tree lives (in-process, or inside the affine shard worker),
so per-entry paths are minted only for gate-refused groups and for the
legacy ``vo_version=2`` form (:func:`expand_query_vo`).

Chameleon family
----------------
CVC membership proofs overlap the same way — every entry repeats the
openings of all its ancestors — and :func:`compress_query_vo` gives them
the same treatment: one
:class:`~repro.core.chameleon.ChameleonMultiproof` node table per tree,
entries rewritten to :class:`~repro.core.chameleon.NodeRef`.  The table
and its verification live in :mod:`repro.core.chameleon`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.chameleon import MembershipProof, NodeRef, build_node_table
from repro.core.mbtree import MBTree, entry_digest, leaf_digest, node_digest
from repro.core.query.vo import (
    ConjunctiveVO,
    FullScanVO,
    JoinRound,
    MultiWayJoinVO,
    ProvenEntry,
    QueryVO,
    SemiJoinProbe,
    SemiJoinStage,
    TableRef,
    iter_proven_entries,
    varint_size,
)
from repro.crypto.hashing import digests_equal, tagged_hash
from repro.errors import (
    ReproError,
    StaleProofError,
    UnresolvedProofError,
    VerificationError,
)

#: Slot codes of one cover node, in child order.
SLOT_HELPER = 0  #: sibling digest supplied in the helper list
SLOT_DESCEND = 1  #: child is the next cover node in DFS order
SLOT_LEAF = 2  #: proven entry supplied in the leaf list (leaf level only)

_TOKEN_TAG = "repro/merkle-multiproof-token"


def leaf_gindex(gpath: tuple[int, ...], widths: tuple[int, ...]) -> int:
    """Mixed-radix generalized index of a leaf (root-to-leaf addressing).

    Equals the consensus-specs ``2**depth + index`` when every node
    width is 2; distinct ``(gpath, widths)`` pairs of one tree map to
    distinct integers because each level's digit is bounded by its
    width.
    """
    if len(gpath) != len(widths):
        raise ReproError("gpath and widths must have equal length")
    g = 1
    for index, width in zip(gpath, widths):
        if not 0 <= index < width:
            raise ReproError(f"gpath digit {index} out of range for width {width}")
        g = g * width + index
    return g


@dataclass(frozen=True, eq=True)
class LeafRef(TableRef):
    """A proof slot pointing into the VO's multiproof table.

    ``proof_index`` selects the :class:`TreeMultiproof` in
    :attr:`QueryVO.multiproofs`; ``ordinal`` is the leaf's rank in that
    proof's DFS (= ascending key) leaf order.
    """

    proof_index: int
    ordinal: int

    #: The codec frame that can carry this proof.
    frame_version = 3

    def byte_size(self) -> int:
        """Serialised size in bytes: the two varints.

        The presence and proof-tag bytes belong to the entry framing
        (:meth:`~repro.core.query.vo.ProvenEntry.byte_size` counts
        them), matching the convention of the other proof types.
        """
        return varint_size(self.proof_index) + varint_size(self.ordinal)


class _Frame:
    """One in-flight cover node of the stack-machine fold."""

    __slots__ = ("codes", "depth", "pos", "digests", "gpath")

    def __init__(self, codes, depth, gpath):
        self.codes = codes
        self.depth = depth
        self.pos = 0
        self.digests: list[bytes] = []
        self.gpath = gpath


@dataclass(frozen=True, eq=True)
class TreeMultiproof:
    """One deduplicated membership proof for a set of entries of one tree.

    ``height`` is the number of levels below the root digest (the depth
    every :class:`~repro.core.mbtree.MerklePath` of the tree shares);
    ``nodes`` lists each cover node's slot codes in DFS pre-order (the
    root first); ``helpers`` and ``leaves`` carry the sibling digests
    and the proven ``(object_id, object_hash)`` entries in the order the
    DFS consumes them.
    """

    height: int
    nodes: tuple[tuple[int, ...], ...]
    helpers: tuple[bytes, ...]
    leaves: tuple[tuple[int, bytes], ...]

    #: The codec frame that can carry this table.
    frame_version = 3

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            # Dict-key hashing only; content identity uses cache_token().
            cached = hash(  # reprolint: disable=crypto-hygiene
                (self.height, self.nodes, self.helpers, self.leaves)
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def cache_token(self) -> bytes:
        """Collision-resistant digest over the proof's full content.

        The verification-cache key for a multiproof is ``(root, token)``
        — the gindex-set digest the warmer and the client both derive —
        so a warmed proof hits at query time iff it is byte-identical.
        The encoding is injective: every list is length-prefixed and
        digests are fixed 32-byte words.
        """
        token = self.__dict__.get("_token")
        if token is None:
            buf = bytearray()
            buf += self.height.to_bytes(4, "big")
            buf += len(self.nodes).to_bytes(4, "big")
            for codes in self.nodes:
                buf += len(codes).to_bytes(4, "big")
                buf += bytes(codes)
            buf += len(self.helpers).to_bytes(4, "big")
            for digest in self.helpers:
                buf += digest
            buf += len(self.leaves).to_bytes(4, "big")
            for object_id, object_hash in self.leaves:
                buf += object_id.to_bytes(8, "big")
                buf += object_hash
            token = tagged_hash(_TOKEN_TAG, bytes(buf))
            object.__setattr__(self, "_token", token)
        return token

    def byte_size(self) -> int:
        """Serialised size in bytes (matches the v3 codec encoding)."""
        total = 1 + varint_size(len(self.nodes))
        for codes in self.nodes:
            total += varint_size(len(codes)) + (len(codes) + 3) // 4
        total += varint_size(len(self.helpers)) + 32 * len(self.helpers)
        total += varint_size(len(self.leaves)) + 40 * len(self.leaves)
        return total

    # -- verification ----------------------------------------------------------

    def _walk(self) -> tuple[bytes, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
        """Stack-machine fold: the recomputed root plus the leaf table.

        Returns ``(root_digest, leaf_table)`` where ``leaf_table[i]`` is
        the ``(gpath, widths)`` pair of the ``i``-th proven leaf.  Every
        structural violation — wrong code values, descend at the leaf
        level, leaves above it, unconsumed or missing helpers/leaves/
        nodes, an empty node — fails closed with
        :class:`~repro.errors.VerificationError`.
        """
        cached = self.__dict__.get("_walked")
        if cached is not None:
            return cached

        def fail(reason: str) -> VerificationError:
            return VerificationError(f"malformed multiproof: {reason}")

        if self.height < 1:
            raise fail("height must be at least 1")
        nodes = iter(self.nodes)
        helper_pos = 0
        leaf_pos = 0
        leaf_table: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        try:
            root_codes = next(nodes)
        except StopIteration:
            raise fail("no cover nodes") from None
        stack = [_Frame(root_codes, 0, ())]
        root: bytes | None = None
        while stack:
            frame = stack[-1]
            if not frame.codes:
                raise fail("empty cover node")
            if frame.pos == len(frame.codes):
                digest = (
                    leaf_digest(frame.digests)
                    if frame.depth == self.height - 1
                    else node_digest(frame.digests)
                )
                stack.pop()
                if stack:
                    stack[-1].digests.append(digest)
                    stack[-1].pos += 1
                else:
                    root = digest
                continue
            code = frame.codes[frame.pos]
            if code == SLOT_HELPER:
                if helper_pos >= len(self.helpers):
                    raise fail("helper digests exhausted mid-walk")
                frame.digests.append(self.helpers[helper_pos])
                helper_pos += 1
                frame.pos += 1
            elif code == SLOT_LEAF:
                if frame.depth != self.height - 1:
                    raise fail("proven leaf above the leaf level")
                if leaf_pos >= len(self.leaves):
                    raise fail("leaf entries exhausted mid-walk")
                object_id, object_hash = self.leaves[leaf_pos]
                if len(object_hash) != 32:
                    raise fail("leaf hash is not a 32-byte digest")
                frame.digests.append(entry_digest(object_id, object_hash))
                leaf_table.append(
                    (
                        frame.gpath + (frame.pos,),
                        tuple(len(f.codes) for f in stack),
                    )
                )
                leaf_pos += 1
                frame.pos += 1
            elif code == SLOT_DESCEND:
                if frame.depth >= self.height - 1:
                    raise fail("descend at the leaf level")
                try:
                    child = next(nodes)
                except StopIteration:
                    raise fail("cover nodes exhausted mid-walk") from None
                stack.append(
                    _Frame(child, frame.depth + 1, frame.gpath + (frame.pos,))
                )
            else:
                raise fail(f"unknown slot code {code}")
        if next(nodes, None) is not None:
            raise fail("unconsumed cover nodes")
        if helper_pos != len(self.helpers):
            raise fail("unconsumed helper digests")
        if leaf_pos != len(self.leaves):
            raise fail("unconsumed leaf entries")
        if not leaf_table:
            raise fail("no proven leaves")
        assert root is not None
        walked = (root, tuple(leaf_table))
        object.__setattr__(self, "_walked", walked)
        return walked

    def fold_root(self) -> bytes:
        """Recompute the tree's root digest from the proof content."""
        return self._walk()[0]

    def leaf_position(self, ordinal: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The ``(gpath, widths)`` of one proven leaf by DFS ordinal."""
        table = self._walk()[1]
        if not 0 <= ordinal < len(table):
            raise VerificationError(
                f"multiproof leaf ordinal {ordinal} out of range"
            )
        return table[ordinal]

    def leaf_entry(self, ordinal: int) -> tuple[int, bytes]:
        """The ``(object_id, object_hash)`` of one proven leaf."""
        if not 0 <= ordinal < len(self.leaves):
            raise VerificationError(
                f"multiproof leaf ordinal {ordinal} out of range"
            )
        return self.leaves[ordinal]

    # -- position predicates (gindex re-expressions of the path checks) --------

    def is_leftmost(self, ordinal: int) -> bool:
        """Whether the leaf is provably the tree's first entry."""
        gpath, _ = self.leaf_position(ordinal)
        return all(index == 0 for index in gpath)

    def is_rightmost(self, ordinal: int) -> bool:
        """Whether the leaf is provably the tree's last entry."""
        gpath, widths = self.leaf_position(ordinal)
        return all(index == width - 1 for index, width in zip(gpath, widths))

    def adjacent(self, left_ordinal: int, right_ordinal: int) -> bool:
        """Whether two proven leaves are consecutive in the tree.

        The gindex re-expression of
        :func:`~repro.core.mbtree.paths_adjacent`: the gpaths agree
        until one divergence level where the right leaf's digit is the
        left's plus one; below it the left leaf hugs its subtree's right
        edge and the right leaf its subtree's left edge.
        """
        gpath_l, widths_l = self.leaf_position(left_ordinal)
        gpath_r, widths_r = self.leaf_position(right_ordinal)
        diverged = False
        for level in range(self.height):
            if not diverged:
                if gpath_l[level] == gpath_r[level]:
                    continue
                if gpath_r[level] != gpath_l[level] + 1:
                    return False
                if widths_l[level] != widths_r[level]:
                    return False
                diverged = True
            else:
                if gpath_l[level] != widths_l[level] - 1:
                    return False
                if gpath_r[level] != 0:
                    return False
        return diverged


# ---------------------------------------------------------------------------
# Construction (SP side): locate, then prove once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeferredProof:
    """The proof slot of an entry that was located but not yet proven.

    The Merkle-family views answer the join with entries found by a
    hash-free descent; this marker names the tree they came from —
    ``keyword`` and the ``root`` digest read at locate time — so the
    prove step can later ask each tree once for everything the query
    touched.  ``tree`` is the live tree when the slot was minted in this
    process; it is never serialised (a pickled slot carries none) and
    never compared.  A VO holding one is unfinished: sizing, encoding or
    verifying it fails closed.
    """

    keyword: str
    root: bytes
    tree: MBTree | None = field(default=None, compare=False, repr=False)

    def __reduce__(self):
        return (DeferredProof, (self.keyword, self.root))

    def byte_size(self, value_bytes: int = 0) -> int:
        """Refuse: an unfinished slot has no wire form."""
        raise UnresolvedProofError(
            f"entry of keyword {self.keyword!r} was located but never "
            "proven; run compress_query_vo / expand_query_vo first"
        )


@dataclass(frozen=True)
class ProveRequest:
    """One tree's share of a query's prove step (plain data).

    ``keys`` are the located keys, ascending and unique; ``paths`` asks
    for one :class:`~repro.core.mbtree.MerklePath` per key instead of
    the multiproof.
    """

    keyword: str
    root: bytes
    keys: tuple[int, ...]
    paths: bool


def prove_keys(tree: MBTree | None, request: ProveRequest):
    """Run one :class:`ProveRequest` against the tree that owns it.

    The single prove routine: called in-process on a slot's live tree,
    by the front-end's resolver, and inside the affine shard worker that
    holds the blob.  Returns ``MBTree.multiproof``'s
    ``(TreeMultiproof, path_sizes)`` or, for ``request.paths``, the list
    of per-key paths.  Raises :class:`~repro.errors.StaleProofError`
    when the tree moved since the keys were located.
    """
    if tree is None or not digests_equal(tree.root_hash, request.root):
        raise StaleProofError(
            f"tree of keyword {request.keyword!r} changed between locate "
            "and prove"
        )
    try:
        if request.paths:
            return [tree.prove(key)[1] for key in request.keys]
        return tree.multiproof(request.keys)
    except ReproError as exc:
        raise StaleProofError(
            f"keyword {request.keyword!r}: {exc}"
        ) from exc


#: Resolver for slots that lost their tree to pickling: answers a batch
#: of requests in order (the affine front-end turns it into one
#: ``prove`` call per owning shard).
Prover = Callable[[list[ProveRequest]], list]


class _Group:
    """The deferred entries of one tree (one root) within one VO."""

    __slots__ = ("keyword", "root", "tree", "occurrences", "keys")

    def __init__(self, slot: DeferredProof) -> None:
        self.keyword = slot.keyword
        self.root = slot.root
        self.tree = slot.tree
        self.occurrences: dict[int, int] = {}
        self.keys: tuple[int, ...] = ()  # ascending, set once grouped

    def request(self, paths: bool) -> ProveRequest:
        return ProveRequest(
            keyword=self.keyword, root=self.root, keys=self.keys, paths=paths
        )


def _deferred_groups(entries) -> list[_Group]:
    """Group deferred entries by root, in first-seen order.

    Twin trees (equal roots, hence equal content) share one group, as
    they shared one table when grouping folded every path to its root.
    """
    groups: dict[bytes, _Group] = {}
    for entry in entries:
        slot = entry.proof
        if not isinstance(slot, DeferredProof):
            continue
        group = groups.get(slot.root)
        if group is None:
            group = groups[slot.root] = _Group(slot)
        elif group.tree is None:
            group.tree = slot.tree
        group.occurrences[entry.object_id] = (
            group.occurrences.get(entry.object_id, 0) + 1
        )
    for group in groups.values():
        group.keys = tuple(sorted(group.occurrences))
    return list(groups.values())


def _prove_groups(
    groups: list[_Group], paths: bool, prove: Prover | None
) -> list:
    """One prove call per group: live trees here, the rest via ``prove``."""
    answers: list = [None] * len(groups)
    remote: list[int] = []
    for index, group in enumerate(groups):
        if group.tree is not None:
            answers[index] = prove_keys(group.tree, group.request(paths))
        else:
            remote.append(index)
    if remote:
        if prove is None:
            raise UnresolvedProofError(
                "deferred entries lost their tree to pickling and no "
                "resolver was given"
            )
        replies = prove([groups[index].request(paths) for index in remote])
        for index, reply in zip(remote, replies):
            answers[index] = reply
    return answers


def _finish_deferred(
    entries, prove: Prover | None, table_base: int | None
) -> tuple[dict[tuple[bytes, int], object], list[TreeMultiproof]]:
    """Prove every deferred entry: ``(root, key) -> proof`` plus tables.

    ``table_base`` is the index the first new table will get; ``None``
    means no tables at all (the legacy per-entry form).  A group whose
    table would cost more wire bytes than the paths it replaces keeps
    its paths — the per-group size gate.
    """
    groups = _deferred_groups(entries)
    proofs: dict[tuple[bytes, int], object] = {}
    tables: list[TreeMultiproof] = []
    as_paths = groups
    if table_base is not None:
        as_paths = []
        answers = _prove_groups(groups, False, prove)
        for group, (multiproof, sizes) in zip(groups, answers):
            proof_index = table_base + len(tables)
            keys = group.keys
            refs = [
                LeafRef(proof_index=proof_index, ordinal=ordinal)
                for ordinal in range(len(keys))
            ]
            # Wire delta per occurrence: a LeafRef entry drops the
            # 40-byte id+hash (reconstructed from the leaf table) and
            # swaps the path body for two varints; the table is the cost.
            saved = -multiproof.byte_size()
            for key, ref, size in zip(keys, refs, sizes):
                saved += group.occurrences[key] * (
                    40 + size - ref.byte_size()
                )
            if saved <= 0:
                as_paths.append(group)
                continue
            tables.append(multiproof)
            for key, ref in zip(keys, refs):
                proofs[(group.root, key)] = ref
    for group, paths in zip(as_paths, _prove_groups(as_paths, True, prove)):
        for key, path in zip(group.keys, paths):
            proofs[(group.root, key)] = path
    return proofs, tables


def _map_entry(entry, fn):
    if entry is None:
        return None
    return fn(entry)


def _map_vo_entries(vo: QueryVO, fn) -> QueryVO:
    """Rebuild a VO with every :class:`ProvenEntry` passed through ``fn``.

    The traversal order is the codec's write order, which makes the
    first-seen grouping (and therefore the whole compressed encoding)
    deterministic.
    """
    conjuncts = []
    for conj in vo.conjuncts:
        base = conj.base
        if isinstance(base, MultiWayJoinVO):
            rounds = tuple(
                JoinRound(
                    kind=rnd.kind,
                    probe_tree=rnd.probe_tree,
                    lower=_map_entry(rnd.lower, fn),
                    upper=_map_entry(rnd.upper, fn),
                    next_target=_map_entry(rnd.next_target, fn),
                )
                for rnd in base.rounds
            )
            base = MultiWayJoinVO(
                trees=base.trees,
                first_target=fn(base.first_target),
                rounds=rounds,
            )
        elif isinstance(base, FullScanVO):
            base = FullScanVO(
                keyword=base.keyword,
                entries=tuple(fn(entry) for entry in base.entries),
            )
        stages = tuple(
            SemiJoinStage(
                keyword=stage.keyword,
                probes=tuple(
                    SemiJoinProbe(
                        candidate_id=probe.candidate_id,
                        bloom_absent=probe.bloom_absent,
                        lower=_map_entry(probe.lower, fn),
                        upper=_map_entry(probe.upper, fn),
                    )
                    for probe in stage.probes
                ),
            )
            for stage in conj.stages
        )
        conjuncts.append(
            ConjunctiveVO(
                keywords=conj.keywords,
                base=base,
                stages=stages,
                empty_keyword=conj.empty_keyword,
            )
        )
    return QueryVO(conjuncts=tuple(conjuncts), multiproofs=vo.multiproofs)


def compress_query_vo(vo: QueryVO, prove: Prover | None = None) -> QueryVO:
    """Finish a VO: one deduplicated proof table per tree.

    Merkle family: the join left every entry's proof deferred; entries
    are grouped by the root recorded at locate time (one group per
    ``(tree, commitment)``), each tree is asked once for the multiproof
    over the group's keys (:func:`prove_keys` — on the slot's live tree,
    or through ``prove`` for slots that lost it to pickling), and every
    grouped entry's proof becomes a :class:`LeafRef`.  Chameleon family:
    entries are grouped by the tree their membership proof was assembled
    from, each group becomes one
    :class:`~repro.core.chameleon.ChameleonMultiproof` holding every
    node once, and each proof shrinks to a
    :class:`~repro.core.chameleon.NodeRef`.  Entries that already carry
    a finished proof (and CVC proofs that do not say which tree they
    came from) pass through untouched.  Runs after call-order gathering,
    so the output is identical for any shard count, pool mode or
    executor.

    Merkle compression is size-gated per group: a tree whose multiproof
    table would cost more wire bytes than the per-entry paths it
    replaces (singleton boundary proofs of near-empty keywords,
    typically) gets its paths instead, so the v3 frame is never
    materially larger than v2 at low selectivity.  The gate depends only
    on the group itself, so determinism across executors is preserved.
    A node table needs no gate: the per-entry form ships every node at
    least once, and the entry's own commitment twice.
    """
    entries = list(iter_proven_entries(vo))
    trees: dict[tuple[int, int], list[MembershipProof]] = {}
    for entry in entries:
        proof = entry.proof
        if isinstance(proof, MembershipProof) and proof.tree is not None:
            trees.setdefault(proof.tree, []).append(proof)
    multiproofs: list = list(vo.multiproofs)
    finished, tables = _finish_deferred(entries, prove, len(multiproofs))
    multiproofs.extend(tables)
    table_of: dict[tuple[int, int], int] = {}
    for tree, proofs in trees.items():
        table_of[tree] = len(multiproofs)
        multiproofs.append(build_node_table(tree[1], proofs))
    if not finished and not table_of:
        return vo

    def rewrite(entry: ProvenEntry) -> ProvenEntry:
        proof = entry.proof
        if not isinstance(proof, MembershipProof) or proof.tree is None:
            return _with_finished(entry, finished)
        return ProvenEntry(
            object_id=entry.object_id,
            object_hash=entry.object_hash,
            proof=NodeRef(
                table_index=table_of[proof.tree],
                position=proof.position,
                slot1_proof=proof.slot1_proof,
            ),
        )

    rewritten = _map_vo_entries(vo, rewrite)
    return QueryVO(
        conjuncts=rewritten.conjuncts, multiproofs=tuple(multiproofs)
    )


def _with_finished(
    entry: ProvenEntry, finished: dict[tuple[bytes, int], object]
) -> ProvenEntry:
    """``entry`` with its deferred slot swapped for the finished proof."""
    slot = entry.proof
    if not isinstance(slot, DeferredProof):
        return entry
    return ProvenEntry(
        object_id=entry.object_id,
        object_hash=entry.object_hash,
        proof=finished[(slot.root, entry.object_id)],
    )


def expand_entries(
    entries: list[ProvenEntry], prove: Prover | None = None
) -> list[ProvenEntry]:
    """Finish located entries the legacy way: one path per entry.

    Each tree mints one :class:`~repro.core.mbtree.MerklePath` per
    distinct key; entries that are already finished pass through.
    """
    finished, _ = _finish_deferred(entries, prove, None)
    return [_with_finished(entry, finished) for entry in entries]


def expand_query_vo(vo: QueryVO, prove: Prover | None = None) -> QueryVO:
    """Finish a VO in the uncompressed (``vo_version=2``) form."""
    finished, _ = _finish_deferred(iter_proven_entries(vo), prove, None)
    if not finished:
        return vo
    return _map_vo_entries(vo, lambda entry: _with_finished(entry, finished))
