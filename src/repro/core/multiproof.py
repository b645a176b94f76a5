"""Multiproofs: one deduplicated proof per tree per query.

A DNF answer that references ``k`` entries of one MB-tree would ship
``k`` independent :class:`~repro.core.mbtree.MerklePath` objects whose
sibling digests overlap almost entirely — the dominant VO cost in the
paper's high-selectivity regime (Figs. 11/12).  This module replaces
them with a single :class:`TreeMultiproof` per ``(tree, commitment)``:
the shared siblings are deduplicated, every proven entry is recovered
from one upward fold, and what the boundary checks need to know about
the entries' *positions* comes out of the same fold as one integer per
leaf.

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
MB-trees are multi-way with per-node child counts; the widths are
authenticated, because a node's digest hashes the concatenation of *all*
its children, so the fold fails unless the claimed slot count matches
the committed one.

Construction is *locate, then prove once*: the join's Merkle views hand
the walk keys and remember them, a conjunct leaves the join as one
:class:`LocatedRun` per tree, and :func:`compress_query_vo` — run on the
SP after the per-conjunct VOs are gathered in call order, so the
finished VO is deterministic for any shard count or pool mode — merges
the runs per root and asks each touched tree once, through
:func:`prove_keys`, for :meth:`~repro.core.mbtree.MBTree.multiproof`
over everything the query read from it.  :func:`prove_keys` runs
wherever the tree lives (in-process, or inside the affine shard worker).
The tables are the whole VO: the client replays the join over them.
Per-entry paths are minted only for the legacy ``vo_version=2`` form
(:func:`expand_query_vo`, which replays the join on the SP to write its
rounds down) and for the cache warmer.

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

from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.chameleon import MembershipProof, NodeRef, build_node_table
from repro.core.mbtree import MBTree, entry_digest, leaf_digest, node_digest
from repro.core.query.join import conjunctive_join
from repro.core.query.vo import (
    ConjunctiveVO,
    FullScanVO,
    JoinRound,
    MultiWayJoinVO,
    ProvenEntry,
    QueryVO,
    ReplayVO,
    SemiJoinProbe,
    SemiJoinStage,
    varint_size,
    written_entries,
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


@dataclass(frozen=True, eq=True)
class TreeMultiproof:
    """One deduplicated membership proof for a set of entries of one tree.

    ``height`` is the number of levels below the root digest (the depth
    every :class:`~repro.core.mbtree.MerklePath` of the tree shares);
    ``nodes`` lists each cover node's slot codes in DFS pre-order (the
    root first); ``helpers`` and ``leaves`` carry the sibling digests
    and the proven ``(object_id, object_hash)`` entries in the order the
    DFS consumes them.

    Positions
    ---------
    The fold also yields, per proven leaf, the number of helper digests
    it had consumed when it reached that leaf — one integer, and all the
    boundary checks need.  Between two consecutive proven leaves the DFS
    passes only over slots that are not proven leaves: a helper (one
    count), or a descend, whose cover node is non-empty and, unless it
    holds the next proven leaf, bottoms out in helpers (at least one
    count).  A helper stands for a committed subtree or entry, and the
    committed tree has no empty node, so every count is at least one
    entry skipped.  Hence:

    * leaves ``i`` and ``i + 1`` are adjacent in the tree iff their
      counts are equal;
    * leaf 0 is the tree's first entry iff its count is 0;
    * the last leaf is the tree's last entry iff its count is
      ``len(helpers)`` (:meth:`_walk` rejects unconsumed helpers, so
      the total is exact).

    ``tests/reference_multiproof.py`` keeps the root-to-leaf
    ``(gpath, widths)`` form of the same three predicates as the oracle.
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
        — the content digest the warmer and the client both derive —
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
        """Serialised size in bytes (matches the codec's table encoding)."""
        total = 1 + varint_size(len(self.nodes))
        for codes in self.nodes:
            total += varint_size(len(codes)) + (len(codes) + 3) // 4
        total += varint_size(len(self.helpers)) + 32 * len(self.helpers)
        total += varint_size(len(self.leaves)) + 40 * len(self.leaves)
        return total

    # -- verification ----------------------------------------------------------

    def _walk(self) -> tuple[bytes, tuple[int, ...]]:
        """Stack-machine fold: the recomputed root plus the leaf counts.

        Returns ``(root_digest, before)`` where ``before[i]`` is the
        number of helpers consumed before the ``i``-th proven leaf.
        Every structural violation — wrong code values, descend at the
        leaf level, leaves above it, unconsumed or missing helpers/
        leaves/nodes, an empty node — fails closed with
        :class:`~repro.errors.VerificationError`.
        """
        cached = self.__dict__.get("_walked")
        if cached is not None:
            return cached

        def fail(reason: str) -> VerificationError:
            return VerificationError(f"malformed multiproof: {reason}")

        if self.height < 1:
            raise fail("height must be at least 1")
        if not self.nodes:
            raise fail("no cover nodes")
        nodes = self.nodes
        helpers = self.helpers
        leaves = self.leaves
        leaf_level = self.height - 1
        next_node = 1
        helper_pos = 0
        before: list[int] = []
        # One frame per open cover node: its codes, the slot the fold is
        # at, and the digests of the slots already folded.
        codes = nodes[0]
        pos = 0
        digests: list[bytes] = []
        stack: list[tuple[tuple[int, ...], int, list[bytes]]] = []
        try:
            while True:
                if pos == len(codes):
                    if not codes:
                        raise fail("empty cover node")
                    digest = (
                        leaf_digest(digests)
                        if len(stack) == leaf_level
                        else node_digest(digests)
                    )
                    if not stack:
                        break
                    codes, pos, digests = stack.pop()
                    digests.append(digest)
                    pos += 1
                    continue
                code = codes[pos]
                if code == SLOT_HELPER:
                    digests.append(helpers[helper_pos])
                    helper_pos += 1
                    pos += 1
                elif code == SLOT_LEAF:
                    if len(stack) != leaf_level:
                        raise fail("proven leaf above the leaf level")
                    object_id, object_hash = leaves[len(before)]
                    if len(object_hash) != 32:
                        raise fail("leaf hash is not a 32-byte digest")
                    digests.append(entry_digest(object_id, object_hash))
                    before.append(helper_pos)
                    pos += 1
                elif code == SLOT_DESCEND:
                    if len(stack) >= leaf_level:
                        raise fail("descend at the leaf level")
                    stack.append((codes, pos, digests))
                    codes = nodes[next_node]
                    next_node += 1
                    pos = 0
                    digests = []
                else:
                    raise fail(f"unknown slot code {code}")
        except IndexError:
            raise fail("helpers, leaves or cover nodes exhausted mid-walk") from None
        if next_node != len(nodes):
            raise fail("unconsumed cover nodes")
        if helper_pos != len(helpers):
            raise fail("unconsumed helper digests")
        if len(before) != len(leaves):
            raise fail("unconsumed leaf entries")
        if not before:
            raise fail("no proven leaves")
        walked = (digest, tuple(before))
        object.__setattr__(self, "_walked", walked)
        return walked

    def fold_root(self) -> bytes:
        """Recompute the tree's root digest from the proof content."""
        return self._walk()[0]

    def helpers_before(self) -> tuple[int, ...]:
        """Per proven leaf, the helpers the fold consumed before it."""
        return self._walk()[1]

    def leaf_entry(self, ordinal: int) -> tuple[int, bytes]:
        """The ``(object_id, object_hash)`` of one proven leaf."""
        if not 0 <= ordinal < len(self.leaves):
            raise VerificationError(
                f"multiproof leaf ordinal {ordinal} out of range"
            )
        return self.leaves[ordinal]

    # -- position predicates (see "Positions" above) ---------------------------

    def _before(self, ordinal: int) -> int:
        before = self._walk()[1]
        if not 0 <= ordinal < len(before):
            raise VerificationError(
                f"multiproof leaf ordinal {ordinal} out of range"
            )
        return before[ordinal]

    def is_leftmost(self, ordinal: int) -> bool:
        """Whether the leaf is provably the tree's first entry."""
        return self._before(ordinal) == 0 and ordinal == 0

    def is_rightmost(self, ordinal: int) -> bool:
        """Whether the leaf is provably the tree's last entry."""
        return (
            self._before(ordinal) == len(self.helpers)
            and ordinal == len(self.leaves) - 1
        )

    def adjacent(self, left_ordinal: int, right_ordinal: int) -> bool:
        """Whether two proven leaves are consecutive in the tree."""
        left = self._before(left_ordinal)
        right = self._before(right_ordinal)
        return right_ordinal == left_ordinal + 1 and left == right


# ---------------------------------------------------------------------------
# Construction (SP side): locate, then prove once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocatedRun:
    """What a join walk read from one tree, before it is proven.

    The Merkle-family views answer the walk with keys found by a
    hash-free descent; a run names the tree they came from — ``keyword``
    and the ``root`` digest read at locate time — and lists the ``keys``
    read, ascending and unique (empty when the walk ended before it
    reached this tree).  ``tree`` is the live tree when the run was made
    in this process; it is never serialised (a pickled run carries none)
    and never compared.  A VO holding one is unfinished: sizing,
    encoding or verifying it fails closed.
    """

    keyword: str
    root: bytes
    keys: tuple[int, ...]
    tree: MBTree | None = field(default=None, compare=False, repr=False)

    def __reduce__(self):
        return (LocatedRun, (self.keyword, self.root, self.keys))


@dataclass(frozen=True)
class ProveRequest:
    """One tree's share of a query's prove step (plain data).

    ``keys`` are the located keys, ascending and unique; ``paths`` asks
    for one ``(entry, MerklePath)`` pair per key instead of the
    multiproof.
    """

    keyword: str
    root: bytes
    keys: tuple[int, ...]
    paths: bool


def prove_keys(tree: MBTree | None, request: ProveRequest):
    """Run one :class:`ProveRequest` against the tree that owns it.

    The single prove routine: called in-process on a run's live tree,
    by the front-end's resolver, and inside the affine shard worker that
    holds the blob.  Returns ``MBTree.multiproof``'s table or, for
    ``request.paths``, ``MBTree.prove``'s pair per key.  Raises
    :class:`~repro.errors.StaleProofError` when the tree moved since the
    keys were located.
    """
    if tree is None or not digests_equal(tree.root_hash, request.root):
        raise StaleProofError(
            f"tree of keyword {request.keyword!r} changed between locate "
            "and prove"
        )
    try:
        if request.paths:
            return [tree.prove(key) for key in request.keys]
        return tree.multiproof(request.keys)
    except ReproError as exc:
        raise StaleProofError(
            f"keyword {request.keyword!r}: {exc}"
        ) from exc


#: Resolver for runs that lost their tree to pickling: answers a batch
#: of requests in order (the affine front-end turns it into one
#: ``prove`` call per owning shard).
Prover = Callable[[list[ProveRequest]], list]


def _prove_runs(
    vo: QueryVO, paths: bool, prove: Prover | None
) -> dict[bytes, object]:
    """Prove what a VO's located runs read: one answer per root.

    Runs are grouped by the root recorded at locate time, in first-seen
    (conjunct, then tree) order — twin trees (equal roots, hence equal
    content) share a group — and their key lists merged.  Each group is
    one :class:`ProveRequest`: answered here when some run still holds
    its live tree, through ``prove`` otherwise.
    """
    groups: dict[bytes, list[LocatedRun]] = {}
    for conj in vo.conjuncts:
        if isinstance(conj.base, ReplayVO):
            for run in conj.base.runs:
                if isinstance(run, LocatedRun) and run.keys:
                    groups.setdefault(run.root, []).append(run)
    answers: dict[bytes, object] = {}
    remote: list[ProveRequest] = []
    for root, runs in groups.items():
        keys = runs[0].keys
        if len(runs) > 1:
            keys = tuple(sorted(set().union(*(run.keys for run in runs))))
        request = ProveRequest(runs[0].keyword, root, keys, paths)
        tree = next((run.tree for run in runs if run.tree is not None), None)
        if tree is not None:
            answers[root] = prove_keys(tree, request)
        else:
            answers[root] = None  # keeps first-seen order
            remote.append(request)
    if remote:
        if prove is None:
            raise UnresolvedProofError(
                "located runs lost their tree to pickling and no resolver "
                "was given"
            )
        for request, reply in zip(remote, prove(remote)):
            answers[request.root] = reply
    return answers


def _map_entry(entry, fn):
    if entry is None:
        return None
    return fn(entry)


def _map_vo_entries(vo: QueryVO, fn) -> QueryVO:
    """Rebuild a VO with every written :class:`ProvenEntry` passed through ``fn``.

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

    Merkle family: the join left, per conjunct and tree, the keys it
    read (:class:`LocatedRun`).  The runs are grouped by root across
    the conjuncts (one group per ``(tree, commitment)``), each tree is
    asked once for the multiproof over the group's merged keys
    (:func:`prove_keys` — on a run's live tree, or through ``prove`` for
    runs that lost it to pickling), and every run becomes the index of
    its tree's table.  Nothing else is shipped: the client re-runs the
    join over the tables.  Chameleon family: entries are grouped by the
    tree their membership proof was assembled from, each group becomes
    one :class:`~repro.core.chameleon.ChameleonMultiproof` holding every
    node once, and each proof shrinks to a
    :class:`~repro.core.chameleon.NodeRef`.  Entries that already carry
    a finished proof (and CVC proofs that do not say which tree they
    came from) pass through untouched.  Runs after call-order gathering,
    so the output is identical for any shard count, pool mode or
    executor.
    """
    multiproofs: list = list(vo.multiproofs)
    table_of: dict[object, int] = {}
    for root, table in _prove_runs(vo, False, prove).items():
        table_of[root] = len(multiproofs)
        multiproofs.append(table)
    trees: dict[tuple[int, int], list[MembershipProof]] = {}
    for conj in vo.conjuncts:
        for entry in written_entries(conj):
            proof = entry.proof
            if isinstance(proof, MembershipProof) and proof.tree is not None:
                trees.setdefault(proof.tree, []).append(proof)
    for tree, proofs in trees.items():
        table_of[tree] = len(multiproofs)
        multiproofs.append(build_node_table(tree[1], proofs))
    if not table_of:
        return vo

    def rewrite(entry: ProvenEntry) -> ProvenEntry:
        proof = entry.proof
        if not isinstance(proof, MembershipProof) or proof.tree is None:
            return entry
        return ProvenEntry(
            object_id=entry.object_id,
            object_hash=entry.object_hash,
            proof=NodeRef(
                table_index=table_of[proof.tree],
                position=proof.position,
                slot1_proof=proof.slot1_proof,
            ),
        )

    if trees:
        vo = _map_vo_entries(vo, rewrite)
    return QueryVO(
        conjuncts=tuple(_with_tables(conj, table_of) for conj in vo.conjuncts),
        multiproofs=tuple(multiproofs),
    )


def _with_tables(conj: ConjunctiveVO, table_of: dict) -> ConjunctiveVO:
    """``conj`` with each located run swapped for its tree's table index."""
    base = conj.base
    if not isinstance(base, ReplayVO):
        return conj
    runs = tuple(
        (table_of[run.root] if run.keys else None)
        if isinstance(run, LocatedRun)
        else run
        for run in base.runs
    )
    return ConjunctiveVO(
        keywords=conj.keywords, base=ReplayVO(base.plan, base.trees, runs)
    )


class PathRun:
    """A tree's path-proven entries as an :class:`IndexView`.

    The view :func:`expand_query_vo` re-runs a located join over to get
    its rounds: ``entries`` are the proven keys of one tree, ascending,
    each with its own :class:`~repro.core.mbtree.MerklePath`.  Two
    entries around a target that some walk located are adjacent in the
    tree, so a ``bisect`` finds the pair the tree itself returned.
    """

    def __init__(self, keyword: str, entries: list[ProvenEntry]) -> None:
        self.keyword = keyword
        self.entries = entries
        self._keys = [entry.object_id for entry in entries]

    def __len__(self) -> int:
        # Never zero: a run the walk did not reach is not an empty tree.
        return len(self.entries) or 1

    def first_proven(self) -> ProvenEntry | None:
        """The smallest entry."""
        return self.entries[0] if self.entries else None

    def boundaries_proven(
        self, target: int
    ) -> tuple[ProvenEntry | None, ProvenEntry | None]:
        """The entries around a target."""
        rank = bisect_right(self._keys, target)
        entries = self.entries
        return (
            entries[rank - 1] if rank else None,
            entries[rank] if rank < len(entries) else None,
        )

    def all_proven(self) -> list[ProvenEntry]:
        """Every entry, in key order."""
        return self.entries

    def definitely_absent(self, object_id: int) -> bool:
        """Whether on-chain filters prove the ID absent."""
        return False


def expand_query_vo(vo: QueryVO, prove: Prover | None = None) -> QueryVO:
    """Finish a VO in the uncompressed (``vo_version=2``) form.

    The legacy frame ships the walk: rounds of entries, each with its
    own path.  Every tree is asked once for the paths of the keys the
    query read from it, and each located conjunct is then re-run — the
    same :func:`~repro.core.query.join.conjunctive_join`, same order and
    plan — over :class:`PathRun` views of those entries, which writes the
    rounds down.
    """
    proven = {
        root: [
            ProvenEntry(entry.key, entry.value_hash, path)
            for entry, path in pairs
        ]
        for root, pairs in _prove_runs(vo, True, prove).items()
    }
    if not proven:
        return vo
    conjuncts = []
    for conj in vo.conjuncts:
        base = conj.base
        if isinstance(base, ReplayVO):
            views = [
                PathRun(tree, proven[run.root] if run.keys else [])
                for tree, run in zip(base.trees, base.runs)
            ]
            _, walked = conjunctive_join(views, order="given", plan=base.plan)
            conj = ConjunctiveVO(
                keywords=conj.keywords, base=walked.base, stages=walked.stages
            )
        conjuncts.append(conj)
    return QueryVO(conjuncts=tuple(conjuncts), multiproofs=vo.multiproofs)
