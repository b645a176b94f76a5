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

Construction is *locate, then prove once*: the join's SP views hand the
walk keys and remember them, a conjunct leaves the join as one
:class:`LocatedRun` per tree, and :func:`compress_query_vo` — run on the
SP after the per-conjunct VOs are gathered in call order, so the
finished VO is deterministic for any shard count or pool mode — merges
the runs per tree state and asks each touched tree once, through
:func:`prove_keys`, for its table over everything the query read from
it.  :func:`prove_keys` runs wherever the tree lives (in-process, or
inside the affine shard worker).  The tables are the whole VO: the
client authenticates each and replays the join over it through a
:class:`ProvenRun`.  No per-entry proof is minted on the query path.

Chameleon family
----------------
CVC membership proofs overlap the same way — every entry repeats the
openings of all its ancestors — and take the same route: a Chameleon
view remembers *positions*, and the tree's table is a
:class:`~repro.core.chameleon.ChameleonMultiproof` holding every node
once.  The table and its authentication live in
:mod:`repro.core.chameleon`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import lt

from repro.core.chameleon import ChameleonTreeSP
from repro.core.mbtree import MBTree, entry_digest, leaf_digest, node_digest
from repro.core.query.vo import ConjunctiveVO, QueryVO, ReplayVO, varint_size
from repro.crypto.bloom import BloomFilterChain
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

    :class:`ProvenRun` evaluates all three as one comparison of the
    padded counts; ``tests/reference_multiproof.py`` keeps the
    root-to-leaf ``(gpath, widths)`` form of the predicates as the
    oracle.
    """

    height: int
    nodes: tuple[tuple[int, ...], ...]
    helpers: tuple[bytes, ...]
    leaves: tuple[tuple[int, bytes], ...]

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
        — a content digest — so a proof verified by one query hits in
        a later one iff it is byte-identical.
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


# ---------------------------------------------------------------------------
# Construction (SP side): locate, then prove once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocatedRun:
    """What a join walk read from one tree, before it is proven.

    The SP's views answer the walk with keys found without proving
    anything; a run names the tree they came from — ``keyword`` and the
    ``root`` read at locate time: an MB-tree's root digest, a Chameleon
    tree's ``c_0 || cnt`` — and lists the ``keys`` read (MB-tree keys,
    Chameleon positions), ascending and unique (empty when the walk
    ended before it reached this tree).  ``tree`` is the live tree when
    the run was made in this process; it is never serialised (a pickled
    run carries none) and never compared.  A VO holding one is
    unfinished: sizing, encoding or verifying it fails closed.
    """

    keyword: str
    root: bytes
    keys: tuple[int, ...]
    tree: MBTree | ChameleonTreeSP | None = field(
        default=None, compare=False, repr=False
    )

    def __reduce__(self):
        return (LocatedRun, (self.keyword, self.root, self.keys))


@dataclass(frozen=True)
class ProveRequest:
    """One tree's share of a query's prove step (plain data).

    ``keys`` are the located keys, ascending and unique.
    """

    keyword: str
    root: bytes
    keys: tuple[int, ...]


def prove_keys(tree: MBTree | ChameleonTreeSP | None, request: ProveRequest):
    """Run one :class:`ProveRequest` against the tree that owns it.

    The single prove routine: called in-process on a run's live tree,
    by the front-end's resolver, and inside the affine shard worker that
    holds the blob.  Returns the tree's table over the keys.  Raises
    :class:`~repro.errors.StaleProofError` when the tree moved since the
    keys were located.
    """
    current = None
    if tree is not None:
        current = (
            tree.run_root if isinstance(tree, ChameleonTreeSP) else tree.root_hash
        )
    if current is None or not digests_equal(current, request.root):
        raise StaleProofError(
            f"tree of keyword {request.keyword!r} changed between locate "
            "and prove"
        )
    try:
        return tree.multiproof(request.keys)
    except ReproError as exc:
        raise StaleProofError(
            f"keyword {request.keyword!r}: {exc}"
        ) from exc


#: Resolver for runs that lost their tree to pickling: answers a batch
#: of requests in order (the affine front-end turns it into one
#: ``prove`` call per owning shard).
Prover = Callable[[list[ProveRequest]], list]


def _prove_runs(vo: QueryVO, prove: Prover | None) -> dict[bytes, object]:
    """Prove what a VO's located runs read: one table per root.

    Runs are grouped by the root recorded at locate time, in first-seen
    (conjunct, then tree) order — twin trees (equal roots, hence equal
    content) share a group — and their key lists merged.  Each group is
    one :class:`ProveRequest`: answered here when some run still holds
    its live tree, through ``prove`` otherwise.
    """
    groups: dict[bytes, list[LocatedRun]] = {}
    for conj in vo.conjuncts:
        if conj.base is not None:
            for run in conj.base.runs:
                if isinstance(run, LocatedRun) and run.keys:
                    groups.setdefault(run.root, []).append(run)
    answers: dict[bytes, object] = {}
    remote: list[ProveRequest] = []
    for root, runs in groups.items():
        keys = runs[0].keys
        if len(runs) > 1:
            keys = tuple(sorted(set().union(*(run.keys for run in runs))))
        request = ProveRequest(runs[0].keyword, root, keys)
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


def compress_query_vo(vo: QueryVO, prove: Prover | None = None) -> QueryVO:
    """Finish a VO: one proof table per tree the query read.

    The join left, per conjunct and tree, the keys it read
    (:class:`LocatedRun`).  The runs are grouped by root across the
    conjuncts (one group per ``(tree, commitment)``), each tree is asked
    once for its table over the group's merged keys (:func:`prove_keys`
    — on a run's live tree, or through ``prove`` for runs that lost it
    to pickling), and every run becomes the index of its tree's table.
    Nothing else is shipped: the client re-runs the join over the
    tables.  Runs after call-order gathering, so the output is identical
    for any shard count and pool mode.  A VO without located
    runs is returned as it is.
    """
    tables = _prove_runs(vo, prove)
    if not tables:
        return vo
    table_of = {root: index for index, root in enumerate(tables)}
    conjuncts = []
    for conj in vo.conjuncts:
        base = conj.base
        if base is not None:
            runs = tuple(
                (table_of[run.root] if run.keys else None)
                if isinstance(run, LocatedRun)
                else run
                for run in base.runs
            )
            conj = ConjunctiveVO(
                keywords=conj.keywords, base=ReplayVO(base.plan, base.trees, runs)
            )
        conjuncts.append(conj)
    return QueryVO(conjuncts=tuple(conjuncts), multiproofs=tuple(tables.values()))


# ---------------------------------------------------------------------------
# Replay (client side): the join's view of an authenticated table
# ---------------------------------------------------------------------------


def settle_tables(attached: int, reads: dict[int, bytearray]) -> None:
    """The account of a query's tables, owed when its scope is left.

    ``reads`` holds, per table some conjunct opened, the read marks its
    :class:`ProvenRun` views shared.  Every attached table must have
    been opened and every entry of it read by some probe: a valid answer
    proves exactly what the walk reads, so there is one valid VO per
    query, plan and state.
    """
    for index in range(attached):
        read = reads.get(index)
        if read is None:
            raise VerificationError(f"table {index} is used by no conjunct")
        if 0 in read[1:-1]:
            raise VerificationError(
                f"table {index} proves entries that no probe reads"
            )


class ProvenRun:
    """One keyword's tree as the client's join walk reads it.

    A :class:`~repro.core.query.join.KeyView` over the ``(id, h(o))``
    rows of a table its proof system has authenticated against the
    keyword's on-chain digest.  The walk's probe is a ``bisect`` over
    the proven keys; the pair it lands between must be adjacent in the
    tree — or, at either end of the run, the tree's first or last entry
    — else the table does not show what lies around the target and the
    read raises :class:`~repro.errors.VerificationError`.

    ``gaps`` is what makes that one comparison: ``gaps[i + 1]`` counts
    what the tree holds before the ``i``-th proven key that the table
    does not show, so two proven keys are neighbours iff their counts
    are equal.  It is padded with ``0`` in front and the total behind,
    which turns "is the first entry", "is the last entry" and "the table
    holds every entry" into the same comparison without a branch.  A
    Merkle multiproof counts helper digests, each standing for at least
    one entry (see ``TreeMultiproof``); a Chameleon node table counts
    exactly: ``position - ordinal``.

    Every read marks the rows it returned in ``read`` (shared by all
    runs over one table); the proof system rejects a table with a row
    left unmarked.  ``index`` is ``None`` for a tree the SP says the
    walk never read: any read of it raises.  ``bloom`` is the keyword's
    on-chain filter chain (Chameleon* only).
    """

    __slots__ = ("keyword", "index", "leaves", "keys", "bloom", "_edges", "_gaps", "_read")

    def __init__(
        self,
        keyword: str,
        index: int | None,
        leaves: Sequence[tuple[int, bytes]],
        gaps: tuple[int, ...],
        read: bytearray,
        bloom: BloomFilterChain | None = None,
    ) -> None:
        self.keyword = keyword
        self.index = index
        self.leaves = leaves
        self.bloom = bloom
        self.keys = keys = [key for key, _ in leaves]
        if not all(map(lt, keys, keys[1:])):
            raise VerificationError(
                f"proven entries of keyword {keyword!r} do not ascend"
            )
        self._gaps = gaps
        self._read = read
        self._edges = (None, *keys, None)

    @classmethod
    def unread(cls, keyword: str, bloom: BloomFilterChain | None = None) -> "ProvenRun":
        """The run of a tree the SP says the walk never read."""
        return cls(keyword, None, (), (0, 1), bytearray(2), bloom)

    def __len__(self) -> int:
        # Never zero: a keyword with a table has entries, and one
        # without was checked against the chain when the run was opened.
        return len(self.keys) or 1

    def first(self) -> int:
        """The tree's first key, if the table shows it."""
        if self._gaps[1]:
            raise VerificationError(
                f"VO lacks the first entry of {self.keyword!r}"
            )
        self._read[1] = 1
        return self.keys[0]

    def boundaries(self, target: int) -> tuple[int | None, int | None]:
        """The tree's keys around a target, if the table shows them."""
        rank = bisect_right(self.keys, target)
        gaps = self._gaps
        if gaps[rank] != gaps[rank + 1]:
            raise VerificationError(
                f"VO lacks the boundary of {target} in {self.keyword!r}"
            )
        read = self._read
        read[rank] = read[rank + 1] = 1
        edges = self._edges
        return edges[rank], edges[rank + 1]

    def scan(self) -> list[int]:
        """Every key of the tree, if the table holds them all."""
        if self._gaps[-1]:
            raise VerificationError(
                f"VO lacks entries of {self.keyword!r} (full scan)"
            )
        self._read[:] = b"\x01" * len(self._read)
        return self.keys

    def object_hashes(self, object_ids: list[int]) -> dict[int, bytes]:
        """The proven ``h(o)`` of keys the walk has read."""
        if not object_ids:
            return {}
        proven = dict(self.leaves)
        try:
            return {object_id: proven[object_id] for object_id in object_ids}
        except KeyError as exc:
            raise VerificationError(
                f"object {exc} is not a proven entry of {self.keyword!r}"
            ) from None

    def run(self) -> int | None:
        """The table this run reads from."""
        return self.index

    def definitely_absent(self, object_id: int) -> bool:
        """Whether the keyword's on-chain filters prove the ID absent."""
        return self.bloom is not None and self.bloom.definitely_absent(object_id)
