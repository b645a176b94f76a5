"""Multiproofs: the one shape of a Merkle proof.

A DNF answer that references ``k`` entries of one MB-tree would ship
``k`` root-to-leaf paths whose sibling digests overlap almost entirely —
the dominant VO cost in the paper's high-selectivity regime (Figs.
11/12).  A :class:`TreeMultiproof` per ``(tree, commitment)`` holds them
once: the shared siblings are deduplicated, every proven entry is
recovered from one upward fold, and what the boundary checks need to
know about the entries' *positions* comes out of the same fold as one
integer per leaf.  It is the only Merkle proof there is: a single entry
is the 1-leaf table, and the light-client storage proofs, the range
proofs and the general update's neighbour evidence are tables too, all
opened through :func:`open_table`.

Wire shape
----------
A :class:`TreeMultiproof` *is* its wire bytes, the codec's kind-0
table, kept as one frozen ``body`` the way a Chameleon node table is::

    u8 height || varint #nodes || (varint width || 2-bit slot codes) *
    || varint #helpers || digest(32) * || varint #leaves || (id(8) || h(o)(32)) *

The cover nodes come in DFS pre-order, each as its per-slot codes
(``SLOT_HELPER`` — a supplied sibling digest, ``SLOT_DESCEND`` — the
next DFS node, ``SLOT_LEAF`` — a proven ``<id, h(o)>`` entry) packed
four to a byte, low bits first; the helper digests and the leaf rows
follow in the order the DFS consumes them.  :meth:`MBTree.multiproof
<repro.core.mbtree.MBTree.multiproof>` writes the body in its one DFS
(a proven entry's row is a copy of its 40-byte slot in the tree's flat
buffer), the codec copies it and :meth:`TreeMultiproof.from_wire`
frames it by reference, looking each node's codes up per packed byte.
Nothing else of the body is unpacked: verification is one DFS fold over
the bytes (:meth:`TreeMultiproof.fold`).  Framing refuses truncation, a
count not in its shortest encoding, an oversized node width, non-zero
padding bits and slot code 3; the fold
refuses codes out of place, leftover or missing helpers and descend
below the leaf level — all with
:class:`~repro.errors.VerificationError`, before any root comparison.
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

import struct
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import lt

from repro.core.chameleon import ChameleonTreeSP
from repro.core.mbtree import (
    ENTRY_PREFIX,
    LEAF_PREFIX,
    NODE_PREFIX,
    HashFn,
    MBTree,
)
from repro.core.proofcache import VerificationCache
from repro.core.query.vo import ConjunctiveVO, QueryVO, ReplayVO
from repro.core.wire import read_varint
from repro.crypto.bloom import BloomFilterChain
from repro.crypto.hashing import digests_equal, sha3, token_hasher
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

#: Hash state seeded with the table-token tag; copied per table.
_TOKEN_HASHER = token_hasher("repro/merkle-multiproof-token")

#: One leaf row of a table: ``id(8) || h(o)(32)``.
_LEAF_ROW = struct.Struct(">Q32s")


def _malformed(reason: str) -> VerificationError:
    return VerificationError(f"malformed multiproof: {reason}")


def _node_codes(packed: bytes, width: int) -> tuple[int, ...]:
    """The ``width`` slot codes packed four to a byte, low bits first.

    Refuses slot code 3 and non-zero padding bits.
    """
    codes = [(byte >> shift) & 0x3 for byte in packed for shift in (0, 2, 4, 6)]
    if 3 in codes:
        raise _malformed("invalid slot code 3")
    if any(codes[width:]):
        raise _malformed("non-zero padding in slot codes")
    return tuple(codes[:width])


def _valid_codes(packed: bytes, width: int) -> tuple[int, ...] | None:
    try:
        return _node_codes(packed, width)
    except VerificationError:
        return None


#: ``_PACKED[width - 1][byte]``: the codes of a node of 1-4 slots packed
#: in ``byte``, or ``None`` where :func:`_node_codes` refuses the byte.
_PACKED = tuple(
    tuple(_valid_codes(bytes((byte,)), width) for byte in range(256))
    for width in range(1, 5)
)


def _frame(buf: bytes, pos: int) -> tuple[tuple, int]:
    """Frame the table whose body starts at ``buf[pos]``.

    Returns ``(height, nodes, helpers_at, helper_count, leaves_at,
    leaf_count)`` — ``nodes`` the cover nodes' slot codes in DFS order,
    offsets relative to ``pos`` — and the body's end.  Refuses
    truncation, a count not in its shortest encoding, a node width
    above ``0xFFFF``, non-zero padding bits and slot code 3; what the
    codes *mean* is the fold's to check.
    """
    start = pos
    size = len(buf)
    packed = _PACKED
    nodes: list[tuple[int, ...]] = []
    try:
        height = buf[pos]
        count, pos = read_varint(buf, pos + 1)
        for _ in range(count):
            width = buf[pos]
            pos += 1
            if width > 0x7F:
                width, pos = read_varint(buf, pos - 1)
                if width > 0xFFFF:
                    raise _malformed("oversized node width")
            if 0 < width <= 4:
                codes = packed[width - 1][buf[pos]]
                if codes is None:  # refused: the long way says why
                    codes = _node_codes(buf[pos : pos + 1], width)
                pos += 1
            else:
                end = pos + (width + 3) // 4
                if end > size:
                    raise _malformed("truncated slot codes")
                codes = _node_codes(buf[pos:end], width)
                pos = end
            nodes.append(codes)
        helper_count, pos = read_varint(buf, pos)
        helpers_at = pos
        leaf_count, pos = read_varint(buf, pos + 32 * helper_count)
    except IndexError:
        raise _malformed("truncated table") from None
    leaves_at = pos
    pos += 40 * leaf_count
    if pos > size:
        raise _malformed("truncated leaf rows")
    return (
        height,
        nodes,
        helpers_at - start,
        helper_count,
        leaves_at - start,
        leaf_count,
    ), pos


@dataclass(frozen=True)
class TreeMultiproof:
    """One deduplicated membership proof for a set of entries of one tree.

    ``body`` is the table's wire bytes (see "Wire shape" above):
    ``height`` — the number of levels below the root digest, the depth
    of every leaf of the tree — then each cover node's slot codes in DFS
    pre-order (the root first), the sibling digests and the proven
    ``(object_id, object_hash)`` rows in the order the DFS consumes
    them.  Framing it looks each node's codes up per packed byte,
    :attr:`leaves` reads the rows and :meth:`fold` hashes straight from
    the body.

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
    * the last leaf is the tree's last entry iff its count is the
      number of helpers (:meth:`fold` rejects unconsumed helpers, so
      the total is exact).

    :class:`ProvenRun` evaluates all three as one comparison of the
    padded counts; ``tests/reference_multiproof.py`` keeps the
    root-to-leaf ``(gpath, widths)`` form of the predicates as the
    oracle.

    What a table learns about itself — its frame, its rows, its token,
    its fold — is memoised on the instance and never pickled: a table
    crosses a process boundary as its ``body`` alone.
    """

    body: bytes

    @classmethod
    def from_wire(cls, buf: bytes, pos: int) -> tuple["TreeMultiproof", int]:
        """The table whose body starts at ``buf[pos]``, and its end.

        The body is framed and kept as the bytes it arrived as.
        """
        frame, end = _frame(buf, pos)
        table = cls(buf[pos:end])
        object.__setattr__(table, "_frame", frame)
        return table, end

    def __reduce__(self):
        return (TreeMultiproof, (self.body,))

    def _framed(self) -> tuple:
        """``(height, nodes, helpers_at, helper_count, leaves_at, leaf_count)``, framed once."""
        frame = self.__dict__.get("_frame")
        if frame is None:
            frame, end = _frame(self.body, 0)
            if end != len(self.body):
                raise _malformed("bytes after the leaf rows")
            object.__setattr__(self, "_frame", frame)
        return frame

    @property
    def leaves(self) -> tuple[tuple[int, bytes], ...]:
        """The proven ``(object_id, object_hash)`` rows, in DFS (key) order."""
        leaves = self.__dict__.get("_leaves")
        if leaves is None:
            _, _, _, _, at, count = self._framed()
            leaves = tuple(_LEAF_ROW.iter_unpack(self.body[at : at + 40 * count]))
            object.__setattr__(self, "_leaves", leaves)
        return leaves

    def cache_token(self) -> bytes:
        """Collision-resistant digest of the table: a tagged hash of ``body``.

        The verification-cache key for a multiproof is ``(root, token)``
        — a content digest — so a proof verified by one query hits in
        a later one iff it is byte-identical.
        """
        token = self.__dict__.get("_token")
        if token is None:
            hasher = _TOKEN_HASHER.copy()
            hasher.update(self.body)
            token = hasher.digest()
            object.__setattr__(self, "_token", token)
        return token

    def byte_size(self) -> int:
        """Serialised size in bytes (the codec's table encoding)."""
        return len(self.body)

    # -- verification ----------------------------------------------------------

    def fold(self, hash_fn: HashFn | None = None) -> tuple[bytes, tuple[int, ...]]:
        """The DFS fold: the recomputed root plus the leaf counts.

        Returns ``(root_digest, before)`` where ``before[i]`` is the
        number of helpers consumed before the ``i``-th proven leaf.
        Every structural violation — a body that does not frame, wrong
        code values, descend at the leaf level, leaves above it,
        unconsumed or missing helpers/leaves/nodes, an empty node —
        fails closed with :class:`~repro.errors.VerificationError`.

        The walk reads the body in place: the helper digests are sliced
        once, the leaf rows hashed in one pass (a row is the tail of its
        entry's hash preimage) and the nodes' codes taken as framing
        looked them up.  Without ``hash_fn`` the fold hashes with sha3 once
        per object and memoises the result.  A contract passes its
        metered hash: then every digest goes through it — the same
        preimages, so the same gas — and the memo is neither read nor
        written, so gas never depends on what was folded before.
        """
        if hash_fn is None:
            cached = self.__dict__.get("_walked")
            if cached is not None:
                return cached
            digest_of = sha3
        else:
            digest_of = hash_fn
        height, nodes, helpers_at, helper_count, leaves_at, leaf_count = self._framed()
        if height < 1:
            raise _malformed("height must be at least 1")
        leaf_level = height - 1
        body = self.body
        # Both lists are taken from the back: what is left says what the
        # walk has consumed.
        helpers = [
            body[at : at + 32]
            for at in range(helpers_at, helpers_at + 32 * helper_count, 32)
        ]
        helpers.reverse()
        leaves = [
            digest_of(ENTRY_PREFIX + body[at : at + 40])
            for at in range(leaves_at, leaves_at + 40 * leaf_count, 40)
        ]
        leaves.reverse()
        take_helper = helpers.pop
        take_leaf = leaves.pop
        remaining = iter(nodes)
        next_node = remaining.__next__
        before: list[int] = []

        def fold_node(depth: int) -> bytes:
            """Fold the next cover node, at ``depth`` below the root."""
            codes = next_node()
            if not codes:
                raise _malformed("empty cover node")
            digests = []
            for code in codes:
                if code == SLOT_HELPER:
                    digests.append(take_helper())
                elif code == SLOT_LEAF:
                    if depth != leaf_level:
                        raise _malformed("proven leaf above the leaf level")
                    before.append(helper_count - len(helpers))
                    digests.append(take_leaf())
                elif code == SLOT_DESCEND:
                    if depth >= leaf_level:
                        raise _malformed("descend at the leaf level")
                    digests.append(fold_node(depth + 1))
                else:
                    raise _malformed(f"unknown slot code {code}")
            prefix = LEAF_PREFIX if depth == leaf_level else NODE_PREFIX
            return digest_of(prefix + b"".join(digests))

        try:
            digest = fold_node(0)
        except (IndexError, StopIteration):
            raise _malformed("helpers, leaves or cover nodes exhausted mid-walk") from None
        if next(remaining, None) is not None:
            raise _malformed("unconsumed cover nodes")
        if helpers:
            raise _malformed("unconsumed helper digests")
        if leaves:
            raise _malformed("unconsumed leaf entries")
        if not before:
            raise _malformed("no proven leaves")
        walked = (digest, tuple(before))
        if hash_fn is None:
            object.__setattr__(self, "_walked", walked)
        return walked


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

    def span(self, lo: int, hi: int) -> list[int]:
        """Every key of the tree in ``[lo, hi]``, if the table holds them all.

        The keys inside, the one on each side of them (or the tree's
        edge) and everything between must be neighbours: one comparison
        of the padded counts, since they never decrease.  With nothing
        inside this is :meth:`boundaries` of ``lo - 1``.
        """
        start = bisect_left(self.keys, lo)
        stop = bisect_right(self.keys, hi)
        if self._gaps[start] != self._gaps[stop + 1]:
            raise VerificationError(
                f"VO lacks entries of {self.keyword!r} in [{lo}, {hi}]"
            )
        self._read[start : stop + 2] = b"\x01" * (stop + 2 - start)
        return self.keys[start:stop]

    def settle(self) -> None:
        """Refuse a table that proves a row no read has returned."""
        if 0 in self._read[1:-1]:
            raise VerificationError(
                f"table of {self.keyword!r} proves entries that no probe reads"
            )

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


def open_table(
    table: TreeMultiproof,
    root: bytes,
    keyword: str,
    *,
    index: int | None = 0,
    read: bytearray | None = None,
    hash_fn: HashFn | None = None,
    cache: VerificationCache | None = None,
) -> ProvenRun:
    """Fold a Merkle table to ``root`` and open its leaves as a run.

    The one way a :class:`TreeMultiproof` is read, by the query client
    (:meth:`~repro.core.merkle_family.MerkleProofSystem.proven_run`), a
    light client, a range client and the general update's contract.  A
    contract passes its metered ``hash_fn`` (see
    :meth:`TreeMultiproof.fold`); ``index`` and ``read`` are the query
    client's table number and its shared read marks.  The query client
    passes its ``cache``: a table that folded to ``root`` before —
    keyed on ``(root, cache_token())`` — is not folded again, its leaf
    counts are recalled, and a fold that matches is remembered.
    """
    key = before = None
    if cache is not None:
        key = cache.key(root, table.cache_token())
        before = cache.recall(key)
    if before is None:
        digest, before = table.fold(hash_fn)
        if not digests_equal(digest, root):
            raise VerificationError(
                f"table {index} does not match the on-chain root of {keyword!r}"
            )
        if key is not None:
            cache.add(key, before)
    else:
        # This table's fold, as far as a later read of it is concerned.
        object.__setattr__(table, "_walked", (root, before))
    leaves = table.leaves
    if read is None:
        read = bytearray(len(leaves) + 2)
    helper_count = table._framed()[3]
    return ProvenRun(keyword, index, leaves, (0, *before, helper_count), read)
