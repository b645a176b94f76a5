"""Shared machinery for the Merkle inverted index family.

The baseline Merkle^inv (MI) and the Suppressed Merkle^inv (SMI) differ
only in how the *on-chain* side is maintained; the SP keeps identical
complete MB-trees for query processing, and clients verify both with the
same proof system.  This module holds that common ground:

* :class:`MerkleInvertedSP` — the SP's keyword -> MB-tree map;
* :class:`MBTreeView` — the join engine's view of one tree on the SP:
  it reads keys through a forward cursor and remembers them;
* :class:`ProvenRun` — the join engine's view of one tree on the
  client: the leaves of a folded multiproof, adjacency checked per read;
* :class:`MerkleProofSystem` — the client's verifier bound to the root
  hashes read from the blockchain (``VO_chain``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import lt

from repro import obs
from repro.core.mbtree import (
    DEFAULT_FANOUT,
    Entry,
    LeafCursor,
    MBTree,
    MerklePath,
    paths_adjacent,
)
from repro.core.multiproof import (
    LocatedRun,
    ProveRequest,
    TreeMultiproof,
    prove_keys,
)
from repro.core.objects import ObjectMetadata
from repro.core.proofcache import VerificationCache
from repro.core.query.vo import LeafRef, ProvenEntry
from repro.crypto.hashing import EMPTY_DIGEST, digests_equal
from repro.errors import VerificationError


@dataclass
class MBTreeView:
    """One keyword's MB-tree as the SP's join walk reads it.

    A :class:`~repro.core.query.join.KeyView`: the walk gets keys, found
    without hashing through a :class:`~repro.core.mbtree.LeafCursor`
    (its targets ascend, so most probes stay in or next to the leaf of
    the previous one).  The view remembers, ascending, every key it
    handed out; :meth:`run` packs them with the tree's current root for
    the prove step (:func:`~repro.core.multiproof.compress_query_vo`),
    which asks each tree once for everything a query read from it.
    """

    keyword: str
    tree: MBTree
    keys: list[int] = field(default_factory=list, init=False, compare=False)
    _cursor: LeafCursor | None = field(
        default=None, init=False, repr=False, compare=False
    )

    replayed = True

    def __len__(self) -> int:
        return len(self.tree)

    def _remember(self, key: int) -> None:
        keys = self.keys
        if not keys or keys[-1] < key:
            keys.append(key)
        elif keys[-1] != key:
            # A probe that went backwards: keep the list sorted anyway.
            at = bisect_left(keys, key)
            if keys[at] != key:
                keys.insert(at, key)

    def first(self) -> int:
        """The smallest key."""
        key = self.tree.min_key
        self._remember(key)
        return key

    def boundaries(self, target: int) -> tuple[int | None, int | None]:
        """The keys around a target."""
        cursor = self._cursor
        if cursor is None:
            cursor = self._cursor = self.tree.cursor()
        lower, upper = cursor.seek(target)
        if lower is not None:
            self._remember(lower)
        if upper is not None:
            self._remember(upper)
        return lower, upper

    def scan(self) -> list[int]:
        """Every key, in order."""
        self.keys = self.tree.keys()
        return self.keys

    def run(self) -> LocatedRun:
        """What has been read so far, at the root it was read under."""
        return LocatedRun(
            keyword=self.keyword,
            root=self.tree.root_hash,
            keys=tuple(self.keys),
            tree=self.tree,
        )

    def definitely_absent(self, object_id: int) -> bool:
        # No on-chain filters in the Merkle family.
        """Whether on-chain filters prove the ID absent."""
        return False


class ScanProofs(list):
    """A keyword's finished posting list, as the cache warmer wants it.

    The list holds one path-proven entry per posting; ``cover`` is the
    multiproof a full scan of the same tree presents.
    """

    cover: TreeMultiproof | None = None


def prove_scan(view: MBTreeView) -> ScanProofs:
    """Prove a whole posting list both ways (the warmer's prove hook)."""
    tree = view.tree
    keys = tuple(tree.keys())
    if not keys:
        return ScanProofs()
    request = ProveRequest(view.keyword, tree.root_hash, keys, paths=True)
    proofs = ScanProofs(
        ProvenEntry(entry.key, entry.value_hash, path)
        for entry, path in prove_keys(tree, request)
    )
    proofs.cover = tree.multiproof(keys)
    return proofs


class ProvenRun:
    """One keyword's tree as the client's join walk reads it.

    A :class:`~repro.core.query.join.KeyView` over the leaves of a
    :class:`~repro.core.multiproof.TreeMultiproof` that
    :class:`MerkleProofSystem` has folded to the keyword's on-chain
    root.  The walk's probe is a ``bisect`` over the proven keys; the
    pair it lands between must be adjacent in the tree — or, at either
    end of the run, the tree's first or last entry — else the table
    does not show what lies around the target and the read raises
    :class:`~repro.errors.VerificationError`.  Both are one comparison
    of the per-leaf helper counts (see ``TreeMultiproof``), padded with
    ``0`` in front and ``len(helpers)`` behind so the edges need no
    branch.

    Every read marks the leaves it returned in ``read`` (shared by all
    runs over one table); the proof system rejects a table with a leaf
    left unmarked.  ``table`` is ``None`` for a tree the SP says the
    walk never read: any read of it raises.
    """

    replayed = True

    __slots__ = ("keyword", "table", "index", "keys", "_edges", "_gaps", "_read")

    def __init__(
        self,
        keyword: str,
        index: int | None,
        table: TreeMultiproof | None,
        read: bytearray,
    ) -> None:
        self.keyword = keyword
        self.index = index
        self.table = table
        self._read = read
        if table is None:
            self.keys: list[int] = []
            self._gaps: tuple[int, ...] = (0, 1)
        else:
            self.keys = keys = [key for key, _ in table.leaves]
            if not all(map(lt, keys, keys[1:])):
                raise VerificationError(
                    f"proven leaves of keyword {keyword!r} do not ascend"
                )
            self._gaps = (0, *table.helpers_before(), len(table.helpers))
        self._edges = (None, *self.keys, None)

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
        if self.table is None or self.table.helpers:
            raise VerificationError(
                f"VO lacks entries of {self.keyword!r} (full scan)"
            )
        self._read[:] = b"\x01" * len(self._read)
        return self.keys

    def object_hashes(self, object_ids: list[int]) -> dict[int, bytes]:
        """The proven ``h(o)`` of keys the walk has read."""
        if not object_ids:
            return {}
        proven = dict(self.table.leaves) if self.table is not None else {}
        try:
            return {object_id: proven[object_id] for object_id in object_ids}
        except KeyError as exc:
            raise VerificationError(
                f"object {exc} is not a proven leaf of {self.keyword!r}"
            ) from None

    def run(self) -> int | None:
        """The table this run reads from."""
        return self.index

    def definitely_absent(self, object_id: int) -> bool:
        """Whether on-chain filters prove the ID absent."""
        return False


@dataclass
class MerkleInvertedSP:
    """The SP's complete Merkle inverted index (keyword -> MB-tree)."""

    fanout: int = DEFAULT_FANOUT
    trees: dict[str, MBTree] = field(default_factory=dict)

    def tree_for(self, keyword: str) -> MBTree:
        """Get or lazily create the keyword's tree."""
        if keyword not in self.trees:
            self.trees[keyword] = MBTree(fanout=self.fanout)
        return self.trees[keyword]

    def insert(self, metadata: ObjectMetadata) -> None:
        """Mirror a newly confirmed object into every keyword tree."""
        with obs.span("sp.index.insert", keywords=len(metadata.keywords)):
            for keyword in metadata.keywords:
                self.tree_for(keyword).insert(
                    metadata.object_id, metadata.object_hash
                )

    def view(self, keyword: str) -> MBTreeView:
        """The join engine's view of one keyword's tree."""
        return MBTreeView(keyword=keyword, tree=self.tree_for(keyword))

    def root_hash(self, keyword: str) -> bytes:
        """The tree's authenticated root digest."""
        tree = self.trees.get(keyword)
        return tree.root_hash if tree is not None else EMPTY_DIGEST


@dataclass
class MerkleProofSystem:
    """Client verifier for Merkle VOs, bound to on-chain roots.

    ``roots`` maps each queried keyword to the root hash fetched from
    the smart contract; keywords absent from the chain map to the empty
    digest, which is itself the completeness evidence for non-existing
    keywords (footnote 4 of the paper).

    A query's tables arrive through :meth:`attach_multiproofs`.  Each
    :class:`~repro.core.multiproof.TreeMultiproof` folds once per query
    against the root of the keyword that names it — and caches on
    ``(root, content digest)`` so a warmed proof is free.  A v5
    conjunct opens its tables as :class:`ProvenRun` views
    (:meth:`proven_run`) and replays the join over them; the
    :class:`~repro.core.query.vo.LeafRef` entries of a v3 frame and the
    per-entry paths of a v2 one are resolved one by one
    (:meth:`verify_entry`).  ``cache``, when set, memoises successful
    verifications keyed on the full proven tuple — see
    :mod:`repro.core.proofcache` for the soundness argument.

    Leaving :meth:`settling` checks what only the whole query can show:
    every attached table was used, and every leaf of a replayed table
    was read by some probe — a valid answer proves exactly what the
    walk reads, so there is one valid VO per query, plan and state.
    """

    roots: dict[str, bytes]
    value_bytes: int = 32
    cache: VerificationCache | None = None
    multiproofs: tuple = ()
    _mp_verified: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _read: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _root(self, keyword: str) -> bytes:
        return self.roots.get(keyword, EMPTY_DIGEST)

    def attach_multiproofs(self, multiproofs: tuple) -> None:
        """Bind the current query's deduplicated proof table.

        Called by :func:`~repro.core.query.verify.verify_query` before
        any conjunct verification; replaces any previously attached
        table (per-query state, not per-system).
        """
        self.multiproofs = tuple(multiproofs)
        self._mp_verified = {}
        self._read = {}

    @contextmanager
    def settling(self) -> Iterator[None]:
        """The scope a query is verified in; a hash is checked on the spot.

        What is owed at the exit is the account of the tables: none
        unused, no replayed leaf unread.
        """
        yield
        for index in range(len(self.multiproofs)):
            if index not in self._mp_verified:
                raise VerificationError(
                    f"multiproof {index} is used by no conjunct"
                )
        for index, read in self._read.items():
            if 0 in read[1:-1]:
                raise VerificationError(
                    f"multiproof {index} proves leaves that no probe reads"
                )

    def _multiproof(self, proof_index: int) -> TreeMultiproof:
        if not 0 <= proof_index < len(self.multiproofs):
            raise VerificationError(
                f"multiproof index {proof_index} out of range "
                f"({len(self.multiproofs)} attached)"
            )
        multiproof = self.multiproofs[proof_index]
        if not isinstance(multiproof, TreeMultiproof):
            raise VerificationError("entry references a table of another kind")
        return multiproof

    def _bind(self, keyword: str, proof_index: int) -> TreeMultiproof:
        """The table, folded (once per query) to the keyword's root."""
        mp = self._multiproof(proof_index)
        root = self._root(keyword)
        bound = self._mp_verified.get(proof_index)
        if bound is not None:
            # One fold has one result: a proof that verified against a
            # different keyword's root can never match this one.
            if not digests_equal(bound, root):
                raise VerificationError(
                    f"multiproof {proof_index} is bound to a different "
                    f"tree than keyword {keyword!r}"
                )
            return mp
        key = None
        if self.cache is not None:
            key = self.cache.key(root, mp.cache_token())
            if self.cache.seen(key):
                self._mp_verified[proof_index] = root
                return mp
        computed = mp.fold_root()
        if not digests_equal(computed, root):
            raise VerificationError(
                f"multiproof {proof_index} does not match the on-chain "
                f"root of keyword {keyword!r}"
            )
        if self.cache is not None:
            self.cache.add(key)
        self._mp_verified[proof_index] = root
        return mp

    def proven_run(self, keyword: str, table: int | None) -> ProvenRun:
        """Open one tree of a replayed conjunct as the walk's view.

        ``table`` indexes the attached multiproofs; ``None`` says the
        walk reads nothing from this tree, which is only believed of a
        keyword the chain shows non-empty (an empty one makes the whole
        component an empty-keyword claim).
        """
        if table is None:
            if self.keyword_empty(keyword):
                raise VerificationError(
                    f"join lists keyword {keyword!r}, which VO_chain "
                    "shows empty"
                )
            return ProvenRun(keyword, None, None, bytearray(2))
        mp = self._bind(keyword, table)
        read = self._read.get(table)
        if read is None:
            read = self._read[table] = bytearray(len(mp.leaves) + 2)
        return ProvenRun(keyword, table, mp, read)

    def _verify_leafref(
        self, keyword: str, entry: ProvenEntry, ref: LeafRef
    ) -> None:
        mp = self._multiproof(ref.proof_index)
        object_id, object_hash = mp.leaf_entry(ref.ordinal)
        if object_id != entry.object_id or not digests_equal(
            object_hash, entry.object_hash
        ):
            raise VerificationError(
                f"entry {entry.object_id} does not match the multiproof "
                f"leaf it references"
            )
        self._bind(keyword, ref.proof_index)

    def verify_entry(self, keyword: str, entry: ProvenEntry) -> None:
        """Authenticate one proven entry; raises on failure."""
        path = entry.proof
        if isinstance(path, LeafRef):
            self._verify_leafref(keyword, entry, path)
            return
        if not isinstance(path, MerklePath):
            raise VerificationError("expected a Merkle path proof")
        root = self._root(keyword)
        key = None
        if self.cache is not None:
            key = self.cache.key(
                root, entry.object_id, entry.object_hash, path.cache_token()
            )
            if self.cache.seen(key):
                return
        computed = path.compute_root(
            Entry(key=entry.object_id, value_hash=entry.object_hash)
        )
        if not digests_equal(computed, root):
            raise VerificationError(
                f"Merkle path for object {entry.object_id} does not match "
                f"the on-chain root of keyword {keyword!r}"
            )
        if self.cache is not None:
            self.cache.add(key)

    def warm_entries(self, keyword: str, entries: list[ProvenEntry]) -> int:
        """Pre-verify a keyword's posting list for the warmer.

        Verifies each per-entry path independently (a tampered entry is
        skipped and left uncached, the rest still warm — fail closed per
        entry) and returns the number that verified.  When *every*
        entry verified and the list came with its full-scan ``cover``
        (:class:`ScanProofs`), additionally folds the cover and seeds
        the shared cache with it — the table the SP's prove step emits
        for a full scan, so its ``(root, content digest)`` key hits
        when the query arrives.  A partially tampered list seeds nothing
        batched.
        """
        cover = getattr(entries, "cover", None)
        warmed = 0
        for entry in entries:
            try:
                self.verify_entry(keyword, entry)
            except VerificationError:
                continue
            warmed += 1
        if warmed < len(entries) or cover is None or self.cache is None:
            return warmed
        root = self._root(keyword)
        try:
            folded = cover.fold_root()
        except VerificationError:
            return warmed
        if digests_equal(folded, root):
            self.cache.add(self.cache.key(root, cover.cache_token()))
        return warmed

    def is_first(self, keyword: str, entry: ProvenEntry) -> bool:
        """Whether the entry is provably the tree's first."""
        path = entry.proof
        if isinstance(path, LeafRef):
            try:
                return self._multiproof(path.proof_index).is_leftmost(
                    path.ordinal
                )
            except VerificationError:
                return False
        return isinstance(path, MerklePath) and path.is_leftmost()

    def is_last(self, keyword: str, entry: ProvenEntry) -> bool:
        """Whether the entry is provably the tree's last."""
        path = entry.proof
        if isinstance(path, LeafRef):
            try:
                return self._multiproof(path.proof_index).is_rightmost(
                    path.ordinal
                )
            except VerificationError:
                return False
        return isinstance(path, MerklePath) and path.is_rightmost()

    def adjacent(
        self, keyword: str, lower: ProvenEntry, upper: ProvenEntry
    ) -> bool:
        """Whether two verified entries are consecutive."""
        if isinstance(lower.proof, LeafRef) and isinstance(
            upper.proof, LeafRef
        ):
            if lower.proof.proof_index != upper.proof.proof_index:
                # Compression emits one proof per tree, so two refs into
                # different proofs can never be neighbours of one tree.
                return False
            try:
                return self._multiproof(lower.proof.proof_index).adjacent(
                    lower.proof.ordinal, upper.proof.ordinal
                )
            except VerificationError:
                return False
        if not isinstance(lower.proof, MerklePath) or not isinstance(
            upper.proof, MerklePath
        ):
            return False
        return paths_adjacent(lower.proof, upper.proof)

    def keyword_empty(self, keyword: str) -> bool:
        """Whether VO_chain shows the keyword's tree empty."""
        return digests_equal(self._root(keyword), EMPTY_DIGEST)

    def definitely_absent(self, keyword: str, object_id: int) -> bool:
        """Whether on-chain filters prove the ID absent."""
        return False

    def chain_digest_bytes(self) -> int:
        """``VO_chain`` size: one 32-byte root per queried keyword."""
        return 32 * len(self.roots)
