"""Shared machinery for the Merkle inverted index family.

The baseline Merkle^inv (MI) and the Suppressed Merkle^inv (SMI) differ
only in how the *on-chain* side is maintained; the SP keeps identical
complete MB-trees for query processing, and clients verify both with the
same proof system.  This module holds that common ground:

* :class:`MerkleInvertedSP` — the SP's keyword -> MB-tree map;
* :class:`MBTreeView` — the join engine's view of one tree on the SP:
  it reads keys through a forward cursor and remembers them;
* :class:`MerkleProofSystem` — the client's verifier bound to the root
  hashes read from the blockchain (``VO_chain``): it folds each
  multiproof to its keyword's root and opens its leaves as the
  :class:`~repro.core.multiproof.ProvenRun` the client's join reads.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import obs
from repro.core.mbtree import DEFAULT_FANOUT, LeafCursor, MBTree
from repro.core.multiproof import (
    LocatedRun,
    ProvenRun,
    TreeMultiproof,
    settle_tables,
)
from repro.core.objects import ObjectMetadata
from repro.core.proofcache import VerificationCache
from repro.core.query.join import remember_key
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

    def __len__(self) -> int:
        return len(self.tree)

    def first(self) -> int:
        """The smallest key."""
        key = self.tree.min_key
        remember_key(self.keys, key)
        return key

    def boundaries(self, target: int) -> tuple[int | None, int | None]:
        """The keys around a target."""
        cursor = self._cursor
        if cursor is None:
            cursor = self._cursor = self.tree.cursor()
        lower, upper = cursor.seek(target)
        if lower is not None:
            remember_key(self.keys, lower)
        if upper is not None:
            remember_key(self.keys, upper)
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
    ``(root, content digest)`` so a warmed proof is free.  A conjunct
    opens its tables as :class:`~repro.core.multiproof.ProvenRun` views
    (:meth:`proven_run`) and replays the join over them.  ``cache``,
    when set, memoises successful folds keyed on the full proven tuple —
    see :mod:`repro.core.proofcache` for the soundness argument.

    Leaving :meth:`settling` checks what only the whole query can show
    (:func:`~repro.core.multiproof.settle_tables`): every attached table
    was used, and every leaf of a table was read by some probe.
    """

    roots: dict[str, bytes]
    value_bytes: int = 32
    cache: VerificationCache | None = None
    multiproofs: tuple = ()
    #: Per attached table in use: the root it folded to.
    _bound: dict[int, bytes] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Per attached table in use: the marks of its leaves' reads.
    _read: dict[int, bytearray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _root(self, keyword: str) -> bytes:
        return self.roots.get(keyword, EMPTY_DIGEST)

    def attach_multiproofs(self, multiproofs: tuple) -> None:
        """Bind the current query's proof tables.

        Called by :func:`~repro.core.query.verify.verify_query` before
        any conjunct verification; replaces any previously attached
        tables (per-query state, not per-system).
        """
        self.multiproofs = tuple(multiproofs)
        self._bound = {}
        self._read = {}

    @contextmanager
    def settling(self) -> Iterator[None]:
        """The scope a query is verified in; a hash is checked on the spot.

        What is owed at the exit is the account of the tables: none
        unused, no leaf unread.
        """
        yield
        settle_tables(len(self.multiproofs), self._read)

    def _bind(self, keyword: str, proof_index: int) -> TreeMultiproof:
        """The table, folded (once per query) to the keyword's root."""
        if not 0 <= proof_index < len(self.multiproofs):
            raise VerificationError(
                f"multiproof index {proof_index} out of range "
                f"({len(self.multiproofs)} attached)"
            )
        mp = self.multiproofs[proof_index]
        if not isinstance(mp, TreeMultiproof):
            raise VerificationError("conjunct names a table of another kind")
        root = self._root(keyword)
        bound = self._bound.get(proof_index)
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
                self._bound[proof_index] = root
                return mp
        computed = mp.fold_root()
        if not digests_equal(computed, root):
            raise VerificationError(
                f"multiproof {proof_index} does not match the on-chain "
                f"root of keyword {keyword!r}"
            )
        if self.cache is not None:
            self.cache.add(key)
        self._bound[proof_index] = root
        return mp

    def proven_run(self, keyword: str, table: int | None) -> ProvenRun:
        """Open one tree of a conjunct as the walk's view.

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
            return ProvenRun.unread(keyword)
        mp = self._bind(keyword, table)
        read = self._read.get(table)
        if read is None:
            read = self._read[table] = bytearray(len(mp.leaves) + 2)
        gaps = (0, *mp.helpers_before(), len(mp.helpers))
        return ProvenRun(keyword, table, mp.leaves, gaps, read)

    def keyword_empty(self, keyword: str) -> bool:
        """Whether VO_chain shows the keyword's tree empty."""
        return digests_equal(self._root(keyword), EMPTY_DIGEST)

    def chain_digest_bytes(self) -> int:
        """``VO_chain`` size: one 32-byte root per queried keyword."""
        return 32 * len(self.roots)
