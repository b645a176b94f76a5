"""Shared SP-side machinery for the Merkle inverted index family.

The baseline Merkle^inv (MI) and the Suppressed Merkle^inv (SMI) differ
only in how the *on-chain* side is maintained; the SP keeps identical
complete MB-trees for query processing, and clients verify both with the
same Merkle-path proof system.  This module holds that common ground:

* :class:`MerkleInvertedSP` — the SP's keyword -> MB-tree map;
* :class:`MBTreeView` — the join engine's :class:`IndexView` adapter;
* :class:`MerkleProofSystem` — the client's verifier bound to the root
  hashes read from the blockchain (``VO_chain``).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from repro import obs
from repro.core.mbtree import (
    DEFAULT_FANOUT,
    Entry,
    MBTree,
    MerklePath,
    paths_adjacent,
)
from repro.core.multiproof import (
    DeferredProof,
    LeafRef,
    TreeMultiproof,
    expand_entries,
)
from repro.core.objects import ObjectMetadata
from repro.core.proofcache import VerificationCache
from repro.core.query.vo import ProvenEntry
from repro.crypto.hashing import EMPTY_DIGEST, digests_equal
from repro.errors import (
    StaleProofError,
    UnresolvedProofError,
    VerificationError,
)


@dataclass
class MBTreeView:
    """Adapts one keyword's MB-tree to the join engine's IndexView.

    The view only *locates*: every entry it returns was found by a
    hash-free descent and carries a
    :class:`~repro.core.multiproof.DeferredProof` naming this tree at
    its current root.  The SP's finishing step
    (:func:`~repro.core.multiproof.compress_query_vo`) proves each tree
    once for everything a query located in it.
    """

    keyword: str
    tree: MBTree
    _slot: DeferredProof | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.tree)

    def _current_slot(self) -> DeferredProof:
        """The marker for this tree at the root it has right now."""
        root = self.tree.root_hash
        slot = self._slot
        if slot is None or not digests_equal(slot.root, root):
            slot = self._slot = DeferredProof(
                keyword=self.keyword, root=root, tree=self.tree
            )
        return slot

    def first_proven(self) -> ProvenEntry | None:
        """The smallest entry, or None when empty."""
        first = next(self.tree.iter_entries(), None)
        if first is None:
            return None
        return ProvenEntry(first.key, first.value_hash, self._current_slot())

    def boundaries_proven(
        self, target: int
    ) -> tuple[ProvenEntry | None, ProvenEntry | None]:
        """Boundary entries around a target."""
        lower, upper = self.tree.locate(target)
        slot = self._current_slot()

        def located(entry: Entry | None) -> ProvenEntry | None:
            if entry is None:
                return None
            return ProvenEntry(entry.key, entry.value_hash, slot)

        return located(lower), located(upper)

    def all_proven(self) -> list[ProvenEntry]:
        """Every entry, in key order."""
        slot = self._current_slot()
        return [
            ProvenEntry(entry.key, entry.value_hash, slot)
            for entry in self.tree.iter_entries()
        ]

    def definitely_absent(self, object_id: int) -> bool:
        # No on-chain filters in the Merkle family.
        """Whether on-chain filters prove the ID absent."""
        return False


class ScanProofs(list):
    """A keyword's finished posting list, as the cache warmer wants it.

    The list holds one path-proven entry per posting; ``cover`` is the
    multiproof a compressed full scan of the same tree presents.
    """

    cover: TreeMultiproof | None = None


def prove_scan(view: MBTreeView) -> ScanProofs:
    """Locate and prove a whole posting list (the warmer's prove hook)."""
    located = view.all_proven()
    proofs = ScanProofs(expand_entries(located))
    if located:
        proofs.cover, _ = view.tree.multiproof(
            [entry.object_id for entry in located]
        )
    return proofs


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
        """The join engine's IndexView for one keyword."""
        return MBTreeView(keyword=keyword, tree=self.tree_for(keyword))

    def root_hash(self, keyword: str) -> bytes:
        """The tree's authenticated root digest."""
        tree = self.trees.get(keyword)
        return tree.root_hash if tree is not None else EMPTY_DIGEST


@dataclass
class MerkleProofSystem:
    """Client verifier for Merkle-path VOs, bound to on-chain roots.

    ``roots`` maps each queried keyword to the root hash fetched from
    the smart contract; keywords absent from the chain map to the empty
    digest, which is itself the completeness evidence for non-existing
    keywords (footnote 4 of the paper).

    ``cache``, when set, memoises successful path verifications keyed on
    the full proven tuple (root, entry, path) — see
    :mod:`repro.core.proofcache` for the soundness argument.  Compressed
    (v3) VOs attach their deduplicated multiproof table via
    :meth:`attach_multiproofs`; each
    :class:`~repro.core.multiproof.TreeMultiproof` folds once per query
    — and caches on ``(root, gindex-set digest)`` so a warmed proof is
    free — with every :class:`~repro.core.multiproof.LeafRef` entry
    resolved against it.
    """

    roots: dict[str, bytes]
    value_bytes: int = 32
    cache: VerificationCache | None = None
    multiproofs: tuple = ()
    _mp_verified: dict = field(
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

    def settling(self) -> nullcontext:
        """The scope entries are verified in; a hash is checked on the spot."""
        return nullcontext()

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
        root = self._root(keyword)
        bound = self._mp_verified.get(ref.proof_index)
        if bound is not None:
            # One fold has one result: a proof that verified against a
            # different keyword's root can never match this one.
            if not digests_equal(bound, root):
                raise VerificationError(
                    f"multiproof {ref.proof_index} is bound to a different "
                    f"tree than keyword {keyword!r}"
                )
            return
        key = None
        if self.cache is not None:
            key = self.cache.key(root, mp.cache_token())
            if self.cache.seen(key):
                self._mp_verified[ref.proof_index] = root
                return
        computed = mp.fold_root()
        if not digests_equal(computed, root):
            raise VerificationError(
                f"multiproof {ref.proof_index} does not match the on-chain "
                f"root of keyword {keyword!r}"
            )
        if self.cache is not None:
            self.cache.add(key)
        self._mp_verified[ref.proof_index] = root

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
        entry) and returns the number that verified.  Entries still
        holding a live located slot are proven first.  When *every*
        entry verified and the list came with its full-scan ``cover``
        (:class:`ScanProofs`), additionally folds the cover and seeds
        the shared cache with it — the proof the SP's query-time
        compression emits for a full scan, so its ``(root, gindex-set
        digest)`` key hits when the query arrives.  A partially tampered
        list seeds nothing batched.
        """
        cover = getattr(entries, "cover", None)
        try:
            finished = expand_entries(entries)
        except (StaleProofError, UnresolvedProofError):
            return 0
        warmed = 0
        for entry in finished:
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
