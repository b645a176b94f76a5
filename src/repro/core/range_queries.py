"""Authenticated range queries over a suppressed Merkle B-tree.

Section IX of the paper notes that the Suppressed Merkle^inv machinery
"can be easily extended to other indexes such as B-tree and R-tree to
support various queries".  This module realises that extension for
one-dimensional range queries over object IDs: a single MB-tree indexes
the whole object stream, the smart contract maintains only its root
hash via ``UpdVO`` update proofs (Algorithms 1–2 unchanged), and the SP
answers ``[lo, hi]`` range queries with a verification object proving
both soundness and completeness:

* every returned entry carries a Merkle path to the on-chain root;
* consecutive returned entries are proven *adjacent*, so nothing inside
  the range was dropped;
* the boundary entries just outside the range (or first/last-entry
  evidence at the tree edges) prove the range's ends are tight.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mbtree import (
    DEFAULT_FANOUT,
    Entry,
    MBTree,
    MerklePath,
    paths_adjacent,
)
from repro.core.objects import ObjectMetadata
from repro.core.suppressed import SuppressedMerkleContract
from repro.crypto.hashing import EMPTY_DIGEST, digests_equal
from repro.errors import QueryError, VerificationError
from repro.ethereum.chain import Blockchain, Receipt

#: Keyword under which the primary ID index is registered on-chain.
PRIMARY_INDEX_KEY = "__primary__"


@dataclass(frozen=True)
class RangeEntry:
    """One proven entry of a range result."""

    entry: Entry
    path: MerklePath

    def byte_size(self) -> int:
        """Serialised size in bytes."""
        return 40 + self.path.byte_size()


@dataclass(frozen=True)
class RangeVO:
    """Verification object for an authenticated range query."""

    lo: int
    hi: int
    results: tuple[RangeEntry, ...]
    left_boundary: RangeEntry | None  # largest entry < lo (None at edge)
    right_boundary: RangeEntry | None  # smallest entry > hi (None at edge)

    def byte_size(self) -> int:
        """Serialised size in bytes."""
        total = 16
        total += sum(r.byte_size() for r in self.results)
        for boundary in (self.left_boundary, self.right_boundary):
            if boundary is not None:
                total += boundary.byte_size()
        return total


def range_query(tree: MBTree, lo: int, hi: int) -> tuple[list[Entry], RangeVO]:
    """SP side: entries with ``lo <= key <= hi`` plus the range VO."""
    if lo > hi:
        raise QueryError("empty range: lo must not exceed hi")
    results: list[RangeEntry] = []
    for entry in tree.iter_entries():
        if lo <= entry.key <= hi:
            _, path = tree.prove(entry.key)
            results.append(RangeEntry(entry=entry, path=path))
        elif entry.key > hi:
            break
    # Largest entry strictly below lo; smallest strictly above hi.
    left = tree.boundaries(lo - 1, upper=False)
    right = tree.boundaries(hi, lower=False)
    left_boundary = None
    if left.lower is not None:
        left_boundary = RangeEntry(entry=left.lower, path=left.lower_path)
    right_boundary = None
    if right.upper is not None:
        right_boundary = RangeEntry(entry=right.upper, path=right.upper_path)
    vo = RangeVO(
        lo=lo,
        hi=hi,
        results=tuple(results),
        left_boundary=left_boundary,
        right_boundary=right_boundary,
    )
    return [r.entry for r in results], vo


def verify_range(root_hash: bytes, vo: RangeVO) -> list[Entry]:
    """Client side: verify a range VO against the on-chain root.

    Returns the verified entries; raises :class:`VerificationError`
    naming the violated criterion otherwise.
    """
    if vo.lo > vo.hi:
        raise VerificationError("malformed VO: inverted range")
    if digests_equal(root_hash, EMPTY_DIGEST):
        # Empty tree: the only valid answer is the empty one with no
        # boundary evidence.
        if vo.results or vo.left_boundary or vo.right_boundary:
            raise VerificationError("non-empty VO against an empty index")
        return []

    def check_entry(item: RangeEntry, label: str) -> None:
        """Verify one proven entry against the root."""
        if not digests_equal(item.path.compute_root(item.entry), root_hash):
            raise VerificationError(f"{label} fails Merkle verification")

    for item in vo.results:
        check_entry(item, f"result {item.entry.key}")
        if not vo.lo <= item.entry.key <= vo.hi:
            raise VerificationError("result outside the queried range")
    for prev, nxt in zip(vo.results, vo.results[1:]):
        if prev.entry.key >= nxt.entry.key:
            raise VerificationError("results not strictly increasing")
        if not paths_adjacent(prev.path, nxt.path):
            raise VerificationError(
                "gap between consecutive results (missing entries)"
            )

    # Left edge: either a boundary entry < lo adjacent to the first
    # result, or the first result is the tree's first entry; with no
    # results, the boundaries themselves must be adjacent.
    first = vo.results[0] if vo.results else None
    last = vo.results[-1] if vo.results else None
    if vo.left_boundary is not None:
        check_entry(vo.left_boundary, "left boundary")
        if vo.left_boundary.entry.key >= vo.lo:
            raise VerificationError("left boundary not below the range")
        left_anchor = vo.left_boundary
    else:
        left_anchor = None
        if first is not None and not first.path.is_leftmost():
            raise VerificationError(
                "missing left boundary without first-entry evidence"
            )
    if vo.right_boundary is not None:
        check_entry(vo.right_boundary, "right boundary")
        if vo.right_boundary.entry.key <= vo.hi:
            raise VerificationError("right boundary not above the range")
        right_anchor = vo.right_boundary
    else:
        right_anchor = None
        if last is not None and not last.path.is_rightmost():
            raise VerificationError(
                "missing right boundary without last-entry evidence"
            )

    if first is not None:
        if left_anchor is not None and not paths_adjacent(
            left_anchor.path, first.path
        ):
            raise VerificationError("left boundary not adjacent to results")
        if right_anchor is not None and not paths_adjacent(
            last.path, right_anchor.path
        ):
            raise VerificationError("right boundary not adjacent to results")
    else:
        # Empty result: prove the range really is empty.
        if left_anchor is not None and right_anchor is not None:
            if not paths_adjacent(left_anchor.path, right_anchor.path):
                raise VerificationError(
                    "empty range claim with non-adjacent boundaries"
                )
        elif left_anchor is not None:
            if not left_anchor.path.is_rightmost():
                raise VerificationError(
                    "empty range claim without last-entry evidence"
                )
        elif right_anchor is not None:
            if not right_anchor.path.is_leftmost():
                raise VerificationError(
                    "empty range claim without first-entry evidence"
                )
        else:
            raise VerificationError(
                "empty range claim over a non-empty index needs boundaries"
            )
    return [r.entry for r in vo.results]


class AuthenticatedRangeIndex:
    """A complete DO/chain/SP trio for suppressed range queries.

    With ``ordered=True`` (the default) object IDs must arrive in
    increasing order and the contract is the paper's
    :class:`SuppressedMerkleContract` (right-most-spine ``UpdVO``);
    with ``ordered=False`` the stream may be arbitrary and the
    generalised update proofs of
    :mod:`repro.core.suppressed_general` enforce key-correct placement
    on-chain — the Section IX future-work extension.
    """

    def __init__(
        self,
        fanout: int = DEFAULT_FANOUT,
        chain: Blockchain | None = None,
        ordered: bool = True,
    ) -> None:
        self.fanout = fanout
        self.ordered = ordered
        self.chain = chain or Blockchain()
        if ordered:
            self.contract = SuppressedMerkleContract(fanout=fanout)
        else:
            from repro.core.suppressed_general import GeneralSuppressedContract

            self.contract = GeneralSuppressedContract(fanout=fanout)
        self.chain.deploy("range-index", self.contract)
        self.tree = MBTree(fanout=fanout)  # the SP's complete index

    def insert(self, metadata: ObjectMetadata) -> list[Receipt]:
        """DO+SP pipeline for one new object."""
        if self.ordered:
            register = self.chain.send_transaction(
                "do",
                "range-index",
                "register_object",
                metadata.object_id,
                metadata.object_hash,
                metadata.keywords,
                payload=metadata.payload_bytes(),
            )
            from repro.core.suppressed import build_updates, updates_payload

            updates = build_updates(
                {PRIMARY_INDEX_KEY: self.tree},
                metadata.object_id,
                (PRIMARY_INDEX_KEY,),
            )
            update_tx = self.chain.send_transaction(
                "sp",
                "range-index",
                "insert",
                metadata.object_id,
                metadata.object_hash,
                updates,
                payload=updates_payload(updates),
            )
        else:
            from repro.core.suppressed_general import generate_general_update

            register = self.chain.send_transaction(
                "do",
                "range-index",
                "register_object",
                metadata.object_id,
                metadata.object_hash,
                payload=metadata.payload_bytes(),
            )
            proof = generate_general_update(self.tree, metadata.object_id)
            update_tx = self.chain.send_transaction(
                "sp",
                "range-index",
                "insert",
                PRIMARY_INDEX_KEY,
                metadata.object_id,
                metadata.object_id,
                metadata.object_hash,
                proof,
                payload=b"\x00" * proof.byte_size(),
            )
        if update_tx.status:
            self.tree.insert(metadata.object_id, metadata.object_hash)
        self.chain.mine_block()
        return [register, update_tx]

    def query(self, lo: int, hi: int) -> tuple[list[Entry], RangeVO]:
        """SP side: answer ``[lo, hi]`` with a verification object."""
        return range_query(self.tree, lo, hi)

    def verify(self, vo: RangeVO) -> list[Entry]:
        """Client side: check a VO against the on-chain root."""
        root = self.chain.call_view("range-index", "view_root", PRIMARY_INDEX_KEY)
        return verify_range(root, vo)
