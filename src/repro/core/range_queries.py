"""Authenticated range queries over a suppressed Merkle B-tree.

Section IX of the paper notes that the Suppressed Merkle^inv machinery
"can be easily extended to other indexes such as B-tree and R-tree to
support various queries".  This module realises that extension for
one-dimensional range queries over object IDs: a single MB-tree indexes
the whole object stream, the smart contract maintains only its root
hash via ``UpdVO`` update proofs (Algorithms 1–2 unchanged), and the SP
answers ``[lo, hi]`` range queries with a verification object proving
both soundness and completeness.  The VO is one multiproof table over
the entries in the range and the entry just outside it on each side;
the client folds it to the on-chain root once and asks its
:class:`~repro.core.multiproof.ProvenRun` for the span ``[lo, hi]``:

* the fold binds every shown entry to the root;
* the gap counts show the shown entries contiguous, so nothing inside
  the range was dropped, and the outer entries (or the tree's edges)
  tight against its ends;
* a table that shows anything else is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mbtree import DEFAULT_FANOUT, Entry, MBTree
from repro.core.multiproof import TreeMultiproof, open_table
from repro.core.objects import ObjectMetadata
from repro.core.suppressed import SuppressedMerkleContract
from repro.crypto.hashing import EMPTY_DIGEST, digests_equal
from repro.errors import QueryError, VerificationError
from repro.ethereum.chain import Blockchain, Receipt

#: Keyword under which the primary ID index is registered on-chain.
PRIMARY_INDEX_KEY = "__primary__"


@dataclass(frozen=True)
class RangeVO:
    """Verification object for an authenticated range query.

    ``table`` proves the entries in ``[lo, hi]`` plus the largest entry
    below ``lo`` and the smallest above ``hi`` where they exist; it is
    ``None`` for an empty index.
    """

    lo: int
    hi: int
    table: TreeMultiproof | None

    def byte_size(self) -> int:
        """Serialised size in bytes."""
        return 16 + (self.table.byte_size() if self.table is not None else 0)


def range_query(tree: MBTree, lo: int, hi: int) -> tuple[list[Entry], RangeVO]:
    """SP side: entries with ``lo <= key <= hi`` plus the range VO.

    The keys come from :meth:`~repro.core.mbtree.MBTree.boundaries`
    (one bisect of the tree's key column per key, no hashing); the VO is
    one multiproof over them.
    """
    if lo > hi:
        raise QueryError("empty range: lo must not exceed hi")
    if not len(tree):
        return [], RangeVO(lo=lo, hi=hi, table=None)
    below, key = tree.boundaries(lo - 1)
    keys = [] if below is None else [below]
    while key is not None and key <= hi:
        keys.append(key)
        _, key = tree.boundaries(key)
    if key is not None:
        keys.append(key)
    table = tree.multiproof(keys)
    entries = [Entry(k, h) for k, h in table.leaves if lo <= k <= hi]
    return entries, RangeVO(lo=lo, hi=hi, table=table)


def verify_range(root_hash: bytes, vo: RangeVO) -> list[Entry]:
    """Client side: verify a range VO against the on-chain root.

    Returns the verified entries; raises :class:`VerificationError`
    naming the violated criterion otherwise.
    """
    if vo.lo > vo.hi:
        raise VerificationError("malformed VO: inverted range")
    if vo.table is None:
        if not digests_equal(root_hash, EMPTY_DIGEST):
            raise VerificationError("range VO over a non-empty index lacks a table")
        return []
    run = open_table(vo.table, root_hash, PRIMARY_INDEX_KEY)
    run.span(vo.lo, vo.hi)
    run.settle()
    return [Entry(k, h) for k, h in vo.table.leaves if vo.lo <= k <= vo.hi]


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
