"""The baseline Merkle^inv index (Section IV-A).

The smart contract maintains the *complete* MB-tree of every keyword in
contract storage, so each object insertion pays for tree traversal,
entry storage, ancestor re-hashing and node splits at on-chain prices —
the ``O(L * C_1 * log n)`` cost Table II attributes to the baseline.

The contract keeps each keyword's tree as its flat record buffer (the
simulator's stand-in for decoded storage) and charges gas from the
:class:`~repro.core.mbtree.TreeInsertReport` each insertion returns,
exactly where the paper's Section IV-A cost analysis places it:

* descending to the target leaf: one ``C_sload`` per level;
* storing the inserted entry: one ``C_sstore``;
* re-hashing each touched node: one ``C_sload`` per slot digest, one
  ``C_hash`` over the node payload, one ``C_supdate`` of the stored
  hash word;
* a node split: two ``C_sstore`` (new node content + hash) plus
  ``C_supdate`` redistributions of the original node and its parent.

A failed call leaves no tree behind it: every tree it touched is
restored from its buffer as it was before the call, as the chain
restores storage.
"""

from __future__ import annotations

from repro import obs
from repro.core.mbtree import (
    DEFAULT_FANOUT,
    NODE_PREFIX,
    MBTree,
    TreeInsertReport,
)
from repro.crypto.hashing import DIGEST_SIZE, word_count
from repro.ethereum.contract import SmartContract
from repro.ethereum.gas import GasMeter


def charge_rehash(meter: GasMeter, width: int) -> None:
    """Re-hash one node of ``width`` slots and store its digest.

    A node's payload is its 64-byte tag prefix and one digest per slot,
    so its length follows from the width alone.
    """
    meter.sload(width)  # load the child/entry hash words
    meter.hash(word_count(len(NODE_PREFIX) + DIGEST_SIZE * width))
    meter.supdate(1)  # write the refreshed node hash


def charge_insert(meter: GasMeter, tree: MBTree, report: TreeInsertReport) -> None:
    """Charge one insertion, in the order the tree performed it."""
    for _ in report.visited:
        meter.sload(1)  # fetch the node's content word
    if report.visited:
        meter.sstore(1)  # store the new <id, h(o)> entry
    width = tree.store.count
    rehashed = report.rehashed
    for level in range(report.splits):
        meter.sstore(2)  # new node: content word + hash word
        meter.sload(tree.fanout)  # read entries for redistribution
        meter.supdate(1)  # rewrite the original node's content
        meter.supdate(1)  # parent gains a child pointer
        charge_rehash(meter, width(rehashed[2 * level]))
        charge_rehash(meter, width(rehashed[2 * level + 1]))
    rest = rehashed[2 * report.splits : len(rehashed) - report.new_root]
    for index in rest:
        charge_rehash(meter, width(index))
    if report.new_root:
        meter.sstore(2)  # new root node: content + hash
        meter.supdate(1)  # root pointer word
        charge_rehash(meter, width(rehashed[-1]))


def restore_trees(trees: dict[str, MBTree], saved: dict[str, bytes | None]) -> None:
    """Put back each saved tree (``None``: the keyword had none)."""
    for keyword, blob in saved.items():
        if blob is None:
            trees.pop(keyword, None)
        else:
            trees[keyword] = MBTree.from_blob(blob)


class MerkleInvContract(SmartContract):
    """On-chain side of the baseline Merkle^inv index.

    A single DO transaction registers the object's meta-data and inserts
    it into every keyword's on-chain MB-tree.
    """

    def __init__(self, fanout: int = DEFAULT_FANOUT) -> None:
        super().__init__()
        self.fanout = fanout
        self._trees: dict[str, MBTree] = {}

    def register_and_insert(
        self, object_id: int, object_hash: bytes, keywords: tuple[str, ...]
    ) -> None:
        """DO entry point: store meta-data and update every keyword tree."""
        saved: dict[str, bytes | None] = {}
        with obs.span("maintain.mi.insert", keywords=len(keywords)):
            try:
                self.env.read_calldata(object_hash)
                self.storage.store(("objhash", object_id), object_hash)
                for keyword in keywords:
                    tree = self._trees.get(keyword)
                    if keyword not in saved:
                        saved[keyword] = None if tree is None else tree.to_blob()
                    if tree is None:
                        tree = MBTree(fanout=self.fanout)
                        self._trees[keyword] = tree
                    report = tree.insert(object_id, object_hash)
                    charge_insert(self.env.meter, tree, report)
                    # Persist the refreshed root hash word for this keyword.
                    self.storage.store(("root", keyword), tree.root_hash)
            except BaseException:
                restore_trees(self._trees, saved)
                raise
            self.emit(
                "ObjectInserted", object_id=object_id, keywords=len(keywords)
            )

    # -- free views (client reads of confirmed state) --------------------------

    def view_root(self, keyword: str) -> bytes:
        """The keyword tree's root hash (zero word when unknown)."""
        return self.storage.peek(("root", keyword))

    def view_object_hash(self, object_id: int) -> bytes:
        """Free view: the registered hash of one object."""
        return self.storage.peek(("objhash", object_id))
