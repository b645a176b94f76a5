"""The baseline Merkle^inv index (Section IV-A).

The smart contract maintains the *complete* MB-tree of every keyword in
contract storage, so each object insertion pays for tree traversal,
entry storage, ancestor re-hashing and node splits at on-chain prices —
the ``O(L * C_1 * log n)`` cost Table II attributes to the baseline.

The contract mirrors the tree structurally in memory (the simulator's
stand-in for decoded storage) while every cost-bearing step is charged
through an :class:`InsertObserver` exactly where the paper's Section
IV-A cost analysis places it:

* descending to the right-most leaf: one ``C_sload`` per level;
* storing the inserted entry: one ``C_sstore``;
* re-hashing each touched node: ``F`` child-hash ``C_sload``s, one
  ``C_hash`` over the node payload, one ``C_supdate`` of the stored
  hash word;
* a node split: two ``C_sstore`` (new node content + hash) plus
  ``C_supdate`` redistributions of the original node and its parent.
"""

from __future__ import annotations

from repro import obs
from repro.core.mbtree import DEFAULT_FANOUT, MBTree, NodeHandle
from repro.crypto.hashing import word_count
from repro.ethereum.contract import SmartContract
from repro.ethereum.gas import GasMeter


class _ChargingObserver:
    """Translates MB-tree structural events into gas charges."""

    def __init__(self, meter: GasMeter, fanout: int) -> None:
        self._meter = meter
        self._fanout = fanout

    def node_visited(self, node: NodeHandle) -> None:
        """Charge for fetching a node's content word."""
        self._meter.sload(1)  # fetch the node's content word

    def entry_inserted(self, leaf: NodeHandle) -> None:
        """Charge for storing the new entry."""
        self._meter.sstore(1)  # store the new <id, h(o)> entry

    def node_rehashed(self, node: NodeHandle) -> None:
        """Charge for recomputing and storing a node hash."""
        self._meter.sload(node.width)  # load the child/entry hash words
        self._meter.hash(word_count(node.payload()))
        self._meter.supdate(1)  # write the refreshed node hash

    def node_split(self, original: NodeHandle, new_sibling: NodeHandle) -> None:
        """Charge for creating and wiring a split node."""
        self._meter.sstore(2)  # new node: content word + hash word
        self._meter.sload(self._fanout)  # read entries for redistribution
        self._meter.supdate(1)  # rewrite the original node's content
        self._meter.supdate(1)  # parent gains a child pointer

    def root_replaced(self, new_root: NodeHandle) -> None:
        """Charge for materialising a new root node."""
        self._meter.sstore(2)  # new root node: content + hash
        self._meter.supdate(1)  # root pointer word


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
        with obs.span("maintain.mi.insert", keywords=len(keywords)):
            self.env.read_calldata(object_hash)
            self.storage.store(("objhash", object_id), object_hash)
            for keyword in keywords:
                tree = self._trees.get(keyword)
                if tree is None:
                    tree = MBTree(fanout=self.fanout)
                    self._trees[keyword] = tree
                observer = _ChargingObserver(self.env.meter, self.fanout)
                tree.insert(object_id, object_hash, observer=observer)
                # Persist the refreshed root hash word for this keyword.
                self.storage.store(("root", keyword), tree.root_hash)
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
