"""A GEM^2-tree-style comparator (Zhang et al., ICDE 2019).

The GEM^2-tree is *partially* suppressed: new objects first enter small
suppressed MB-trees whose root hashes the contract recomputes in memory
from calldata (cheap), and once a suppressed tree reaches a threshold it
is bulk-merged into a fully *materialised* on-chain MB-tree (expensive,
but amortised by batching).  Fig. 6 of the paper shows its maintenance
cost landing between the Merkle^inv baseline and the fully suppressed
index — exactly the behaviour this simplified reimplementation
reproduces:

* per insert, the suppressed buffer's root is recomputed from the
  replayed buffer contents: ``C_txdata``/``C_hash``/``C_mem`` plus one
  ``C_supdate`` of the root word;
* every ``merge_threshold`` inserts, the buffered entries bulk-insert
  into the materialised MB-tree.  Batching pays each touched node's
  re-hash once per merge instead of once per object, which is where the
  GEM^2-tree's saving over the plain baseline comes from.

The query side is identical to the Merkle^inv family (the SP holds the
complete trees), so only maintenance gas is modelled — which is all
Fig. 6 measures.  A failed call restores the buffers and trees it
touched, as the chain restores storage.
"""

from __future__ import annotations

from repro.core.mbtree import DEFAULT_FANOUT, MBTree
from repro.core.merkle_inv import charge_rehash, restore_trees
from repro.crypto.hashing import word_count
from repro.ethereum.contract import SmartContract

#: Suppressed-buffer capacity before a merge into the materialised tree.
DEFAULT_MERGE_THRESHOLD = 16


class Gem2Contract(SmartContract):
    """On-chain side of the GEM^2-tree-style index (maintenance only)."""

    def __init__(
        self,
        fanout: int = DEFAULT_FANOUT,
        merge_threshold: int = DEFAULT_MERGE_THRESHOLD,
    ) -> None:
        super().__init__()
        self.fanout = fanout
        self.merge_threshold = merge_threshold
        self._materialised: dict[str, MBTree] = {}
        self._buffers: dict[str, list[tuple[int, bytes]]] = {}

    def register_and_insert(
        self, object_id: int, object_hash: bytes, keywords: tuple[str, ...]
    ) -> None:
        """DO entry point: buffer the object, merging on overflow."""
        buffers: dict[str, list[tuple[int, bytes]] | None] = {}
        trees: dict[str, bytes | None] = {}
        try:
            self.env.read_calldata(object_hash)
            self.storage.store(("objhash", object_id), object_hash)
            for keyword in keywords:
                buffer = self._buffers.get(keyword)
                buffers.setdefault(keyword, buffer)
                buffer = [*(buffer or ()), (object_id, object_hash)]
                self._buffers[keyword] = buffer
                self._update_suppressed_root(keyword, buffer)
                if len(buffer) >= self.merge_threshold:
                    tree = self._materialised.get(keyword)
                    if keyword not in trees:
                        trees[keyword] = None if tree is None else tree.to_blob()
                    self._merge(keyword, buffer)
                    self._buffers[keyword] = []
        except BaseException:
            for keyword, buffer in buffers.items():
                if buffer is None:
                    self._buffers.pop(keyword, None)
                else:
                    self._buffers[keyword] = buffer
            restore_trees(self._materialised, trees)
            raise
        self.emit("ObjectInserted", object_id=object_id)

    def _update_suppressed_root(
        self, keyword: str, buffer: list[tuple[int, bytes]]
    ) -> None:
        """Recompute the suppressed tree's root in memory from calldata.

        The buffer contents ride in the transaction; the contract stages
        them in memory, hashes them into the suppressed root and updates
        the single on-chain root word.
        """
        payload = b"".join(
            oid.to_bytes(8, "big") + ohash for oid, ohash in buffer
        )
        self.env.touch_memory(word_count(payload))
        self.env.meter.txdata(len(payload))
        root = self.env.keccak(payload)
        self.storage.store(("suppressed-root", keyword), root)

    def _merge(self, keyword: str, buffer: list[tuple[int, bytes]]) -> None:
        """Bulk-merge the suppressed buffer into the materialised tree.

        Batching pays each node's read and re-hash once per merge: a
        record visited again costs nothing more, and every re-hashed
        record is charged once, at its width when the merge ends.
        """
        tree = self._materialised.setdefault(keyword, MBTree(self.fanout))
        meter = self.env.meter
        visited: set[int] = set()
        rehashed: dict[int, None] = {}
        for object_id, object_hash in buffer:
            report = tree.insert(object_id, object_hash)
            for index in report.visited:
                if index not in visited:
                    visited.add(index)
                    meter.sload(1)
            if report.visited:
                meter.sstore(1)
            for _ in range(report.splits + report.new_root):
                meter.sstore(2)
                meter.supdate(1)
            rehashed.update(dict.fromkeys(report.rehashed))
        for index in rehashed:
            charge_rehash(meter, tree.store.count(index))
        self.storage.store(("root", keyword), tree.root_hash)
        self.emit("Merged", keyword=keyword, entries=len(buffer))

    # -- free views --------------------------------------------------------------

    def view_root(self, keyword: str) -> bytes:
        """Free view: the keyword tree's on-chain root hash."""
        return self.storage.peek(("root", keyword))

    def view_suppressed_root(self, keyword: str) -> bytes:
        """Free view: the suppressed buffer's root hash."""
        return self.storage.peek(("suppressed-root", keyword))
