"""Binary Merkle hash tree (Section III-A preliminaries).

The MB-tree in :mod:`repro.core.mbtree` is the multi-way workhorse of the
paper; this module provides the classic binary MHT whose root the chain
simulator seals into each block header as the transaction root.
"""

from __future__ import annotations

from repro.crypto.hashing import EMPTY_DIGEST, tagged_hash

_LEAF_TAG = "mht-leaf"
_NODE_TAG = "mht-node"


def leaf_hash(payload: bytes) -> bytes:
    """Domain-separated hash of a leaf payload."""
    return tagged_hash(_LEAF_TAG, payload)


def node_hash(left: bytes, right: bytes) -> bytes:
    """Domain-separated hash of an internal node."""
    return tagged_hash(_NODE_TAG, left, right)


class MerkleTree:
    """An in-memory binary Merkle tree over a list of byte payloads.

    Odd levels are padded by duplicating the last digest, the common
    Bitcoin-style convention.  An empty tree has root ``EMPTY_DIGEST``.
    """

    def __init__(self, payloads: list[bytes] | None = None) -> None:
        self._payloads: list[bytes] = list(payloads or [])
        self._levels: list[list[bytes]] = []
        self._rebuild()

    def __len__(self) -> int:
        return len(self._payloads)

    @property
    def root(self) -> bytes:
        """The root digest (``EMPTY_DIGEST`` when the tree is empty)."""
        if not self._levels or not self._levels[-1]:
            return EMPTY_DIGEST
        return self._levels[-1][0]

    def append(self, payload: bytes) -> int:
        """Append a new leaf; returns its index.

        Rebuilds eagerly — fine for the simulator-scale trees this class
        serves (block transaction lists, tests).
        """
        self._payloads.append(payload)
        self._rebuild()
        return len(self._payloads) - 1

    def _rebuild(self) -> None:
        if not self._payloads:
            self._levels = []
            return
        level = [leaf_hash(p) for p in self._payloads]
        levels = [level]
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level), 2):
                left = level[i]
                right = level[i + 1] if i + 1 < len(level) else level[i]
                nxt.append(node_hash(left, right))
            level = nxt
            levels.append(level)
        self._levels = levels
