"""Bloom filters for the Chameleon^inv* index.

The paper fixes the filter length to 256 bits — one Ethereum storage word —
so that each filter occupies exactly one storage slot on-chain, and caps
the number of inserted object IDs at ``b`` (default 30).  Each filter also
records the smallest and largest inserted IDs so the SP and client can
select the filter responsible for a given ID range (Section V-D).

One derivation
--------------
An ID's ``hash_count`` bit positions come from one function,
:func:`id_mask`, as one integer: inserting ORs it into the filter word,
and a membership test is ``bits & mask == mask``.  A mask depends only on
the ID and ``(filter_bits, hash_count)``, so each party derives it once
into its own :class:`MaskMemo` of those parameters (a chain accepts no
other): the SP's shard engine holds one shared by all its chains,
however built; the client's belongs to its session's
:class:`~repro.core.proofcache.VerificationCache`, which bounds it,
empties it on ``clear()``.  There is no
process-global memo, so a client's skips rest on its own derivations.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.crypto.hashing import sha3

#: Filter length in bits: one EVM storage word.
DEFAULT_FILTER_BITS = 256

#: Paper default for the max number of IDs per filter.
DEFAULT_CAPACITY = 30


def optimal_hash_count(filter_bits: int, capacity: int) -> int:
    """Number of hash functions minimising the false-positive rate.

    Uses the classical ``k = (m/n) ln 2`` formula, clamped to ``[1, 8]``
    so the on-chain test stays cheap.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    k = round(filter_bits / capacity * 0.6931471805599453)
    return max(1, min(8, k))


def id_mask(object_id: int, filter_bits: int, hash_count: int) -> int:
    """The ID's filter bits as one integer: ``hash_count`` positions by
    double hashing its 8-byte big-endian encoding."""
    item = object_id.to_bytes(8, "big")
    h1 = int.from_bytes(sha3(b"bloom-1" + item), "big")
    h2 = int.from_bytes(sha3(b"bloom-2" + item), "big") | 1  # odd => full period
    mask = 0
    for i in range(hash_count):
        mask |= 1 << (h1 + i * h2) % filter_bits
    return mask


class MaskMemo(dict[int, int]):
    """``object_id -> id_mask(object_id, ...)`` for one ``(filter_bits,
    hash_count)``, derived on first lookup; at most ``maxsize`` (if set)
    held, the oldest dropped first, stored under a lock."""

    def __init__(
        self, filter_bits: int, hash_count: int, maxsize: int | None = None
    ) -> None:
        super().__init__()
        self.filter_bits = filter_bits
        self.hash_count = hash_count
        self.maxsize = maxsize
        self._lock = threading.Lock()

    def __reduce__(self) -> tuple:
        # A memo stays with the party that derived it: a copy arrives empty.
        return (MaskMemo, (self.filter_bits, self.hash_count, self.maxsize))

    def __missing__(self, object_id: int) -> int:
        mask = id_mask(object_id, self.filter_bits, self.hash_count)
        with self._lock:
            if self.maxsize is not None and len(self) >= self.maxsize:
                del self[next(iter(self))]
            self[object_id] = mask
        return mask

    def clear(self) -> None:
        with self._lock:
            super().clear()


@dataclass
class BloomFilter:
    """A fixed-length Bloom filter over object IDs.

    The filter's bit array is stored as a single integer (``bits``) so it
    can be written to one simulated storage word verbatim.
    """

    filter_bits: int = DEFAULT_FILTER_BITS
    capacity: int = DEFAULT_CAPACITY
    hash_count: int = 0
    bits: int = 0
    count: int = 0
    min_id: int | None = None
    max_id: int | None = None
    _members: set[int] = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        if self.filter_bits <= 0:
            raise ValueError("filter_bits must be positive")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.hash_count == 0:
            self.hash_count = optimal_hash_count(self.filter_bits, self.capacity)

    @property
    def is_full(self) -> bool:
        """True once ``capacity`` IDs have been inserted."""
        return self.count >= self.capacity

    def add(self, object_id: int, mask: int | None = None) -> None:
        """Insert an object ID (its :func:`id_mask` when the caller has
        it); raises when the filter is full."""
        if self.is_full:
            raise ValueError("Bloom filter is full; create a new one")
        if mask is None:
            mask = id_mask(object_id, self.filter_bits, self.hash_count)
        self.bits |= mask
        self.count += 1
        self._members.add(object_id)
        if self.min_id is None or object_id < self.min_id:
            self.min_id = object_id
        if self.max_id is None or object_id > self.max_id:
            self.max_id = object_id

    def might_contain(self, object_id: int) -> bool:
        """Bloom membership test: no false negatives by construction."""
        mask = id_mask(object_id, self.filter_bits, self.hash_count)
        return self.bits & mask == mask

    def to_word(self) -> bytes:
        """Serialise the bit array to ``filter_bits/8`` bytes."""
        return self.bits.to_bytes(self.filter_bits // 8, "big")

    def exact_members(self) -> frozenset[int]:
        """Exact inserted IDs (SP-side bookkeeping; not sent on-chain)."""
        return frozenset(self._members)


@dataclass
class BloomFilterChain:
    """The sequence of Bloom filters covering one Chameleon* tree.

    Filters partition the inserted ID stream into consecutive groups of at
    most ``capacity`` IDs.  Because object IDs arrive in increasing order,
    the filters' ``[min_id, max_id]`` ranges are disjoint and sorted.
    ``masks`` is the memo of the party holding the chain (see the module
    docstring); without one every mask is derived afresh.
    """

    filter_bits: int = DEFAULT_FILTER_BITS
    capacity: int = DEFAULT_CAPACITY
    filters: list[BloomFilter] = field(default_factory=list)
    masks: MaskMemo | None = field(default=None, repr=False, compare=False)
    hash_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.hash_count = optimal_hash_count(self.filter_bits, self.capacity)
        masks, own = self.masks, (self.filter_bits, self.hash_count)
        if masks is not None and (masks.filter_bits, masks.hash_count) != own:
            raise ValueError("a mask memo serves only chains of its parameters")

    def mask(self, object_id: int) -> int:
        """The ID's mask under this chain's parameters."""
        if self.masks is None:
            return id_mask(object_id, self.filter_bits, self.hash_count)
        return self.masks[object_id]

    def add(self, object_id: int) -> tuple[int, bool]:
        """Insert an ID; returns ``(filter_index, created_new_filter)``."""
        created = False
        if not self.filters or self.filters[-1].is_full:
            self.filters.append(
                BloomFilter(filter_bits=self.filter_bits, capacity=self.capacity)
            )
            created = True
        self.filters[-1].add(object_id, self.mask(object_id))
        return len(self.filters) - 1, created

    def definitely_absent(self, object_id: int) -> bool:
        """Conclude absence from the filter sequence alone.

        Because IDs are inserted in increasing order and every inserted
        ID lands in exactly one filter, filter ``k`` is responsible for
        the half-open range ``[min_k, min_{k+1})`` (the last filter for
        ``[min_last, +inf)``).  An ID below the first filter's minimum
        was never inserted; otherwise the responsible filter's negative
        membership test is conclusive.  This predicate is *shared* by
        the SP's join planner and the client's verifier — both must
        reach identical conclusions from identical filter state.
        """
        if not self.filters:
            return True
        first_min = self.filters[0].min_id
        if first_min is None or object_id < first_min:
            return True
        # Find the last filter whose min_id <= object_id.
        lo, hi = 0, len(self.filters) - 1
        responsible = 0
        while lo <= hi:
            mid = (lo + hi) // 2
            mid_min = self.filters[mid].min_id
            if mid_min is not None and mid_min <= object_id:
                responsible = mid
                lo = mid + 1
            else:
                hi = mid - 1
        mask = self.mask(object_id)
        return self.filters[responsible].bits & mask != mask

    def snapshot(self) -> list[tuple[int, int]]:
        """On-chain representation: ``(min_id, bits)`` per filter."""
        return [(flt.min_id, flt.bits) for flt in self.filters if flt.min_id is not None]

    @classmethod
    def from_snapshot(
        cls,
        snapshot: list[tuple[int, int]],
        filter_bits: int = DEFAULT_FILTER_BITS,
        capacity: int = DEFAULT_CAPACITY,
        masks: MaskMemo | None = None,
    ) -> "BloomFilterChain":
        """Rebuild a chain from on-chain ``(min_id, bits)`` words.

        The reconstruction carries enough state for membership and
        absence tests (bits + range minima); exact member sets and load
        counts are SP-side only and are not recovered.
        """
        chain = cls(filter_bits=filter_bits, capacity=capacity, masks=masks)
        for min_id, bits in snapshot:
            flt = BloomFilter(filter_bits=filter_bits, capacity=capacity)
            flt.bits = bits
            flt.min_id = min_id
            chain.filters.append(flt)
        return chain

    def __len__(self) -> int:
        return len(self.filters)
