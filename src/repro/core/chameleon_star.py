"""The Chameleon^inv* index (Section V-D): Bloom-filter optimisation.

Identical to the Chameleon^inv index except that the smart contract also
maintains one 256-bit Bloom filter (exactly one storage word) for every
group of ``b`` inserted objects per keyword tree, along with each
filter's smallest inserted ID.  The filters let both the SP (during the
join) and the client (during verification) prove *non-existence* of a
target ID without shipping and checking CVC membership proofs, whose
verification dominates the client's cost.

Per-insert on-chain cost stays constant: read-modify-write of the
current filter word plus the count update, with an amortised
``C_sstore / b`` for each new filter and its range word.
"""

from __future__ import annotations

from repro import obs
from repro.core.chameleon_index import ChameleonContract, CountUpdate
from repro.crypto.bloom import (
    DEFAULT_CAPACITY,
    DEFAULT_FILTER_BITS,
    id_mask,
    optimal_hash_count,
)


class ChameleonStarContract(ChameleonContract):
    """On-chain side of Chameleon^inv*: counts plus Bloom filters."""

    def __init__(
        self,
        value_bytes: int = 128,
        bloom_capacity: int = DEFAULT_CAPACITY,
        filter_bits: int = DEFAULT_FILTER_BITS,
    ) -> None:
        super().__init__(value_bytes=value_bytes)
        self.bloom_capacity = bloom_capacity
        self.filter_bits = filter_bits
        self.hash_count = optimal_hash_count(filter_bits, bloom_capacity)

    def insert_object(
        self,
        object_id: int,
        object_hash: bytes,
        updates: list[CountUpdate],
        new_keywords: list[tuple[str, int]] = (),
    ) -> None:
        """Counts as in the base contract, plus filter maintenance."""
        super().insert_object(object_id, object_hash, updates, new_keywords)
        with obs.span("maintain.ci*.bloom", keywords=len(updates)):
            for update in updates:
                self._update_bloom(update, object_id)

    def _update_bloom(self, update: CountUpdate, object_id: int) -> None:
        # Everything comes from storage and the transaction, so a
        # reverted batch leaves nothing behind: the ``cnt``-th object
        # lands in filter ``(cnt - 1) // b``, which is new when it is
        # the filter's first.
        keyword = update.keyword
        index, slot = divmod(update.count - 1, self.bloom_capacity)
        # Deriving the ID's bit mask costs two one-word hashes in memory.
        self.env.meter.hash(1)
        self.env.meter.hash(1)
        self.env.touch_memory(2)
        word = id_mask(object_id, self.filter_bits, self.hash_count)
        if slot == 0:
            # New filter: record its range minimum once.
            self.storage.store(("bloommin", keyword, index), object_id)
            self.storage.store(("bloomcount", keyword), index + 1)
        else:
            # Read-modify-write of the live filter word.
            word |= int.from_bytes(self.storage.load(("bloom", keyword, index)), "big")
        self.storage.store(("bloom", keyword, index), word.to_bytes(self.filter_bits // 8, "big"))

    # -- free views --------------------------------------------------------------

    def view_bloom_snapshot(self, keyword: str) -> list[tuple[int, int]]:
        """On-chain filter state: ``(min_id, bits)`` per filter word."""
        n_filters = self.storage.peek_int(("bloomcount", keyword))
        snapshot = []
        for index in range(n_filters):
            min_id = self.storage.peek_int(("bloommin", keyword, index))
            bits = int.from_bytes(
                self.storage.peek(("bloom", keyword, index)), "big"
            )
            snapshot.append((min_id, bits))
        return snapshot

    def view_bloom_params(self) -> tuple[int, int]:
        """Free view: filter length and capacity."""
        return self.filter_bits, self.bloom_capacity
