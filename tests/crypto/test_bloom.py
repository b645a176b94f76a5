"""Unit tests for Bloom filters and the per-tree filter chains.

The checks raise on their own (``require``), so the suite still checks
them under ``python -O``: the Bloom conclusions decide which probes the
client skips.
"""

import pickle

import pytest

from repro.crypto import bloom


def require(condition: bool) -> None:
    if not condition:
        raise AssertionError("Bloom check failed")


class TestOptimalHashCount:
    def test_clamped_to_range(self):
        require(1 <= bloom.optimal_hash_count(256, 1000) <= 8)
        require(1 <= bloom.optimal_hash_count(256, 1) <= 8)

    def test_default_parameters(self):
        # m=256, n=30 -> k ~ 5.9 -> 6
        require(bloom.optimal_hash_count(256, 30) == 6)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            bloom.optimal_hash_count(256, 0)


class TestBloomFilter:
    def test_no_false_negatives(self):
        flt = bloom.BloomFilter()
        ids = list(range(100, 130))
        for i in ids:
            flt.add(i)
        require(all(flt.might_contain(i) for i in ids))

    def test_capacity_enforced(self):
        flt = bloom.BloomFilter(capacity=2)
        flt.add(1)
        flt.add(2)
        require(flt.is_full)
        with pytest.raises(ValueError):
            flt.add(3)

    def test_range_tracking(self):
        flt = bloom.BloomFilter()
        for i in (5, 3, 9):
            flt.add(i)
        require(flt.min_id == 3)
        require(flt.max_id == 9)

    def test_word_encoding(self):
        flt = bloom.BloomFilter()
        flt.add(42)
        word = flt.to_word()
        require(len(word) == 32)
        require(int.from_bytes(word, "big") == flt.bits)

    def test_exact_members(self):
        flt = bloom.BloomFilter()
        flt.add(7)
        require(flt.exact_members() == frozenset({7}))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            bloom.BloomFilter(filter_bits=0)
        with pytest.raises(ValueError):
            bloom.BloomFilter(capacity=0)


class TestBloomFilterChain:
    def test_rollover_at_capacity(self):
        chain = bloom.BloomFilterChain(capacity=3)
        created_flags = [chain.add(i)[1] for i in range(1, 8)]
        require(created_flags == [True, False, False, True, False, False, True])
        require(len(chain) == 3)

    def test_definitely_absent_semantics(self):
        chain = bloom.BloomFilterChain(capacity=2)
        for i in (10, 20, 30, 40):
            chain.add(i)
        # Present IDs are never reported absent.
        for i in (10, 20, 30, 40):
            require(not chain.definitely_absent(i))
        # Below the first filter's min: conclusively absent.
        require(chain.definitely_absent(5))
        # Empty chain: everything is absent.
        require(bloom.BloomFilterChain().definitely_absent(1))

    def test_absent_ids_mostly_detected(self):
        chain = bloom.BloomFilterChain(capacity=30)
        for i in range(0, 600, 2):  # even IDs only
            chain.add(i)
        absent = sum(chain.definitely_absent(i) for i in range(1, 600, 2))
        # Bloom false positives allowed, but the bulk must be detected.
        require(absent > 200)

    def test_snapshot_roundtrip(self):
        chain = bloom.BloomFilterChain(capacity=3)
        for i in (1, 5, 9, 12, 15):
            chain.add(i)
        snapshot = chain.snapshot()
        rebuilt = bloom.BloomFilterChain.from_snapshot(snapshot, capacity=3)
        for i in range(1, 20):
            require(chain.definitely_absent(i) == rebuilt.definitely_absent(i))



class TestMaskMemo:
    def test_masks_are_derived_once_and_bounded(self):
        memo = bloom.MaskMemo(256, 6, maxsize=2)
        for object_id in (1, 2, 3):
            require(memo[object_id] == bloom.id_mask(object_id, 256, 6))
        require(list(memo) == [2, 3])  # the oldest derived went first

    def test_a_pickled_memo_arrives_empty(self):
        chain = bloom.BloomFilterChain(masks=bloom.MaskMemo(256, 6))
        chain.add(5)
        copy = pickle.loads(pickle.dumps(chain))
        require(len(chain.masks) == 1 and len(copy.masks) == 0)
        require((copy.masks.filter_bits, copy.masks.hash_count) == (256, 6))
        require(not copy.definitely_absent(5))

    def test_a_chain_refuses_a_memo_of_other_parameters(self):
        with pytest.raises(ValueError):
            bloom.BloomFilterChain(capacity=10, masks=bloom.MaskMemo(256, 6))
        with pytest.raises(ValueError):
            bloom.BloomFilterChain(filter_bits=128, masks=bloom.MaskMemo(256, 6))
