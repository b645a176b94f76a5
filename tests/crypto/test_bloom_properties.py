"""Property: memoised Bloom masks change no conclusion, and stay with their party.

Each party derives an ID's filter mask once — the SP's shard engine in
one memo shared by its chains, the client in its session's
:class:`~repro.core.proofcache.VerificationCache` — so the memo must be
invisible in every answer.  Over random chains (capacity, ID gaps,
filter width) and every probe in ``[0, max + 2 * capacity]``:

* the memoised ``definitely_absent`` equals the reference that derives
  positions on every probe (``tests/reference_bloom.py``), and the
  filter words equal the reference's bit-by-bit words;
* the SP mirror and ``from_snapshot`` of its snapshot, each with its own
  memo, agree on every probe;
* ``VerificationCache.clear()`` empties the session's memo, which the
  session keeps, and ``maxsize`` bounds it;
* a memo of one ``(filter_bits, hash_count)`` is never read under
  another.

Every check raises on its own (no ``assert`` carries a verdict the
suite needs under ``python -O``): the Bloom conclusions decide which
probes the client skips.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DataObject, HybridStorageSystem
from repro.core.proofcache import VerificationCache
from repro.crypto.bloom import (
    DEFAULT_FILTER_BITS,
    BloomFilterChain,
    MaskMemo,
    id_mask,
    optimal_hash_count,
)
from tests import reference_bloom as reference

SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


@st.composite
def chains(draw):
    """``(filter_bits, capacity, ascending IDs)`` of a random chain."""
    filter_bits = draw(st.sampled_from((64, 128, 256)))
    capacity = draw(st.integers(1, 40))
    start = draw(st.integers(0, 50))
    gaps = draw(st.lists(st.integers(1, 12), max_size=90))
    ids = []
    at = start
    for gap in gaps:
        ids.append(at)
        at += gap
    return filter_bits, capacity, ids


def probes(capacity: int, ids: list[int]) -> range:
    return range((ids[-1] if ids else 0) + 2 * capacity + 1)


@SETTINGS
@given(chains())
def test_memoised_chain_equals_the_reference(spec):
    filter_bits, capacity, ids = spec
    hash_count = optimal_hash_count(filter_bits, capacity)
    mirror = BloomFilterChain(
        filter_bits, capacity, masks=MaskMemo(filter_bits, hash_count)
    )
    for object_id in ids:
        mirror.add(object_id)
    words = reference.filter_words(ids, filter_bits, capacity, hash_count)
    check(mirror.snapshot() == words, "filter words moved")

    session = VerificationCache(maxsize=64)
    client = BloomFilterChain.from_snapshot(
        mirror.snapshot(),
        filter_bits,
        capacity,
        masks=session.bloom_masks(filter_bits, capacity),
    )
    bare = BloomFilterChain.from_snapshot(words, filter_bits, capacity)
    # Twice: the second pass reads what the first memoised (or, past
    # the session's bound, derives it again).
    for _ in range(2):
        for probe in probes(capacity, ids):
            expected = reference.definitely_absent(
                words, probe, filter_bits, hash_count
            )
            check(mirror.definitely_absent(probe) == expected, f"SP on {probe}")
            check(client.definitely_absent(probe) == expected, f"client on {probe}")
            check(bare.definitely_absent(probe) == expected, f"bare on {probe}")
    for object_id in ids:
        check(not client.definitely_absent(object_id), f"{object_id} excluded")
    check(len(client.masks) <= 64, "the session memo outgrew maxsize")
    for memo in (mirror.masks, client.masks):
        for object_id, mask in memo.items():
            check(
                mask == id_mask(object_id, filter_bits, hash_count),
                f"memo holds a wrong mask for {object_id}",
            )


@SETTINGS
@given(chains())
def test_session_memo_is_cleared_and_kept(spec):
    filter_bits, capacity, ids = spec
    hash_count = optimal_hash_count(filter_bits, capacity)
    words = reference.filter_words(ids, filter_bits, capacity, hash_count)
    session = VerificationCache()
    masks = session.bloom_masks(filter_bits, capacity)
    client = BloomFilterChain.from_snapshot(words, filter_bits, capacity, masks=masks)
    for probe in probes(capacity, ids):
        client.definitely_absent(probe)
    derived = [probe for probe in probes(capacity, ids) if ids and probe >= ids[0]]
    check(sorted(masks) == derived, "the session did not memoise each probed ID")
    session.clear()
    check(not masks, "clear() left masks behind")
    check(session.bloom_masks(filter_bits, capacity) is masks, "a second memo")


@SETTINGS
@given(chains(), chains())
def test_a_memo_serves_only_its_parameters(first, second):
    session = VerificationCache()
    built = []
    for filter_bits, capacity, ids in (first, second):
        hash_count = optimal_hash_count(filter_bits, capacity)
        words = reference.filter_words(ids, filter_bits, capacity, hash_count)
        chain = BloomFilterChain.from_snapshot(
            words,
            filter_bits,
            capacity,
            masks=session.bloom_masks(filter_bits, capacity),
        )
        for probe in probes(capacity, ids):
            check(
                chain.definitely_absent(probe)
                == reference.definitely_absent(words, probe, filter_bits, hash_count),
                f"({filter_bits}, {hash_count}) chain on {probe}",
            )
        built.append(chain)
    a, b = built
    same = (a.filter_bits, a.hash_count) == (b.filter_bits, b.hash_count)
    check((a.masks is b.masks) == same, "memos not keyed by their parameters")
    for chain in built:
        memo = chain.masks
        check(
            (memo.filter_bits, memo.hash_count) == (chain.filter_bits, chain.hash_count),
            "a chain reads a memo of other parameters",
        )
        for object_id, mask in memo.items():
            check(
                mask == id_mask(object_id, memo.filter_bits, memo.hash_count),
                "a memo holds a mask of other parameters",
            )
    if not same:
        with pytest.raises(ValueError):
            BloomFilterChain(b.filter_bits, b.capacity, masks=a.masks)


class TestSessionScope:
    """The client's memo is its session's: ``chain_proof_system`` hands
    each query's chains the one memo of ``system.verify_cache``."""

    @staticmethod
    def build():
        system = HybridStorageSystem(
            scheme="ci*", cvc_modulus_bits=512, seed=5, bloom_capacity=4
        )
        for object_id in range(1, 13):
            keywords = ("alpha",) if object_id % 3 else ("alpha", "beta")
            system.add_object(DataObject(object_id, keywords, b"x"))
        return system

    def test_queries_share_the_session_memo_until_cleared(self):
        system = self.build()
        result = system.query("alpha AND beta")
        check(result.result_ids == [3, 6, 9, 12], "wrong answer")
        masks = system.verify_cache.bloom_masks(DEFAULT_FILTER_BITS, system.bloom_capacity)
        check(bool(masks), "the session memoised nothing")
        blooms = system.chain_proof_system(frozenset({"alpha", "beta"})).blooms
        check(
            all(chain.masks is masks for chain in blooms.values()),
            "a query's chains hold another memo",
        )
        system.verify_cache.clear()
        check(not masks, "clear() left masks behind")
        check(system.query("alpha AND beta").result_ids == [3, 6, 9, 12], "after clear")

    def test_a_cleared_cache_memoises_nothing(self):
        """A cold client is a cleared cache: its chains start from an
        empty memo, and the answer is the warm client's."""
        system = self.build()
        check(system.query("alpha AND beta").result_ids == [3, 6, 9, 12], "answer")
        system.verify_cache.clear()
        blooms = system.chain_proof_system(frozenset({"alpha", "beta"})).blooms
        check(
            all(not chain.masks for chain in blooms.values()),
            "a cleared session kept masks",
        )
        check(system.query("alpha AND beta").result_ids == [3, 6, 9, 12], "cold answer")
