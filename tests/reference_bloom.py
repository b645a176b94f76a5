"""Reference oracle: Bloom tests that derive bit positions on every probe.

``repro.crypto.bloom`` derives an ID's filter bits once, as one mask
(:func:`~repro.crypto.bloom.id_mask`), and memoises it per party.  The
derivation it replaced lives on here: a list of ``hash_count`` bit
positions by double hashing, re-derived for every insertion and every
test, each position tested on its own, and the responsible filter found
by a linear scan of the on-chain ``(min_id, bits)`` words.  The property
in ``tests/crypto/test_bloom_properties.py`` holds the memoised chain to
these functions.
"""

from __future__ import annotations

from repro.crypto.hashing import sha3


def bit_positions(object_id: int, filter_bits: int, hash_count: int) -> list[int]:
    """The ID's ``hash_count`` bit positions, derived afresh."""
    item = object_id.to_bytes(8, "big")
    h1 = int.from_bytes(sha3(b"bloom-1" + item), "big")
    h2 = int.from_bytes(sha3(b"bloom-2" + item), "big") | 1
    return [(h1 + i * h2) % filter_bits for i in range(hash_count)]


def filter_words(
    ids: list[int], filter_bits: int, capacity: int, hash_count: int
) -> list[tuple[int, int]]:
    """``(min_id, bits)`` per filter for ascending ``ids``, bit by bit."""
    words: list[tuple[int, int]] = []
    for start in range(0, len(ids), capacity):
        group = ids[start : start + capacity]
        bits = 0
        for object_id in group:
            for position in bit_positions(object_id, filter_bits, hash_count):
                bits |= 1 << position
        words.append((group[0], bits))
    return words


def definitely_absent(
    words: list[tuple[int, int]], object_id: int, filter_bits: int, hash_count: int
) -> bool:
    """Absence from the words alone: below every minimum, or some bit of
    the ID unset in the last filter whose minimum is at most the ID."""
    responsible = None
    for min_id, bits in words:
        if min_id <= object_id:
            responsible = bits
    if responsible is None:
        return True
    return not all(
        responsible >> position & 1
        for position in bit_positions(object_id, filter_bits, hash_count)
    )
