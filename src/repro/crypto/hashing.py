"""Cryptographic hashing utilities.

The paper uses SHA-3 as its cryptographic hash function and the Ethereum
gas model charges hashing per 32-byte *word* of input (``30 + 6x`` gas for
an ``x``-word message, Table I).  This module centralises:

* the digest function used everywhere (:func:`sha3`),
* domain-separated hashing so that leaves, internal nodes and objects can
  never be confused for one another (:func:`tagged_hash`),
* word-size helpers used by the gas meter (:func:`word_count`).

All digests are raw 32-byte :class:`bytes` values.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Iterable

#: Size of a digest and of an Ethereum storage/memory word, in bytes.
DIGEST_SIZE = 32

#: The all-zero digest, used as the canonical "empty" value.
EMPTY_DIGEST = b"\x00" * DIGEST_SIZE


def sha3(data: bytes) -> bytes:
    """Return the SHA3-256 digest of ``data``."""
    return hashlib.sha3_256(data).digest()


def hash_concat(*parts: bytes) -> bytes:
    """Hash the concatenation of ``parts`` (the paper's ``h(a||b||...)``)."""
    hasher = hashlib.sha3_256()
    for part in parts:
        hasher.update(part)
    return hasher.digest()


def tagged_hasher(tag: str) -> "hashlib._Hash":
    """A SHA3-256 state that has absorbed ``tag``'s domain prefix.

    ``copy()`` it per message: a caller that hashes many messages under
    one tag (every object of an answer) seeds the state once instead of
    re-hashing the tag each time.
    """
    tag_digest = sha3(tag.encode("utf-8"))
    return hashlib.sha3_256(tag_digest + tag_digest)


def tagged_hash(tag: str, *parts: bytes) -> bytes:
    """Domain-separated hash: ``h(tag-digest || tag-digest || parts...)``.

    Mirrors the BIP-340 style construction.  Two calls with different tags
    can never collide even on identical payloads, which rules out
    cross-structure confusion attacks (e.g. presenting a leaf node where an
    internal node is expected).
    """
    hasher = tagged_hasher(tag)
    for part in parts:
        hasher.update(part)
    return hasher.digest()


def digests_equal(a: bytes, b: bytes) -> bool:
    """Constant-time digest equality.

    Verification code compares attacker-supplied digests against trusted
    values; short-circuiting ``==`` leaks the length of the matching
    prefix through timing.  Every digest/root comparison on a
    verification path must go through this helper (enforced by the
    ``timing-safe-compare`` rule of ``repro-lint``).
    """
    return hmac.compare_digest(a, b)


def hash_int(value: int) -> bytes:
    """Hash a non-negative integer in its 32-byte big-endian encoding."""
    if value < 0:
        raise ValueError("hash_int expects a non-negative integer")
    return sha3(value.to_bytes(DIGEST_SIZE, "big"))


def digest_to_int(digest: bytes) -> int:
    """Interpret a digest as a big-endian integer (used by the RSA CVC)."""
    return int.from_bytes(digest, "big")


def word_count(data: bytes | int) -> int:
    """Number of 32-byte words needed to hold ``data``.

    Accepts either a byte string (rounds its length up to whole words) or
    an integer byte length.  Used by the gas meter to price hash and
    memory operations the way the EVM does.
    """
    length = len(data) if isinstance(data, bytes) else int(data)
    if length < 0:
        raise ValueError("byte length must be non-negative")
    return (length + DIGEST_SIZE - 1) // DIGEST_SIZE


def combine_digests(digests: Iterable[bytes]) -> bytes:
    """Hash an ordered sequence of digests into one (Merkle node rule)."""
    return hash_concat(*digests)
