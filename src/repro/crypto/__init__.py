"""Cryptographic substrate: hashing, PRFs, Bloom filters, vector
commitments (plain and chameleon) and RSA-FDH signatures.

Everything in this package is implemented from scratch on the Python
standard library, per the reproduction's no-external-crypto constraint.
"""

from repro.crypto.bloom import BloomFilter, BloomFilterChain
from repro.crypto.hashing import (
    DIGEST_SIZE,
    EMPTY_DIGEST,
    hash_concat,
    sha3,
    tagged_hash,
    word_count,
)
from repro.crypto.prf import generate_key, node_randomness, prf_int
from repro.crypto.signatures import PublicKey, SigningKey, generate_keypair
from repro.crypto.vc import (
    ChameleonVectorCommitment,
    CVCAux,
    CVCPublicParams,
    CVCTrapdoor,
    VectorCommitment,
    commit,
    find_collision,
    keygen,
    open_slot,
    verify,
    verify_batch,
    verify_vector,
)

__all__ = [
    "BloomFilter",
    "BloomFilterChain",
    "ChameleonVectorCommitment",
    "CVCAux",
    "CVCPublicParams",
    "CVCTrapdoor",
    "DIGEST_SIZE",
    "EMPTY_DIGEST",
    "PublicKey",
    "SigningKey",
    "VectorCommitment",
    "commit",
    "find_collision",
    "generate_key",
    "generate_keypair",
    "hash_concat",
    "keygen",
    "node_randomness",
    "open_slot",
    "prf_int",
    "sha3",
    "tagged_hash",
    "verify",
    "verify_batch",
    "verify_vector",
    "word_count",
]
