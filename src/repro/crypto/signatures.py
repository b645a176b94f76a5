"""RSA full-domain-hash signatures.

The system model has the data owner sign authenticated digests (e.g. MHT
roots) that are then made public.  We implement textbook RSA-FDH: sign by
raising the full-domain hash of the message to the private exponent.
Security follows from the RSA assumption in the random-oracle model —
entirely adequate for a reproduction whose threat model (Section II-C)
only requires the SP to be unable to forge DO-signed digests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import digests_equal, sha3
from repro.crypto.numbers import (
    generate_rsa_modulus,
    make_random,
    mod_inverse,
    modpow,
)

#: Standard public exponent.
PUBLIC_EXPONENT = 65537

#: Default modulus size for signatures.
DEFAULT_KEY_BITS = 1024


def _full_domain_hash(message: bytes, modulus: int) -> int:
    """Expand SHA3 output to the size of the modulus (MGF1-style)."""
    target_bytes = (modulus.bit_length() + 7) // 8
    out = b""
    counter = 0
    while len(out) < target_bytes:
        out += sha3(b"rsa-fdh" + counter.to_bytes(4, "big") + message)
        counter += 1
    return int.from_bytes(out[:target_bytes], "big") % modulus


@dataclass(frozen=True)
class PublicKey:
    """An RSA verification key ``(n, e)``."""

    n: int
    e: int = PUBLIC_EXPONENT

    def verify(self, message: bytes, signature: int) -> bool:
        """Check ``signature^e == FDH(message) (mod n)``."""
        if not 0 < signature < self.n:
            return False
        width = (self.n.bit_length() + 7) // 8
        recovered = modpow(signature, self.e, self.n).to_bytes(width, "big")
        expected = _full_domain_hash(message, self.n).to_bytes(width, "big")
        return digests_equal(recovered, expected)

    def byte_size(self) -> int:
        """Serialised size in bytes."""
        return (self.n.bit_length() + 7) // 8 + 4


@dataclass(frozen=True)
class SigningKey:
    """An RSA signing key; holds the private exponent."""

    n: int
    d: int
    e: int = PUBLIC_EXPONENT

    @property
    def public_key(self) -> PublicKey:
        """The matching verification key."""
        return PublicKey(n=self.n, e=self.e)

    def sign(self, message: bytes) -> int:
        """Produce an FDH signature on ``message``."""
        return modpow(_full_domain_hash(message, self.n), self.d, self.n, secret=True)


def generate_keypair(
    bits: int = DEFAULT_KEY_BITS, seed: int | None = None
) -> SigningKey:
    """Generate an RSA-FDH keypair (deterministic when seeded)."""
    rng = make_random(seed)
    while True:
        modulus = generate_rsa_modulus(bits, rng)
        phi = modulus.phi
        if phi % PUBLIC_EXPONENT == 0:
            continue  # e must be invertible mod phi; redraw
        d = mod_inverse(PUBLIC_EXPONENT, phi)
        return SigningKey(n=modulus.n, d=d)
