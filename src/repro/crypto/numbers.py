"""Number-theoretic primitives for the RSA-based commitments.

Implements Miller–Rabin primality testing, deterministic (seedable) prime
generation, modular inverses, safe parameter sizes and :func:`modpow`, the
one modular exponentiation every other module calls (OpenSSL's Montgomery
kernel, reached through the libcrypto CPython already loads for
``hashlib``).  These back the vector-commitment scheme in
:mod:`repro.crypto.vc`.

Determinism matters here: benchmarks and tests regenerate the same public
parameters from a seed so that measured numbers are reproducible run to
run.  Production deployments should pass ``seed=None`` to draw randomness
from the operating system.
"""

from __future__ import annotations

import hashlib
import secrets
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from typing import Any

from repro.errors import CryptoError, ParameterError

# Small primes used for fast trial division before Miller-Rabin.
_SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)

#: Miller-Rabin rounds; 64 gives a 2^-128 error bound for random inputs.
MILLER_RABIN_ROUNDS = 64


class DeterministicRandom:
    """A seedable CSPRNG-style stream based on SHA3 in counter mode.

    Not a general-purpose DRBG — it exists so that key generation can be
    made reproducible for tests and benchmarks while using the same code
    path as the secure default.
    """

    def __init__(self, seed: int) -> None:
        self._key = hashlib.sha3_256(
            b"repro-drbg" + seed.to_bytes(16, "big", signed=True)
        ).digest()
        self._counter = 0

    def randbits(self, bits: int) -> int:
        """Return a uniformly random integer in ``[0, 2**bits)``."""
        if bits <= 0:
            raise ValueError("bits must be positive")
        out = b""
        while 8 * len(out) < bits:
            block = hashlib.sha3_256(
                self._key + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            out += block
        value = int.from_bytes(out, "big")
        return value >> (8 * len(out) - bits)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        if low > high:
            raise ValueError("empty range")
        span = high - low + 1
        bits = span.bit_length()
        while True:
            candidate = self.randbits(bits)
            if candidate < span:
                return low + candidate


class SystemRandom:
    """Adapter exposing the same interface backed by ``secrets``."""

    def randbits(self, bits: int) -> int:
        """Uniform random integer in ``[0, 2**bits)``."""
        return secrets.randbits(bits)

    def randint(self, low: int, high: int) -> int:
        """Uniform random integer in the inclusive range."""
        return low + secrets.randbelow(high - low + 1)


RandomSource = DeterministicRandom | SystemRandom


def make_random(seed: int | None) -> RandomSource:
    """Build a random source: deterministic when ``seed`` is given."""
    if seed is None:
        return SystemRandom()
    return DeterministicRandom(seed)


def is_probable_prime(n: int, rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    """Miller–Rabin primality test with trial division pre-filter."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n-1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Deterministic witnesses derived from n keep the test reproducible
    # without weakening it: each witness is an independent MR round.
    rng = DeterministicRandom(n % (1 << 63))
    for _ in range(rounds):
        a = rng.randint(2, n - 2)
        x = modpow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: RandomSource) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ParameterError("prime size must be at least 8 bits")
    while True:
        candidate = rng.randbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force bit length and oddness
        if is_probable_prime(candidate):
            return candidate


def generate_distinct_primes(count: int, bits: int, rng: RandomSource) -> list[int]:
    """Generate ``count`` distinct primes of ``bits`` bits each."""
    primes: list[int] = []
    seen: set[int] = set()
    while len(primes) < count:
        p = generate_prime(bits, rng)
        if p not in seen:
            seen.add(p)
            primes.append(p)
    return primes


# ---------------------------------------------------------------------------
# The exponentiation kernel
# ---------------------------------------------------------------------------

#: libcrypto's ``BN_FLG_CONSTTIME``: keeps the modulus' Montgomery set-up
#: and the exponent walk of a secret kernel call in constant time.
_BN_FLG_CONSTTIME = 0x04


def modpow(base: int, exponent: int, modulus: int, *, secret: bool = False) -> int:
    """``base^exponent mod modulus`` — every exponentiation in the package.

    Runs OpenSSL's Montgomery exponentiation (``BN_mod_exp_mont``) in the
    libcrypto CPython's own ``_hashlib`` links, so it adds no dependency.
    ``secret=True`` is for exponents only the trapdoor holder may know
    (the CRT halves of an opening, an RSA private exponent) and takes
    ``BN_mod_exp_mont_consttime``, whose exponent walk is constant-time.
    Only that walk is: the exponent is marshalled at its minimal byte
    length, and a caller's own arithmetic around the call (a reduction
    mod ``p - 1``, Garner's step) runs in Python.  Builtin ``pow`` covers
    what Montgomery cannot take — an even modulus, a modulus below 2, a
    negative exponent (an inverse) — and every call when libcrypto's
    symbols do not resolve; that fallback is variable-time, secret
    exponents included.  Either way the
    result is the one ``pow`` returns.
    """
    if modulus > 1 and modulus & 1 and exponent >= 0:
        kernel = _libcrypto()
        if kernel is not None:
            return kernel(base % modulus, exponent, modulus, secret)
    return pow(base, exponent, modulus)


@cache
def _libcrypto() -> Callable[[int, int, int, bool], int] | None:
    """The kernel over the libcrypto ``_hashlib`` links, or ``None``.

    ``ctypes.CDLL`` on the extension module's own path resolves symbols
    through its dependencies without searching the system for a library
    (``ctypes.util.find_library`` would start ``ldconfig``).  Imported
    here, on the first exponentiation, so a process that only hashes
    never loads ``ctypes``.  Each call owns its ``BN_CTX`` and bignums
    and frees them before it returns: nothing is shared between calls,
    threads or a fork's two sides.
    """
    try:
        import _hashlib
        import ctypes
    except ImportError:
        return None
    try:
        lib = ctypes.CDLL(_hashlib.__file__)
    except (AttributeError, OSError):
        return None
    ptr, c_int, buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p

    def bind(name: str, restype: Any, *argtypes: Any) -> Any:
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes
        return function

    try:
        ctx_new = bind("BN_CTX_new", ptr)
        ctx_free = bind("BN_CTX_free", None, ptr)
        bn_new = bind("BN_new", ptr)
        bn_free = bind("BN_clear_free", None, ptr)
        bn_set_flags = bind("BN_set_flags", None, ptr, c_int)
        load = bind("BN_bin2bn", ptr, buf, c_int, ptr)
        store = bind("BN_bn2binpad", c_int, ptr, buf, c_int)
        exp_public, exp_secret = (
            bind(name, c_int, ptr, ptr, ptr, ptr, ptr, ptr)
            for name in ("BN_mod_exp_mont", "BN_mod_exp_mont_consttime")
        )
    except AttributeError:
        return None

    def kernel(base: int, exponent: int, modulus: int, secret: bool) -> int:
        width = (modulus.bit_length() + 7) // 8
        exponent_bytes = exponent.to_bytes((exponent.bit_length() + 7) // 8, "big")
        ctx = ctx_new()
        a = load(base.to_bytes(width, "big"), width, None)
        p = load(exponent_bytes, len(exponent_bytes), None)
        m = load(modulus.to_bytes(width, "big"), width, None)
        r = bn_new()
        try:
            if not (ctx and a and p and m and r):
                raise CryptoError("libcrypto could not allocate a bignum")
            if secret:
                bn_set_flags(p, _BN_FLG_CONSTTIME)
                bn_set_flags(m, _BN_FLG_CONSTTIME)
            if not (exp_secret if secret else exp_public)(r, a, p, m, ctx, None):
                raise CryptoError("libcrypto's modular exponentiation failed")
            out = ctypes.create_string_buffer(width)
            if store(r, out, width) != width:
                raise CryptoError("libcrypto returned a result wider than the modulus")
            return int.from_bytes(out.raw, "big")
        finally:
            for bignum in (a, p, m, r):
                bn_free(bignum)  # a no-op on NULL
            ctx_free(ctx)

    return kernel


class CRTFixedBase:
    """Fixed-base exponentiation modulo ``n = p * q`` for whoever knows ``p, q``.

    The exponent is reduced modulo ``p - 1`` and ``q - 1`` (so it may be
    of any size and sign), each half is one secret :func:`modpow` over a
    half-width prime, and Garner's formula recombines them — the group
    element ``pow(base, exponent, n)`` returns.  ``base`` must be a unit
    modulo ``n``.  An instance holds the factorisation: it belongs to the
    trapdoor holder.
    """

    __slots__ = ("_p", "_q", "_base_p", "_base_q", "_q_inverse")

    def __init__(self, base: int, p: int, q: int) -> None:
        self._p = p
        self._q = q
        self._base_p = base % p
        self._base_q = base % q
        self._q_inverse = mod_inverse(q, p)

    def pow(self, exponent: int) -> int:
        """``base^exponent mod p*q``."""
        x_p = modpow(self._base_p, exponent % (self._p - 1), self._p, secret=True)
        x_q = modpow(self._base_q, exponent % (self._q - 1), self._q, secret=True)
        return x_q + (x_p - x_q) * self._q_inverse % self._p * self._q


def clear_fixed_base_tables() -> None:
    """Nothing to clear: kept because ``benchmarks/e2e/harness.py`` calls it."""


def multi_exp(pairs: list[tuple[int, int]], modulus: int) -> int:
    """``prod base_i^exp_i mod n``: one :func:`modpow` per non-zero exponent."""
    if modulus <= 0:
        raise ParameterError("modulus must be positive")
    result = 1 % modulus
    for base, exponent in pairs:
        if exponent < 0:
            raise ParameterError("multi_exp exponents must be non-negative")
        if exponent:
            result = result * modpow(base, exponent, modulus) % modulus
    return result


def mod_inverse(a: int, modulus: int) -> int:
    """Return ``a^{-1} mod modulus``; raises if it does not exist."""
    try:
        return modpow(a, -1, modulus)
    except ValueError as exc:  # pragma: no cover - depends on inputs
        raise ParameterError(f"{a} is not invertible modulo {modulus}") from exc


@dataclass(frozen=True)
class RSAModulus:
    """An RSA modulus together with its (trapdoor) factorisation.

    ``n = p * q`` with ``p, q`` prime.  Knowledge of ``phi`` is the
    trapdoor that lets the data owner extract e-th roots — the collision
    capability of the chameleon vector commitment.
    """

    n: int
    p: int
    q: int

    @property
    def phi(self) -> int:
        """Euler's totient ``(p-1)(q-1)``."""
        return (self.p - 1) * (self.q - 1)

    @property
    def bits(self) -> int:
        """Bit length of the modulus."""
        return self.n.bit_length()

    def root(self, value: int, exponent: int) -> int:
        """Extract the ``exponent``-th root of ``value`` modulo ``n``.

        Requires ``gcd(exponent, phi) == 1``.  This is exactly the
        operation an adversary without the factorisation cannot perform.
        """
        d = mod_inverse(exponent % self.phi, self.phi)
        return modpow(value, d, self.n, secret=True)


def generate_rsa_modulus(bits: int, rng: RandomSource) -> RSAModulus:
    """Generate an RSA modulus of (approximately) ``bits`` bits."""
    if bits < 64:
        raise ParameterError("RSA modulus must be at least 64 bits")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p != q:
            return RSAModulus(n=p * q, p=p, q=q)
