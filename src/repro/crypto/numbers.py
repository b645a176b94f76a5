"""Number-theoretic primitives for the RSA-based commitments.

Implements Miller–Rabin primality testing, deterministic (seedable) prime
generation, modular inverses and safe parameter sizes.  These back the
vector-commitment scheme in :mod:`repro.crypto.vc` and the RSA-FDH
signatures in :mod:`repro.crypto.signatures`.

Determinism matters here: benchmarks and tests regenerate the same public
parameters from a seed so that measured numbers are reproducible run to
run.  Production deployments should pass ``seed=None`` to draw randomness
from the operating system.
"""

from __future__ import annotations

import hashlib
import secrets
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ParameterError

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
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
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
# Fast-path exponentiation: simultaneous multi-exp and fixed-base tables
# ---------------------------------------------------------------------------

#: Window width (bits) for fixed-base precomputation tables.  Six bits
#: keeps a 264-bit exponent to 44 table rows of 63 entries each — cheap
#: enough to build once and far faster than a square-and-multiply chain.
FIXED_BASE_WINDOW = 6

#: Upper bound on cached fixed-base tables; oldest are evicted first.
FIXED_BASE_CACHE_SIZE = 64

#: Window width (bits) of the trapdoor holder's two-prime tables.  Measured
#: on one opening at a 1024-bit modulus (512-bit halves), build / open:
#: w=5 9 ms / 0.26 ms, w=6 14 / 0.23, w=7 23 / 0.20, w=8 40 / 0.18,
#: w=9 84 / 0.17 — past 7 the table doubles for under a tenth per opening.
CRT_FIXED_BASE_WINDOW = 7


class FixedBaseTable:
    """Precomputed windowed powers of one fixed base.

    Stores ``base^(d * 2^(w*k)) mod n`` for every window position ``k``
    and digit ``d``, so :meth:`pow` needs only table lookups and modular
    multiplications — no squarings.  Worth building for any base that is
    exponentiated repeatedly (the CVC slot and pair bases the data owner
    touches on every insert, and the slot bases every verification uses).
    """

    __slots__ = ("base", "modulus", "window", "max_bits", "_rows")

    def __init__(
        self,
        base: int,
        modulus: int,
        max_bits: int,
        window: int = FIXED_BASE_WINDOW,
    ) -> None:
        if max_bits <= 0:
            raise ParameterError("max_bits must be positive")
        if window <= 0:
            raise ParameterError("window must be positive")
        self.base = base % modulus
        self.modulus = modulus
        self.window = window
        self.max_bits = max_bits
        rows: list[list[int]] = []
        b = self.base
        for _ in range((max_bits + window - 1) // window):
            row = [1] * (1 << window)
            row[1] = b
            for d in range(2, 1 << window):
                row[d] = row[d - 1] * b % modulus
            rows.append(row)
            b = row[-1] * b % modulus  # b^(2^window)
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """``base^exponent mod modulus`` via table lookups."""
        if exponent < 0:
            raise ParameterError("fixed-base exponent must be non-negative")
        if exponent.bit_length() > self.max_bits:
            # Fall back for out-of-range exponents rather than mis-compute.
            return pow(self.base, exponent, self.modulus)
        result = 1
        modulus = self.modulus
        window = self.window
        mask = (1 << window) - 1
        for row in self._rows:
            digit = exponent & mask
            if digit:
                result = result * row[digit] % modulus
            exponent >>= window
            if not exponent:
                break
        return result


class CRTFixedBase:
    """Fixed-base exponentiation modulo ``n = p * q`` for whoever knows ``p, q``.

    One :class:`FixedBaseTable` per prime: the exponent is reduced modulo
    ``p - 1`` and ``q - 1`` (so it may be of any size and sign), each half
    is a walk over half-width residues, and Garner's formula recombines
    them — the same group element ``pow(base, exponent, n)`` returns, at a
    fraction of the multiplications of a full-width table.  ``base`` must
    be a unit modulo ``n``.  The tables are the factorisation: an instance
    belongs to the trapdoor holder and never enters the shared table cache.
    """

    __slots__ = ("_p", "_q", "_mod_p", "_mod_q", "_q_inverse")

    def __init__(self, base: int, p: int, q: int) -> None:
        self._p = p
        self._q = q
        self._mod_p = FixedBaseTable(
            base, p, (p - 1).bit_length(), CRT_FIXED_BASE_WINDOW
        )
        self._mod_q = FixedBaseTable(
            base, q, (q - 1).bit_length(), CRT_FIXED_BASE_WINDOW
        )
        self._q_inverse = mod_inverse(q, p)

    def pow(self, exponent: int) -> int:
        """``base^exponent mod p*q``."""
        x_p = self._mod_p.pow(exponent % (self._p - 1))
        x_q = self._mod_q.pow(exponent % (self._q - 1))
        return x_q + (x_p - x_q) * self._q_inverse % self._p * self._q


_fixed_base_tables: OrderedDict[tuple[int, int], FixedBaseTable] = OrderedDict()
_fixed_base_lock = threading.Lock()


def fixed_base_table(
    base: int, modulus: int, max_bits: int
) -> FixedBaseTable:
    """A (bounded, LRU) process-wide cache of fixed-base tables.

    Keyed on ``(modulus, base)``; a cached table whose ``max_bits`` is
    too small for the request is rebuilt at the larger size.
    """
    key = (modulus, base)
    with _fixed_base_lock:
        table = _fixed_base_tables.get(key)
        if table is not None and table.max_bits >= max_bits:
            _fixed_base_tables.move_to_end(key)
            return table
    # Build outside the lock: table construction is the expensive part.
    table = FixedBaseTable(base, modulus, max_bits)
    with _fixed_base_lock:
        _fixed_base_tables[key] = table
        _fixed_base_tables.move_to_end(key)
        while len(_fixed_base_tables) > FIXED_BASE_CACHE_SIZE:
            _fixed_base_tables.popitem(last=False)
    return table


def clear_fixed_base_tables() -> None:
    """Drop every cached fixed-base table (tests and memory pressure)."""
    with _fixed_base_lock:
        _fixed_base_tables.clear()


def fixed_base_tables_warm(
    bases: list[int], modulus: int, max_bits: int
) -> bool:
    """Whether every listed base already has a usable cached table.

    A cheap peek (no building, one lock acquisition) that lets callers
    choose between per-slot fixed-base openings — a win only when the
    tables are already built — and the divide-and-conquer batch path,
    which needs no per-base state at all.
    """
    with _fixed_base_lock:
        for base in bases:
            table = _fixed_base_tables.get((modulus, base))
            if table is None or table.max_bits < max_bits:
                return False
    return True


def multi_exp(
    pairs: list[tuple[int, int]],
    modulus: int,
    tables: list[FixedBaseTable | None] | None = None,
) -> int:
    """Simultaneous multi-exponentiation: ``prod base_i^exp_i mod n``.

    One squaring chain serves every base, so k exponentiations cost
    roughly one chain plus a few dozen multiplications per base instead
    of k independent ``pow`` calls.  Two schedules share that chain and
    the routine picks the cheaper from what it is handed — the number of
    bases and the widest exponent — by counting multiplications:

    * *Straus, sliding window*: each base keeps its odd powers up to
      ``2^w - 1`` and contributes one multiplication per window of its
      exponent.  Wins for the two bases of :func:`batch_openings` and
      for the tens of proofs one posting list gives a CVC slot.
    * *Pippenger buckets*: no per-base table; per ``c``-bit window every
      base is multiplied into the bucket of its digit and the buckets
      are folded by a running product.  Wins once the bases outnumber
      the ``2^c`` bucket folds by enough (from about a hundred bases).

    ``tables[i]``, when provided, is a :class:`FixedBaseTable` for
    ``pairs[i]``'s base: that factor is then computed by table lookups
    and leaves the shared squaring chain entirely.  A single remaining
    non-table base degenerates to the native ``pow`` (CPython's C loop
    beats an interpreted window walk for one base).
    """
    if modulus <= 0:
        raise ParameterError("modulus must be positive")
    if tables is not None and len(tables) != len(pairs):
        raise ParameterError("tables must align one-to-one with pairs")
    result = 1 % modulus
    shared: list[tuple[int, int]] = []
    for index, (base, exponent) in enumerate(pairs):
        if exponent < 0:
            raise ParameterError("multi_exp exponents must be non-negative")
        if exponent == 0:
            continue
        table = tables[index] if tables is not None else None
        if table is not None:
            result = result * table.pow(exponent) % modulus
        else:
            shared.append((base % modulus, exponent))
    if not shared:
        return result
    if len(shared) == 1:
        base, exponent = shared[0]
        return result * pow(base, exponent, modulus) % modulus
    bits = max(exponent.bit_length() for _, exponent in shared)
    straus_cost, window = min(
        (len(shared) * ((1 << (w - 1)) + bits / (w + 1)), w)
        for w in range(1, 9)
    )
    bucket_cost, chunk = min(
        (-(-bits // c) * (len(shared) + (1 << c)), c) for c in range(1, 17)
    )
    if straus_cost <= bucket_cost:
        acc = _straus(shared, modulus, bits, window)
    else:
        acc = _pippenger(shared, modulus, bits, chunk)
    return result * acc % modulus


def _straus(
    pairs: list[tuple[int, int]], modulus: int, bits: int, window: int
) -> int:
    """``prod base^exp`` by sliding windows over one squaring chain.

    Every exponent is cut, from its top bit down, into windows of at
    most ``window`` bits that start and end on a set bit; a window is an
    odd digit, so a base's table holds odd powers only.  ``schedule``
    maps the bit position at which a window ends to the table entries
    due there.
    """
    schedule: dict[int, list[int]] = {}
    for base, exponent in pairs:
        square = base * base % modulus
        odd = [base]
        for _ in range((1 << (window - 1)) - 1):
            odd.append(odd[-1] * square % modulus)
        top = exponent.bit_length() - 1
        while top >= 0:
            if not (exponent >> top) & 1:
                top -= 1
                continue
            low = max(top - window + 1, 0)
            digit = (exponent >> low) & ((1 << (top - low + 1)) - 1)
            trailing = (digit & -digit).bit_length() - 1
            low += trailing
            schedule.setdefault(low, []).append(odd[digit >> (trailing + 1)])
            top = low - 1
    acc = 1
    for position in range(bits - 1, -1, -1):
        if acc != 1:
            acc = acc * acc % modulus
        for value in schedule.get(position, ()):
            acc = acc * value % modulus
    return acc


def _pippenger(
    pairs: list[tuple[int, int]], modulus: int, bits: int, chunk: int
) -> int:
    """``prod base^exp`` by bucketing the bases per ``chunk``-bit digit.

    Per window, bucket ``d`` collects the product of the bases whose
    digit is ``d``; ``prod_d bucket_d^d`` then falls out of a running
    product taken from the top bucket down (each bucket ends up
    multiplied in ``d`` times).
    """
    acc = 1
    mask = (1 << chunk) - 1
    for position in range((bits + chunk - 1) // chunk - 1, -1, -1):
        if acc != 1:
            for _ in range(chunk):
                acc = acc * acc % modulus
        shift = position * chunk
        buckets: list[int | None] = [None] * (mask + 1)
        for base, exponent in pairs:
            digit = (exponent >> shift) & mask
            if digit:
                held = buckets[digit]
                buckets[digit] = base if held is None else held * base % modulus
        running = None
        for digit in range(mask, 0, -1):
            held = buckets[digit]
            if held is not None:
                running = held if running is None else running * held % modulus
            if running is not None:
                acc = acc * running % modulus
    return acc


def batch_openings(
    base: int,
    exponents: list[int],
    weights: list[int],
    modulus: int,
    indices: list[int] | None = None,
) -> dict[int, int]:
    """All-at-once openings for one RSA vector commitment (RootFactor).

    Given the group element ``base`` (= ``a``), pairwise-distinct prime
    ``exponents`` ``e_0..e_q`` and matching ``weights`` ``z_0..z_q``
    (``z_0`` the randomiser, ``z_j`` the encoded slot messages), computes

        L_i = a^{sum_{j != i} z_j * P/(e_i * e_j)}   with  P = prod e_j

    for every requested index ``i`` — exactly the per-slot opening of
    :func:`repro.crypto.vc.open_slot`, but all of them in one
    divide-and-conquer pass.

    The recursion carries, for the current index subset ``S``, the pair
    ``G_S = a^{C_S / P_S}`` and ``D_S = a^{P / P_S}`` where
    ``P_S = prod_{j in S} e_j`` and ``C_S = sum_{j not in S} z_j * P/e_j``.
    Splitting ``S = A ∪ B`` updates both halves with two
    exponentiations each::

        G_A = G_S^{P_B} * D_S^{E_B},   D_A = D_S^{P_B}
        (E_B = sum_{j in B} z_j * P_B / e_j; symmetrically for B)

    so all ``k`` openings cost ``O(k log k)`` modular multiplications of
    shared intermediates instead of ``k`` independent ``O(k)`` passes —
    the standard RootFactor batching trick from the RSA-accumulator
    literature.  ``indices`` restricts the output; subtrees containing no
    requested index are pruned, giving ``O(|indices| * log k)``.

    Returns a dict mapping each requested index to its opening.
    """
    if modulus <= 0:
        raise ParameterError("modulus must be positive")
    count = len(exponents)
    if len(weights) != count:
        raise ParameterError("weights must align one-to-one with exponents")
    if count == 0:
        return {}
    for weight in weights:
        if weight < 0:
            raise ParameterError("batch_openings weights must be non-negative")
    if indices is None:
        wanted = list(range(count))
    else:
        wanted = list(indices)
        for index in wanted:
            if not 0 <= index < count:
                raise ParameterError(f"opening index {index} out of range")
    if not wanted:
        return {}
    wantset = frozenset(wanted)
    results: dict[int, int] = {}
    # Explicit stack instead of recursion: index subsets are contiguous
    # ranges of the (fixed) index order, each with its carried (G, D).
    stack: list[tuple[list[int], int, int]] = [
        (list(range(count)), 1 % modulus, base % modulus)
    ]
    while stack:
        subset, g, d = stack.pop()
        if len(subset) == 1:
            results[subset[0]] = g
            continue
        mid = len(subset) // 2
        left, right = subset[:mid], subset[mid:]
        product_left = 1
        for index in left:
            product_left *= exponents[index]
        product_right = 1
        for index in right:
            product_right *= exponents[index]
        if any(index in wantset for index in left):
            lifted = 0
            for index in right:
                lifted += weights[index] * (product_right // exponents[index])
            g_left = multi_exp([(g, product_right), (d, lifted)], modulus)
            stack.append((left, g_left, pow(d, product_right, modulus)))
        if any(index in wantset for index in right):
            lifted = 0
            for index in left:
                lifted += weights[index] * (product_left // exponents[index])
            g_right = multi_exp([(g, product_left), (d, lifted)], modulus)
            stack.append((right, g_right, pow(d, product_left, modulus)))
    return {index: results[index] for index in wanted}


def mod_inverse(a: int, modulus: int) -> int:
    """Return ``a^{-1} mod modulus``; raises if it does not exist."""
    try:
        return pow(a, -1, modulus)
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
        return pow(value, d, self.n)


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
