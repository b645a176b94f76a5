"""Vector commitments and chameleon vector commitments (CVC).

The paper's Chameleon tree (Section V) is built on the CVC of Krupp et
al. (PKC 2016), which the authors instantiate over the MNT4-298 pairing
curve.  Pure-Python pairings are impractically slow and error-prone, so —
as documented in DESIGN.md — we instantiate the *same abstract scheme*
over RSA groups, following Catalano–Fiore (PKC 2013) vector commitments
with a trapdoor extension:

* ``CGen`` draws an RSA modulus ``N = p*q`` plus distinct primes
  ``e_0, e_1, ..., e_q`` (one per slot, plus one for the randomiser) and
  publishes the bases ``S_i = a^{P/e_i}`` and ``T_{i,j} = a^{P/(e_i e_j)}``
  where ``P = prod e_i``.
* ``Com(<m_1..m_q>, r) = S_0^r * prod_i S_i^{z(m_i)} mod N`` where ``z``
  hashes each message into ``[0, 2^256)``.
* ``Open`` at slot ``i`` is ``L_i = T_{0,i}^r * prod_{j != i}
  T_{j,i}^{z(m_j)}``; ``Ver`` checks ``C == S_i^{z(m)} * L_i^{e_i}``.
  Both are public operations.
* ``CCol`` — the chameleon property — replaces slot ``i``'s message while
  keeping ``C`` fixed by *re-solving the randomiser*:
  ``r' = r + (P/e_i)(z - z') * (P/e_0)^{-1}  (mod phi(N))``.
  Computing ``(P/e_0)^{-1} mod phi(N)`` requires the factorisation of
  ``N`` — that factorisation is the trapdoor ``td``.  Without it, forging
  an opening requires extracting ``e_i``-th roots (strong-RSA hard).
* The trapdoor holder — the data owner, the only party that ever opens a
  commitment on ingest — need not walk the public pair bases: knowing
  ``phi(N)`` it folds the whole opening into *one* exponent,
  ``L_i = a^{sum_{j != i} w_j * P/(e_i e_j) mod phi}``, and raises ``a`` to
  it over the two half-width prime fields (:class:`TrapdoorKernel`).
  ``x -> x^{e_i}`` is a bijection (``e_i`` is coprime to ``phi``), so the
  opening is a unique group element and both routes return the same one.

* A verifier with many openings to check — a client with a query's worth
  of them — folds them into one equation with short random coefficients
  (:func:`verify_batch`); DESIGN.md §6.1 says what a passing batch proves.

The security game of Definition 1/2 is unchanged: position binding under
strong RSA replaces position binding under CDH.  The performance property
the paper exploits in Section V-D — commitment verification costs orders
of magnitude more than a hash — also carries over: one ``Ver`` is a
264-bit exponentiation of the proof (0.9 ms at a 1024-bit modulus) and a
fixed-base table walk for the slot base (0.14 ms) versus one SHA3 call,
and a batch of n still pays a 128-bit share of a multi-exponentiation per
opening (about 0.25 ms: its proof, and its commitment where no other
opening shares it) plus ``q + 1`` full-width exponentiations.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NoReturn

from repro import obs
from repro.crypto.hashing import DIGEST_SIZE, sha3
from repro.crypto.numbers import (
    FIXED_BASE_CACHE_SIZE,
    CRTFixedBase,
    FixedBaseTable,
    RandomSource,
    batch_openings,
    fixed_base_table,
    fixed_base_tables_warm,
    generate_distinct_primes,
    generate_rsa_modulus,
    make_random,
    mod_inverse,
    multi_exp,
)
from repro.errors import CommitmentError, ParameterError, TrapdoorRequiredError

#: Bit length of the per-slot prime exponents.  Must exceed the 256-bit
#: message-encoding space for position binding to hold.
EXPONENT_BITS = 264

#: Default RSA modulus size.  1024 bits keeps pure-Python tests fast; use
#: 2048+ for any real deployment.
DEFAULT_MODULUS_BITS = 1024

#: Messages are encoded into this many bits before exponentiation.
MESSAGE_BITS = 8 * DIGEST_SIZE

Message = bytes | int | None

#: One opening as :func:`verify` takes it:
#: ``(commitment, slot, message, proof)``.
Opening = tuple[int, int, Message, int]

#: Width of the random coefficient :func:`verify_batch` gives each opening.
#: A batch holding an opening that is off by a group element of order
#: ``d`` passes for at most ``ceil(2^128 / d)`` of the ``2^127`` odd
#: values (DESIGN.md §6.1), so 128 bits put a forgery that is not a
#: low-order element at ``2^-100`` or less for every ``d > 2^101`` — the
#: security level the 264-bit slot primes and SHA3-256 already aim at —
#: while keeping an opening's share of the multi-exponentiation under
#: half of the full-width exponent it replaces.  Not an argument: a
#: verifier has no reason to ask for a weaker check.
BATCH_COEFFICIENT_BITS = 128

# ---------------------------------------------------------------------------
# Fast-path switch
# ---------------------------------------------------------------------------

#: When True (the default), Com/Open/Ver run on the simultaneous
#: multi-exponentiation + fixed-base-table fast path; the naive
#: independent-``pow`` path is kept for parity testing and benchmarking.
_FASTPATH_ENABLED = True


def fastpath_enabled() -> bool:
    """Whether the multi-exp/fixed-base fast path is active."""
    return _FASTPATH_ENABLED


def set_fastpath(enabled: bool) -> bool:
    """Enable or disable the fast path; returns the previous setting."""
    global _FASTPATH_ENABLED
    previous = _FASTPATH_ENABLED
    _FASTPATH_ENABLED = bool(enabled)
    return previous


@contextmanager
def fastpath(enabled: bool) -> Iterator[None]:
    """Context manager scoping a fast-path override."""
    previous = set_fastpath(enabled)
    try:
        yield
    finally:
        set_fastpath(previous)


def _table_bits(pp: "CVCPublicParams") -> int:
    """Exponent width a base table must cover: messages and randomisers.

    Randomisers are reduced modulo ``phi(N)`` by collision finding, so
    the modulus width bounds them; encoded messages are ``MESSAGE_BITS``.
    """
    return max(MESSAGE_BITS, pp.modulus.bit_length())


def _slot_table(pp: "CVCPublicParams", slot: int) -> FixedBaseTable:
    """Cached fixed-base table for ``S_slot`` (0 = randomiser base)."""
    return fixed_base_table(pp.slot_bases[slot], pp.modulus, _table_bits(pp))


def _pair_table(pp: "CVCPublicParams", i: int, j: int) -> FixedBaseTable:
    """Cached fixed-base table for ``T_{i,j}``."""
    return fixed_base_table(pp.pair_base(i, j), pp.modulus, _table_bits(pp))


def encode_message(message: Message) -> int:
    """Map a message into the exponent space ``[0, 2^256)``.

    ``None`` (and the empty byte string) canonically encode the *empty
    slot* as 0, matching the paper's all-zero initial vector.  Non-empty
    messages are hashed, so arbitrarily large child commitments fit.
    """
    if message is None:
        return 0
    if isinstance(message, bytes):
        if message == b"":
            return 0
        return int.from_bytes(sha3(b"cvc-msg-bytes" + message), "big")
    if isinstance(message, int):
        if message == 0:
            return 0
        length = (message.bit_length() + 7) // 8
        return int.from_bytes(
            sha3(b"cvc-msg-int" + message.to_bytes(length, "big")), "big"
        )
    raise CommitmentError(f"unsupported message type: {type(message)!r}")


@dataclass(frozen=True)
class CVCPublicParams:
    """Public parameters ``pp`` shared by the DO, SP, chain and clients."""

    modulus: int
    arity: int
    exponents: tuple[int, ...]  # e_0 (randomiser), e_1..e_q (slots)
    slot_bases: tuple[int, ...]  # S_i = a^{P/e_i}
    pair_bases: tuple[tuple[int, ...], ...]  # T[i][j] = a^{P/(e_i e_j)}
    #: The group element ``a`` the bases are powers of.  Publishing it is
    #: safe (every published base already is a deterministic power of it)
    #: and enables the divide-and-conquer batch openings of
    #: :func:`open_many`.  ``0`` marks legacy parameters generated before
    #: the base was retained; those fall back to per-slot openings.
    base: int = 0

    @property
    def randomiser_exponent(self) -> int:
        """The prime ``e_0`` guarding the randomiser slot."""
        return self.exponents[0]

    def slot_exponent(self, slot: int) -> int:
        """The prime ``e_slot`` for a 1-based message slot."""
        self._check_slot(slot)
        return self.exponents[slot]

    def slot_base(self, slot: int) -> int:
        """The base ``S_slot`` for a 1-based message slot."""
        self._check_slot(slot)
        return self.slot_bases[slot]

    def pair_base(self, i: int, j: int) -> int:
        """``T_{i,j} = a^{P/(e_i e_j)}``; symmetric in its arguments."""
        if i == j:
            raise CommitmentError("pair base requires distinct indices")
        lo, hi = (i, j) if i < j else (j, i)
        return self.pair_bases[lo][hi - lo - 1]

    def _check_slot(self, slot: int) -> None:
        if not 1 <= slot <= self.arity:
            raise CommitmentError(
                f"slot {slot} out of range for arity {self.arity}"
            )

    def byte_size(self) -> int:
        """Approximate serialised size in bytes (for VO accounting)."""
        words = (self.modulus.bit_length() + 7) // 8
        n_bases = len(self.slot_bases) + sum(len(row) for row in self.pair_bases)
        return words * (1 + n_bases) + len(self.exponents) * (EXPONENT_BITS // 8)


@dataclass(frozen=True)
class CVCTrapdoor:
    """The secret trapdoor ``td``: the factorisation of the modulus.

    The factors stay out of ``repr`` so a logged or asserted-on object
    never prints them.
    """

    p: int = field(repr=False)
    q: int = field(repr=False)

    @property
    def phi(self) -> int:
        """Euler's totient of the modulus."""
        return (self.p - 1) * (self.q - 1)


@dataclass
class CVCAux:
    """Auxiliary opening information ``aux`` for one commitment.

    Tracks the current message vector and the (possibly re-solved)
    randomiser.  ``aux`` never leaves its owner; proofs derived from it
    are what travel in VOs.
    """

    messages: list[int]  # encoded messages, slot 1..q at index 0..q-1
    randomiser: int

    def message_at(self, slot: int) -> int:
        """Encoded message currently held at a 1-based slot."""
        return self.messages[slot - 1]


def keygen(
    arity: int,
    modulus_bits: int = DEFAULT_MODULUS_BITS,
    seed: int | None = None,
) -> tuple[CVCPublicParams, CVCTrapdoor]:
    """``CGen(1^lambda, q)``: generate public parameters and the trapdoor.

    ``seed`` makes generation deterministic for tests and benchmarks.
    """
    if arity < 1:
        raise ParameterError("CVC arity must be at least 1")
    rng = make_random(seed)
    modulus = generate_rsa_modulus(modulus_bits, rng)
    exponents = _generate_exponents(arity, modulus.phi, rng)
    product = math.prod(exponents)
    base = _sample_base(modulus.n, rng)
    slot_bases = tuple(
        pow(base, product // e, modulus.n) for e in exponents
    )
    pair_bases = tuple(
        tuple(
            pow(base, product // (exponents[i] * exponents[j]), modulus.n)
            for j in range(i + 1, len(exponents))
        )
        for i in range(len(exponents))
    )
    pp = CVCPublicParams(
        modulus=modulus.n,
        arity=arity,
        exponents=tuple(exponents),
        slot_bases=slot_bases,
        pair_bases=pair_bases,
        base=base,
    )
    td = CVCTrapdoor(p=modulus.p, q=modulus.q)
    return pp, td


def _generate_exponents(arity: int, phi: int, rng: RandomSource) -> list[int]:
    """Draw ``arity + 1`` distinct primes coprime to ``phi``.

    Coprimality with ``phi(N)`` is required so the trapdoor can invert
    each exponent; a 264-bit prime dividing ``phi`` happens only with
    negligible probability, but we check anyway and redraw.
    """
    exponents: list[int] = []
    seen: set[int] = set()
    while len(exponents) < arity + 1:
        (candidate,) = generate_distinct_primes(1, EXPONENT_BITS, rng)
        if candidate in seen or phi % candidate == 0:
            continue
        seen.add(candidate)
        exponents.append(candidate)
    return exponents


def _sample_base(n: int, rng: RandomSource) -> int:
    """Sample a random group element ``a`` (a quadratic residue mod n)."""
    while True:
        candidate = rng.randint(2, n - 2)
        if math.gcd(candidate, n) == 1:
            return pow(candidate, 2, n)


def commit(
    pp: CVCPublicParams, messages: list[Message], randomiser: int
) -> tuple[int, CVCAux]:
    """``Com_pp(<m_1..m_q>, r)``: commit to a message vector.

    Returns the commitment value ``c`` and the auxiliary information.
    """
    if len(messages) != pp.arity:
        raise CommitmentError(
            f"expected {pp.arity} messages, got {len(messages)}"
        )
    encoded = [encode_message(m) for m in messages]
    c = _commit_value(pp, encoded, randomiser)
    return c, CVCAux(messages=encoded, randomiser=randomiser)


def _commit_value(pp: CVCPublicParams, encoded: list[int], randomiser: int) -> int:
    """The commitment group element for already-encoded messages."""
    if _FASTPATH_ENABLED and randomiser >= 0:
        pairs = [(pp.slot_bases[0], randomiser)]
        tables: list[FixedBaseTable | None] = [_slot_table(pp, 0)]
        for slot, z in enumerate(encoded, start=1):
            if z:
                pairs.append((pp.slot_bases[slot], z))
                tables.append(_slot_table(pp, slot))
        return multi_exp(pairs, pp.modulus, tables=tables)
    c = pow(pp.slot_bases[0], randomiser, pp.modulus)
    for slot, z in enumerate(encoded, start=1):
        if z:
            c = c * pow(pp.slot_bases[slot], z, pp.modulus) % pp.modulus
    return c


def open_slot(pp: CVCPublicParams, slot: int, message: Message, aux: CVCAux) -> int:
    """``Open_pp(i, m, aux)``: produce a proof that slot ``i`` holds ``m``.

    Fails when ``aux`` does not actually hold ``m`` at that slot — an
    honest opener cannot produce a proof for a wrong value.
    """
    pp._check_slot(slot)
    z = encode_message(message)
    if aux.message_at(slot) != z:
        raise CommitmentError(
            f"aux holds a different message at slot {slot}; cannot open"
        )
    return _open_encoded(pp, slot, aux)


def _pair_tables_warm(pp: CVCPublicParams, slots: list[int]) -> bool:
    """Whether every pair table a per-slot opening of ``slots`` needs is hot."""
    bases: list[int] = []
    for slot in slots:
        for other in range(pp.arity + 1):
            if other != slot:
                bases.append(pp.pair_base(other, slot))
    return fixed_base_tables_warm(bases, pp.modulus, _table_bits(pp))


def _open_many_dnc(
    pp: CVCPublicParams, slots: list[int], aux: CVCAux
) -> dict[int, int]:
    """Divide-and-conquer openings via :func:`batch_openings`.

    Index 0 of the weight vector is the randomiser (guarded by ``e_0``);
    indices 1..q are the encoded slot messages.  The returned values are
    bit-identical to :func:`open_slot`'s — same group elements, computed
    through a shared recursion instead of independent passes.
    """
    weights = [aux.randomiser] + list(aux.messages)
    return batch_openings(
        pp.base, list(pp.exponents), weights, pp.modulus, indices=slots
    )


def open_many(
    pp: CVCPublicParams,
    slots: list[int],
    aux: CVCAux,
    strategy: str = "auto",
) -> dict[int, int]:
    """Open several slots of one commitment in a single batch.

    Returns ``{slot: proof}`` with each proof exactly equal to
    ``open_slot(pp, slot, aux-held-message, aux)``.  Three strategies:

    * ``"batch"`` — the RootFactor-style divide-and-conquer of
      :func:`repro.crypto.numbers.batch_openings`: all openings in
      O(k log k) shared multiplications, no fixed-base tables needed.
    * ``"per-slot"`` — loop over :func:`open_slot` (fast only when the
      fixed-base pair tables are already built and fit in the cache).
    * ``"auto"`` — batch when the fast path is on and the per-slot route
      would have to (re)build tables: cold caches, or an arity whose
      pair-base working set exceeds the table cache and thrashes it.

    With the fast path disabled, or for legacy parameters that did not
    retain the group base, every strategy degrades to the per-slot loop.
    """
    if strategy not in ("auto", "batch", "per-slot"):
        raise ParameterError(f"unknown open_many strategy {strategy!r}")
    unique_slots: list[int] = []
    for slot in slots:
        pp._check_slot(slot)
        if slot not in unique_slots:
            unique_slots.append(slot)
    obs.inc("vc.batch.requests")
    obs.inc("vc.batch.openings", len(unique_slots))
    can_batch = (
        _FASTPATH_ENABLED
        and pp.base != 0
        and aux.randomiser >= 0
        and len(unique_slots) >= 2
    )
    if can_batch and strategy == "auto":
        pair_count = (pp.arity + 1) * pp.arity // 2
        use_batch = pair_count > FIXED_BASE_CACHE_SIZE or not _pair_tables_warm(
            pp, unique_slots
        )
    else:
        use_batch = can_batch and strategy == "batch"
    if use_batch:
        obs.inc("vc.batch.dnc")
        with obs.span(
            "vc.open_many", slots=len(unique_slots), strategy="batch"
        ):
            return _open_many_dnc(pp, unique_slots, aux)
    obs.inc("vc.batch.per_slot")
    with obs.span(
        "vc.open_many", slots=len(unique_slots), strategy="per-slot"
    ):
        return {slot: _open_encoded(pp, slot, aux) for slot in unique_slots}


def _open_encoded(pp: CVCPublicParams, slot: int, aux: CVCAux) -> int:
    """Per-slot opening for the message ``aux`` already holds (encoded)."""
    if _FASTPATH_ENABLED and aux.randomiser >= 0:
        pairs = [(pp.pair_base(0, slot), aux.randomiser)]
        tables: list[FixedBaseTable | None] = [_pair_table(pp, 0, slot)]
        for other in range(1, pp.arity + 1):
            if other == slot:
                continue
            z_other = aux.messages[other - 1]
            if z_other:
                pairs.append((pp.pair_base(other, slot), z_other))
                tables.append(_pair_table(pp, other, slot))
        return multi_exp(pairs, pp.modulus, tables=tables)
    proof = pow(pp.pair_base(0, slot), aux.randomiser, pp.modulus)
    for other in range(1, pp.arity + 1):
        if other == slot:
            continue
        z_other = aux.messages[other - 1]
        if z_other:
            proof = (
                proof
                * pow(pp.pair_base(other, slot), z_other, pp.modulus)
                % pp.modulus
            )
    return proof


def open_all(
    pp: CVCPublicParams, aux: CVCAux, strategy: str = "auto"
) -> dict[int, int]:
    """Open every slot of one commitment: ``open_many`` over ``1..arity``."""
    return open_many(pp, list(range(1, pp.arity + 1)), aux, strategy=strategy)


def prewarm_tables(pp: CVCPublicParams, pairs: bool = False) -> int:
    """Eagerly build the fixed-base tables this ``pp`` will use.

    Slot tables serve commitment/verification; ``pairs=True`` adds the
    pair tables used by per-slot openings (skipped automatically when
    the arity's pair working set would overflow the table cache).  This
    is CVC-specific machinery — Merkle-only schemes have no tables to
    warm, and callers gate on the scheme before invoking it.  Returns
    the number of tables touched.
    """
    if not _FASTPATH_ENABLED:
        return 0
    touched = 0
    for slot in range(pp.arity + 1):
        _slot_table(pp, slot)
        touched += 1
    if pairs and (pp.arity + 1) * pp.arity // 2 <= FIXED_BASE_CACHE_SIZE:
        for i in range(pp.arity + 1):
            for j in range(i + 1, pp.arity + 1):
                _pair_table(pp, i, j)
                touched += 1
    return touched


def opening_in_range(
    pp: CVCPublicParams, commitment: int, slot: int, proof: int
) -> bool:
    """Whether an opening names a real slot and two nonzero residues."""
    return (
        1 <= slot <= pp.arity
        and 0 < proof < pp.modulus
        and 0 < commitment < pp.modulus
    )


def verify(
    pp: CVCPublicParams, commitment: int, slot: int, message: Message, proof: int
) -> bool:
    """``Ver_pp(c, i, m, pi)``: check that ``c`` opens to ``m`` at ``i``."""
    if not opening_in_range(pp, commitment, slot, proof):
        return False
    z = encode_message(message)
    if _FASTPATH_ENABLED:
        # One combined exponentiation: the varying base (the proof) runs
        # through the shared chain, the fixed slot base through its table.
        lhs = multi_exp(
            [(proof, pp.slot_exponent(slot)), (pp.slot_base(slot), z)],
            pp.modulus,
            tables=[None, _slot_table(pp, slot)],
        )
        return lhs == commitment
    lhs = pow(proof, pp.slot_exponent(slot), pp.modulus)
    if z:
        lhs = lhs * pow(pp.slot_base(slot), z, pp.modulus) % pp.modulus
    return lhs == commitment


def verify_batch(pp: CVCPublicParams, openings: Sequence[Opening]) -> bool:
    """Whether every opening verifies, checked as one equation.

    Each opening ``L_k^{e_k} * S_{i_k}^{z_k} = C_k`` is raised to a fresh
    odd :data:`BATCH_COEFFICIENT_BITS`-bit ``r_k`` and the results are
    multiplied; grouped by slot on the left and by commitment on the
    right that is

        prod_i (prod_{k: i_k = i} L_k^{r_k})^{e_i} * S_i^{sum r_k z_k}
            ==  prod_C C^{sum_{k: C_k = C} r_k}

    — a short-exponent multi-exponentiation over the proofs of each slot
    and one over the distinct commitments, then one full-width
    exponentiation and one table walk per slot, whatever the batch size.
    The coefficients come from the operating system at call time: a
    prover that could predict them could cancel one bad opening against
    another.

    ``True`` means what DESIGN.md §6.1 argues; it differs from
    ``all(verify(...))`` in one documented case — an even number of
    proofs negated modulo ``N`` passes here and fails there.  ``False``
    says only that some opening is bad: callers that must name it
    re-check one by one.  A batch of one is :func:`verify`, and so is
    every batch while the fast path is off (the reference arithmetic).
    """
    if len(openings) < 2 or not _FASTPATH_ENABLED:
        return all(verify(pp, *opening) for opening in openings)
    obs.inc("vc.verify.batches")
    obs.inc("vc.verify.batched_openings", len(openings))
    modulus = pp.modulus
    rng = make_random(None)
    proofs: dict[int, list[tuple[int, int]]] = {}
    weights: dict[int, int] = {}
    commitments: dict[int, int] = {}
    for commitment, slot, message, proof in openings:
        if not opening_in_range(pp, commitment, slot, proof):
            return False
        r = rng.randbits(BATCH_COEFFICIENT_BITS) | 1
        proofs.setdefault(slot, []).append((proof, r))
        weights[slot] = weights.get(slot, 0) + r * encode_message(message)
        commitments[commitment] = commitments.get(commitment, 0) + r
    lhs = 1
    for slot, pairs in proofs.items():
        lhs = lhs * multi_exp(
            [
                (multi_exp(pairs, modulus), pp.exponents[slot]),
                (pp.slot_bases[slot], weights[slot]),
            ],
            modulus,
            tables=[None, _slot_table(pp, slot)],
        ) % modulus
    return lhs == multi_exp(list(commitments.items()), modulus)


class TrapdoorKernel:
    """``Open`` and ``CCol`` as the holder of ``td`` computes them.

    Knowing ``phi(N)``, every exponent over the group base ``a`` reduces
    to one residue, so an opening is a single exponentiation and a
    collision is one multiplication: ``P/(e_i e_j) mod phi`` and
    ``(P/e_i)(P/e_0)^{-1} mod phi`` are fixed per ``(pp, td)`` and
    computed here once.  The two-prime table for ``a`` is built on the
    first opening (a collision alone never needs it).

    Outputs are the group elements :func:`open_slot` and the definition
    of ``CCol`` give — the public functions stay the reference the tests
    compare against.  The kernel *is* the trapdoor: it refuses to be
    pickled or copied, so it cannot ride a worker pipe or a manifest.
    """

    def __init__(self, pp: CVCPublicParams, td: CVCTrapdoor) -> None:
        phi = td.phi
        product = math.prod(pp.exponents)
        self._pp = pp
        self._td = td
        self._phi = phi
        #: ``P/(e_i e_j) mod phi``; the diagonal is never read.
        self._pair = [
            [
                0 if e_i == e_j else product // (e_i * e_j) % phi
                for e_j in pp.exponents
            ]
            for e_i in pp.exponents
        ]
        inverse = mod_inverse(product // pp.randomiser_exponent % phi, phi)
        #: How far one unit less of slot ``i``'s message moves the
        #: randomiser: ``(P/e_i) (P/e_0)^{-1} mod phi``.
        self._shift = [product // e % phi * inverse % phi for e in pp.exponents]
        # Legacy parameters did not retain ``a``; the trapdoor recovers it
        # from ``S_0 = a^{P/e_0}``.
        self._base = pp.base or pow(pp.slot_bases[0], inverse, pp.modulus)

    def __reduce_ex__(self, protocol: object) -> NoReturn:
        raise TrapdoorRequiredError(
            "the trapdoor kernel stays with the data owner: it cannot be "
            "pickled or copied"
        )

    @cached_property
    def _power(self) -> CRTFixedBase:
        return CRTFixedBase(self._base, self._td.p, self._td.q)

    def prewarm(self) -> int:
        """Build the two-prime table now; returns the tables it holds."""
        _ = self._power
        return 2

    def open(self, slot: int, aux: CVCAux) -> int:
        """The opening of ``slot`` to the message ``aux`` holds there."""
        self._pp._check_slot(slot)
        row = self._pair[slot]
        exponent = aux.randomiser * row[0]
        for other, z in enumerate(aux.messages, start=1):
            if z and other != slot:
                exponent += z * row[other]
        obs.inc("vc.batch.openings")
        return self._power.pow(exponent)

    def collide(
        self,
        commitment: int,
        slot: int,
        old_message: Message,
        new_message: Message,
        aux: CVCAux,
        check: bool = True,
    ) -> CVCAux:
        """``CCol``: see :func:`find_collision`."""
        pp = self._pp
        pp._check_slot(slot)
        z_old = encode_message(old_message)
        z_new = encode_message(new_message)
        if aux.message_at(slot) != z_old:
            raise CommitmentError(
                f"aux does not hold the claimed old message at slot {slot}"
            )
        # Solve (P/e_0)(r' - r) == (P/e_i)(z_old - z_new)  (mod phi).
        new_messages = list(aux.messages)
        new_messages[slot - 1] = z_new
        new_aux = CVCAux(
            messages=new_messages,
            randomiser=(aux.randomiser + self._shift[slot] * (z_old - z_new))
            % self._phi,
        )
        if check:
            # Defensive self-check: the commitment must be preserved.
            recomputed, _ = _recommit(pp, new_aux)
            if recomputed != commitment:
                raise CommitmentError(
                    "collision finding failed to preserve the commitment; "
                    "the supplied aux/commitment pair is inconsistent"
                )
        return new_aux


def find_collision(
    pp: CVCPublicParams,
    td: CVCTrapdoor | None,
    commitment: int,
    slot: int,
    old_message: Message,
    new_message: Message,
    aux: CVCAux,
    check: bool = True,
) -> CVCAux:
    """``CCol_pp(c, i, m, m', td, aux)``: swap slot ``i``'s message.

    Re-solves the randomiser so the commitment value is *unchanged* while
    ``aux`` now opens slot ``i`` to ``new_message``.  Requires ``td``.
    ``check=False`` skips the defensive recommit self-check for callers
    whose inputs are consistent by construction (the DO's hot path).
    A caller with many collisions to find keeps a
    :class:`ChameleonVectorCommitment`, whose kernel is built once.
    """
    if td is None:
        raise TrapdoorRequiredError("collision finding requires the trapdoor")
    return TrapdoorKernel(pp, td).collide(
        commitment, slot, old_message, new_message, aux, check=check
    )


def _recommit(pp: CVCPublicParams, aux: CVCAux) -> tuple[int, CVCAux]:
    """Recompute a commitment from already-encoded aux contents."""
    return _commit_value(pp, aux.messages, aux.randomiser), aux


def commitment_byte_size(pp: CVCPublicParams) -> int:
    """Serialised size of one commitment or proof value, in bytes."""
    return (pp.modulus.bit_length() + 7) // 8


class VectorCommitment:
    """Plain (non-chameleon) vector commitment facade.

    Implements the ``Gen/Com/Open/Ver`` interface of Section III-A by
    delegating to the CVC construction and simply withholding the
    trapdoor.  Provided for completeness and for tests that exercise the
    commitment layer without chameleon updates.
    """

    def __init__(
        self,
        arity: int,
        modulus_bits: int = DEFAULT_MODULUS_BITS,
        seed: int | None = None,
    ) -> None:
        self.pp, _ = keygen(arity, modulus_bits=modulus_bits, seed=seed)

    def commit(self, messages: list[Message], randomiser: int) -> tuple[int, CVCAux]:
        """Commit to a message vector."""
        return commit(self.pp, messages, randomiser)

    def open(self, slot: int, message: Message, aux: CVCAux) -> int:
        """Open the commitment at a slot (produce a proof)."""
        return open_slot(self.pp, slot, message, aux)

    def open_many(
        self, slots: list[int], aux: CVCAux, strategy: str = "auto"
    ) -> dict[int, int]:
        """Batch-open several slots (see :func:`open_many`)."""
        return open_many(self.pp, slots, aux, strategy=strategy)

    def open_all(self, aux: CVCAux, strategy: str = "auto") -> dict[int, int]:
        """Batch-open every slot (see :func:`open_all`)."""
        return open_all(self.pp, aux, strategy=strategy)

    def verify(self, commitment: int, slot: int, message: Message, proof: int) -> bool:
        """Check a proof; returns whether it is valid."""
        return verify(self.pp, commitment, slot, message, proof)


class ChameleonVectorCommitment:
    """Object-oriented facade bundling ``pp`` with an optional trapdoor.

    The data owner constructs it with the trapdoor; the SP, chain and
    clients receive a copy without it (:meth:`public_view`).
    """

    def __init__(
        self,
        arity: int,
        modulus_bits: int = DEFAULT_MODULUS_BITS,
        seed: int | None = None,
        _pp: CVCPublicParams | None = None,
        _td: CVCTrapdoor | None = None,
    ) -> None:
        if _pp is not None:
            self.pp = _pp
            self.td = _td
        else:
            self.pp, self.td = keygen(arity, modulus_bits=modulus_bits, seed=seed)
        self._kernel = (
            TrapdoorKernel(self.pp, self.td) if self.td is not None else None
        )

    @property
    def arity(self) -> int:
        """Number of message slots per commitment."""
        return self.pp.arity

    @property
    def has_trapdoor(self) -> bool:
        """True when this instance can find collisions."""
        return self.td is not None

    def _trapdoor_kernel(self) -> TrapdoorKernel:
        if self._kernel is None:
            raise TrapdoorRequiredError("this operation requires the trapdoor")
        return self._kernel

    def public_view(self) -> "ChameleonVectorCommitment":
        """A copy safe to hand to untrusted parties (no trapdoor, no kernel)."""
        return ChameleonVectorCommitment(self.pp.arity, _pp=self.pp, _td=None)

    def commit(self, messages: list[Message], randomiser: int) -> tuple[int, CVCAux]:
        """Commit to a message vector."""
        return commit(self.pp, messages, randomiser)

    def commit_empty(self, randomiser: int) -> tuple[int, CVCAux]:
        """Commit to the all-zero vector — every tree node starts here."""
        return commit(self.pp, [None] * self.pp.arity, randomiser)

    def open(self, slot: int, message: Message, aux: CVCAux) -> int:
        """Open the commitment at a slot (produce a proof)."""
        return open_slot(self.pp, slot, message, aux)

    def open_held(self, slot: int, aux: CVCAux) -> int:
        """Open a slot to the message ``aux`` holds, with the trapdoor.

        The same group element as :meth:`open`, as one half-width
        exponentiation (:class:`TrapdoorKernel`); the data owner's path.
        """
        return self._trapdoor_kernel().open(slot, aux)

    def open_many(
        self, slots: list[int], aux: CVCAux, strategy: str = "auto"
    ) -> dict[int, int]:
        """Batch-open several slots (see :func:`open_many`)."""
        return open_many(self.pp, slots, aux, strategy=strategy)

    def open_all(self, aux: CVCAux, strategy: str = "auto") -> dict[int, int]:
        """Batch-open every slot (see :func:`open_all`)."""
        return open_all(self.pp, aux, strategy=strategy)

    def verify(self, commitment: int, slot: int, message: Message, proof: int) -> bool:
        """Check a proof; returns whether it is valid."""
        return verify(self.pp, commitment, slot, message, proof)

    def prewarm(self) -> int:
        """Build every table this party will use; returns how many.

        The slot tables serve ``Com`` and ``Ver`` for everyone; the
        trapdoor holder adds its kernel's two-prime table for ``Open``.
        """
        touched = prewarm_tables(self.pp)
        if self._kernel is not None:
            touched += self._kernel.prewarm()
        return touched

    def collide(
        self,
        commitment: int,
        slot: int,
        old_message: Message,
        new_message: Message,
        aux: CVCAux,
        check: bool = True,
    ) -> CVCAux:
        """Find a trapdoor collision for one slot (see :func:`find_collision`)."""
        return self._trapdoor_kernel().collide(
            commitment, slot, old_message, new_message, aux, check=check
        )

    def value_byte_size(self) -> int:
        """Width of one group element in bytes."""
        return commitment_byte_size(self.pp)


@lru_cache(maxsize=8)
def shared_test_params(
    arity: int, modulus_bits: int = 512, seed: int = 7
) -> tuple[CVCPublicParams, CVCTrapdoor]:
    """Cached small parameters for the test-suite and examples.

    Parameter generation dominates pure-Python runtime; caching one set
    per (arity, size) keeps the suite fast without weakening what the
    tests exercise.
    """
    return keygen(arity, modulus_bits=modulus_bits, seed=seed)
