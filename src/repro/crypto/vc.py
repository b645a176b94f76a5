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
* The opening of the *whole* vector is ``Lambda = a^r``: with
  ``E = e_1 ... e_q = P/e_0``, ``S_0^r = Lambda^E``, and ``Ver`` checks
  ``Lambda^E * prod_i S_i^{z(m_i)} == C`` (:func:`verify_vector`) — the
  Catalano–Fiore subvector opening with every message slot in the
  subvector.  Binding it to two vectors yields an ``e_i``-th root of
  ``a`` (DESIGN.md §6.1 item 0).
* ``CCol`` — the chameleon property — replaces slot ``i``'s message while
  keeping ``C`` fixed by *re-solving the randomiser*:
  ``r' = r + (P/e_i)(z - z') * (P/e_0)^{-1}  (mod phi(N))``.
  Computing ``(P/e_0)^{-1} mod phi(N)`` requires the factorisation of
  ``N`` — that factorisation is the trapdoor ``td``.  Without it, forging
  an opening requires extracting ``e_i``-th roots (strong-RSA hard).
* The trapdoor holder — the data owner, the only party that ever opens a
  commitment — keeps ``r`` current through every collision and raises
  ``a`` to it over the two half-width prime fields
  (:class:`TrapdoorKernel`): two half-width exponentiations per opening.

* A verifier with many openings to check — a client with a query's worth
  of them — folds them into one equation with short random coefficients
  and the one exponent ``E`` (:func:`verify_batch`); DESIGN.md §6.1 says
  what a passing batch proves.

The per-slot ``Open`` (``L_i = T_{0,i}^r * prod_{j != i} T_{j,i}^{z(m_j)}``,
checked as ``C == S_i^{z(m)} * L_i^{e_i}``; :func:`open_slot`,
:func:`verify`) is no longer on any path of the system: it stays as the
public reference the tests hold the whole-vector opening to
(``L_i = Lambda^{E/e_i} * prod_{j != i} T_{j,i}^{z_j}``).

The security game of Definition 1/2 is unchanged: position binding under
strong RSA replaces position binding under CDH.  The performance property
the paper exploits in Section V-D — commitment verification costs orders
of magnitude more than a hash — also carries over: one ``Ver`` is an
exponentiation of the opening by the ``(q * 264)``-bit ``E`` plus a
256-bit exponentiation per non-empty slot versus one SHA3 call, and a
batch of n pays two 128-bit exponentiations per statement (its opening
and its commitment) plus one exponentiation by ``E`` and one per slot.
Every exponentiation is :func:`repro.crypto.numbers.modpow`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NoReturn

from repro import obs
from repro.crypto.hashing import DIGEST_SIZE, sha3
from repro.crypto.numbers import (  # noqa: F401 - fastpath is re-exported
    CRTFixedBase,
    RandomSource,
    fastpath,
    fastpath_enabled,
    generate_distinct_primes,
    generate_rsa_modulus,
    make_random,
    mod_inverse,
    modpow,
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

#: One whole-vector opening as :func:`verify_vector` takes it:
#: ``(commitment, messages of slots 1..q, opening)``.
Statement = tuple[int, Sequence[Message], int]

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
    #: safe (every published base already is a deterministic power of it).
    #: ``0`` marks legacy parameters generated before the base was
    #: retained; the trapdoor recovers it (:class:`TrapdoorKernel`).
    base: int = 0

    @property
    def randomiser_exponent(self) -> int:
        """The prime ``e_0`` guarding the randomiser slot."""
        return self.exponents[0]

    @property
    def vector_exponent(self) -> int:
        """``E = e_1 ... e_q``: what a whole-vector opening is raised to."""
        return math.prod(self.exponents[1:])

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
        modpow(base, product // e, modulus.n) for e in exponents
    )
    pair_bases = tuple(
        tuple(
            modpow(base, product // (exponents[i] * exponents[j]), modulus.n)
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
            return candidate * candidate % n


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
    messages = multi_exp(list(zip(pp.slot_bases[1:], encoded)), pp.modulus)
    return modpow(pp.slot_bases[0], randomiser, pp.modulus) * messages % pp.modulus


def open_slot(pp: CVCPublicParams, slot: int, message: Message, aux: CVCAux) -> int:
    """``Open_pp(i, m, aux)``: produce a proof that slot ``i`` holds ``m``.

    Fails when ``aux`` does not actually hold ``m`` at that slot — an
    honest opener cannot produce a proof for a wrong value.  The public
    per-slot reference (module docstring); nothing in the system opens
    one slot any more.
    """
    pp._check_slot(slot)
    z = encode_message(message)
    if aux.message_at(slot) != z:
        raise CommitmentError(
            f"aux holds a different message at slot {slot}; cannot open"
        )
    return _open_encoded(pp, slot, aux)


def _open_encoded(pp: CVCPublicParams, slot: int, aux: CVCAux) -> int:
    """Per-slot opening for the message ``aux`` already holds (encoded)."""
    others = multi_exp(
        [
            (pp.pair_base(other, slot), z)
            for other, z in enumerate(aux.messages, start=1)
            if other != slot
        ],
        pp.modulus,
    )
    hiding = modpow(pp.pair_base(0, slot), aux.randomiser, pp.modulus)
    return hiding * others % pp.modulus


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
    """``Ver_pp(c, i, m, pi)``: check that ``c`` opens to ``m`` at ``i``.

    The per-slot reference (module docstring).
    """
    if not opening_in_range(pp, commitment, slot, proof):
        return False
    pairs = [(proof, pp.slot_exponent(slot)), (pp.slot_base(slot), encode_message(message))]
    return multi_exp(pairs, pp.modulus) == commitment


def statement_in_range(pp: CVCPublicParams, statement: Statement) -> bool:
    """Whether a statement has one message per slot and two nonzero residues."""
    commitment, messages, opening = statement
    return (
        len(messages) == pp.arity
        and 0 < opening < pp.modulus
        and 0 < commitment < pp.modulus
    )


def verify_vector(
    pp: CVCPublicParams,
    commitment: int,
    messages: Sequence[Message],
    opening: int,
) -> bool:
    """Whether ``opening`` opens ``commitment`` to the whole vector ``messages``.

    Checks ``opening^E * prod_i S_i^{z(m_i)} == commitment`` with
    ``E = e_1 ... e_q`` (:attr:`CVCPublicParams.vector_exponent`).
    """
    if not statement_in_range(pp, (commitment, messages, opening)):
        return False
    pairs = [(opening, pp.vector_exponent)]
    pairs += zip(pp.slot_bases[1:], map(encode_message, messages))
    return multi_exp(pairs, pp.modulus) == commitment


def verify_batch(pp: CVCPublicParams, statements: Sequence[Statement]) -> bool:
    """Whether every whole-vector opening verifies, checked as one equation.

    Each statement ``L_k^E * prod_i S_i^{z_{k,i}} = C_k`` is raised to a
    fresh odd :data:`BATCH_COEFFICIENT_BITS`-bit ``r_k`` and the results
    are multiplied; every statement shares the exponent ``E``, so that is

        (prod_k L_k^{r_k})^E * prod_i S_i^{sum_k r_k z_{k,i}}
            ==  prod_C C^{sum_{k: C_k = C} r_k}

    — one 128-bit exponentiation per opening and per distinct
    commitment, then one exponentiation by ``E`` and one per slot,
    whatever the batch size.  The coefficients come from the operating
    system at call time: a prover that could predict them could cancel
    one bad opening against another.

    ``True`` means what DESIGN.md §6.1 argues; it differs from
    ``all(verify_vector(...))`` in one documented case — an even number
    of openings negated modulo ``N`` passes here and fails there.
    ``False`` says only that some statement is bad: callers that must
    name it re-check one by one.  A batch of one is
    :func:`verify_vector`, and so is every batch while the fast path is
    off (the reference arithmetic).
    """
    if len(statements) < 2 or not fastpath_enabled():
        return all(verify_vector(pp, *statement) for statement in statements)
    obs.inc("vc.verify.batches")
    obs.inc("vc.verify.batched_openings", len(statements))
    modulus = pp.modulus
    rng = make_random(None)
    openings: list[tuple[int, int]] = []
    weights = [0] * (pp.arity + 1)
    commitments: dict[int, int] = {}
    for statement in statements:
        if not statement_in_range(pp, statement):
            return False
        commitment, messages, opening = statement
        r = rng.randbits(BATCH_COEFFICIENT_BITS) | 1
        openings.append((opening, r))
        for slot, message in enumerate(messages, start=1):
            weights[slot] += r * encode_message(message)
        commitments[commitment] = commitments.get(commitment, 0) + r
    pairs = [(multi_exp(openings, modulus), pp.vector_exponent)]
    pairs += zip(pp.slot_bases[1:], weights[1:])
    return multi_exp(pairs, modulus) == multi_exp(list(commitments.items()), modulus)


class TrapdoorKernel:
    """``Open`` and ``CCol`` as the holder of ``td`` computes them.

    Knowing ``phi(N)``, a collision is one multiplication:
    ``(P/e_i)(P/e_0)^{-1} mod phi`` is fixed per ``(pp, td)`` and
    computed here once.  The opening of a whole vector is ``a^r`` — one
    secret exponentiation in each of the two half-width prime fields
    (:class:`~repro.crypto.numbers.CRTFixedBase`).

    Outputs are the group elements the definitions of the whole-vector
    opening and of ``CCol`` give; the tests hold them to the public
    per-slot reference (:func:`open_slot`, :func:`verify`).  The kernel
    *is* the trapdoor: it refuses to be pickled or copied, so it cannot
    ride a worker pipe or a manifest.
    """

    def __init__(self, pp: CVCPublicParams, td: CVCTrapdoor) -> None:
        phi = td.phi
        product = math.prod(pp.exponents)
        self._pp = pp
        self._phi = phi
        inverse = mod_inverse(product // pp.randomiser_exponent % phi, phi)
        #: How far one unit less of slot ``i``'s message moves the
        #: randomiser: ``(P/e_i) (P/e_0)^{-1} mod phi``.
        self._shift = [product // e % phi * inverse % phi for e in pp.exponents]
        # Legacy parameters did not retain ``a``; the trapdoor recovers it
        # from ``S_0 = a^{P/e_0}``.
        base = pp.base or modpow(pp.slot_bases[0], inverse, pp.modulus, secret=True)
        self._crt = CRTFixedBase(base, td.p, td.q)

    def __reduce_ex__(self, protocol: object) -> NoReturn:
        raise TrapdoorRequiredError(
            "the trapdoor kernel stays with the data owner: it cannot be "
            "pickled or copied"
        )

    def open(self, aux: CVCAux) -> int:
        """The opening of the whole vector ``aux`` holds: ``a^r``."""
        obs.inc("vc.batch.openings")
        return self._crt.pow(aux.randomiser)

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

    def open_vector(self, aux: CVCAux) -> int:
        """Open the whole vector ``aux`` holds, with the trapdoor.

        Two half-width exponentiations (:class:`TrapdoorKernel`); the
        data owner's path, and the only opening the system makes.
        """
        return self._trapdoor_kernel().open(aux)

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
