"""``vc.verify_batch``: one random linear combination for many openings.

What a passing batch proves is argued in DESIGN.md §6.1; these tests pin
the cases that argument names.  Outside one documented case — an even
number of proofs negated modulo ``N`` — a batch verdict equals
``all(vc.verify(...))``; and since the coefficients are drawn afresh from
the operating system on every call, the rejections are repeated often
enough that a one-in-many escape would show.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.crypto import vc


def honest_openings(pp, seed, commitments=4):
    """Every slot of ``commitments`` random vectors, opened honestly."""
    rng = random.Random(seed)
    openings = []
    for _ in range(commitments):
        messages = [
            None if rng.random() < 0.2 else rng.randbytes(12)
            for _ in range(pp.arity)
        ]
        c, aux = vc.commit(pp, messages, rng.getrandbits(200))
        for slot, message in enumerate(messages, start=1):
            openings.append((c, slot, message, vc.open_slot(pp, slot, message, aux)))
    return openings


def unit(pp, rng):
    while True:
        g = rng.randrange(2, pp.modulus - 1)
        if math.gcd(g, pp.modulus) == 1:
            return g


def negated(pp, opening):
    c, slot, message, proof = opening
    return (c, slot, message, pp.modulus - proof)


#: name -> (opening, another honest opening, pp, rng) -> tampered opening.
#: Each makes ``vc.verify`` reject the opening it returns.
TAMPERS = {
    "wrong message": lambda o, other, pp, rng: (o[0], o[1], b"forged", o[3]),
    "wrong slot": lambda o, other, pp, rng: (o[0], o[1] % pp.arity + 1, o[2], o[3]),
    "other commitment": lambda o, other, pp, rng: (other[0], o[1], o[2], o[3]),
    "bit flip": lambda o, other, pp, rng: (o[0], o[1], o[2], o[3] ^ 1),
    "stray factor": lambda o, other, pp, rng: (
        o[0],
        o[1],
        o[2],
        o[3] * unit(pp, rng) % pp.modulus,
    ),
    "negated": lambda o, other, pp, rng: negated(pp, o),
}


@pytest.fixture(scope="module")
def pp():
    return vc.shared_test_params(3)[0]


@pytest.fixture(scope="module")
def openings(pp):
    return honest_openings(pp, seed=1)


class TestHonestBatches:
    def test_honest_batch_passes(self, pp, openings):
        assert all(vc.verify(pp, *o) for o in openings)
        for _ in range(5):
            assert vc.verify_batch(pp, openings)

    def test_repeated_openings_and_shared_commitments(self, pp, openings):
        assert vc.verify_batch(pp, openings + openings[:5])

    def test_empty_batch_has_nothing_to_refute(self, pp):
        assert vc.verify_batch(pp, [])

    def test_batch_of_one_is_verify(self, pp, openings, monkeypatch):
        seen = []
        real = vc.verify
        monkeypatch.setattr(
            vc, "verify", lambda pp, *o: seen.append(o) or real(pp, *o)
        )
        with obs.collect() as collector:
            assert vc.verify_batch(pp, openings[:1])
            assert not vc.verify_batch(pp, [negated(pp, openings[0])])
        assert seen == [openings[0], negated(pp, openings[0])]
        assert "vc.verify.batches" not in collector.metrics.snapshot()

    def test_counters(self, pp, openings):
        with obs.collect() as collector:
            vc.verify_batch(pp, openings)
            vc.verify_batch(pp, openings[:3])
        counters = collector.metrics.snapshot()
        assert counters["vc.verify.batches"] == 2
        assert counters["vc.verify.batched_openings"] == len(openings) + 3


class TestRejections:
    @pytest.mark.parametrize("tamper", sorted(set(TAMPERS) - {"negated"}))
    @pytest.mark.parametrize("place", ["first", "middle", "last"])
    def test_one_bad_opening_fails_the_batch(self, pp, openings, tamper, place):
        index = {"first": 0, "middle": len(openings) // 2, "last": -1}[place]
        batch = list(openings)
        batch[index] = TAMPERS[tamper](
            batch[index], openings[index - 4], pp, random.Random(5)
        )
        assert not vc.verify(pp, *batch[index])
        for _ in range(10):
            assert not vc.verify_batch(pp, batch)

    def test_cancelling_pair_passes_unweighted_and_fails_here(self, pp, openings):
        """``L_1 * g`` and ``L_2 / g`` in one slot: their errors cancel in
        a plain product of the equations, never under fresh coefficients."""
        first, second = [o for o in openings if o[1] == 2][:2]
        g = unit(pp, random.Random(9))
        pair = [
            (first[0], 2, first[2], first[3] * g % pp.modulus),
            (second[0], 2, second[2], second[3] * pow(g, -1, pp.modulus) % pp.modulus),
        ]
        assert not vc.verify(pp, *pair[0]) and not vc.verify(pp, *pair[1])
        n, e = pp.modulus, pp.slot_exponent(2)
        lhs = rhs = 1
        for c, slot, message, proof in pair:
            z = vc.encode_message(message)
            lhs = lhs * pow(proof, e, n) * pow(pp.slot_base(slot), z, n) % n
            rhs = rhs * c % n
        assert lhs == rhs  # the unweighted product is fooled
        rest = [o for o in openings if o not in (first, second)]
        for _ in range(200):
            assert not vc.verify_batch(pp, pair)
        for _ in range(20):
            assert not vc.verify_batch(pp, rest + pair)

    def test_out_of_range_values_fail_before_any_arithmetic(self, pp, openings):
        c, slot, message, proof = openings[0]
        rest = openings[1:]
        for bad in (
            (c, slot, message, 0),
            (0, slot, message, proof),
            (0, slot, message, 0),  # 0 = 0 would satisfy any product
            (c, slot, message, pp.modulus),
            (c + pp.modulus, slot, message, proof),
            (c, 0, message, proof),
            (c, pp.arity + 1, message, proof),
            (c, slot, message, -proof),
        ):
            assert not vc.verify(pp, *bad)
            assert not vc.verify_batch(pp, rest + [bad])
            assert not vc.verify_batch(pp, [bad, bad])


class TestSigns:
    """DESIGN.md §6.1 item 3: every slot prime and every coefficient is
    odd, so a batch counts negated proofs modulo two."""

    def test_one_sign_flip_is_rejected_every_time(self, pp, openings):
        for index in (0, len(openings) // 2, len(openings) - 1):
            batch = list(openings)
            batch[index] = negated(pp, batch[index])
            for _ in range(50):
                assert not vc.verify_batch(pp, batch)

    def test_three_sign_flips_are_rejected(self, pp, openings):
        batch = [negated(pp, o) for o in openings[:3]] + openings[3:]
        for _ in range(50):
            assert not vc.verify_batch(pp, batch)

    def test_two_sign_flips_are_the_documented_difference(self, pp, openings):
        """The batch passes, ``vc.verify`` rejects each — and each
        statement is true: negating the proof back gives one it accepts."""
        flipped = [negated(pp, o) for o in openings[:2]]
        batch = flipped + openings[2:]
        assert vc.verify_batch(pp, batch)
        assert vc.verify_batch(pp, flipped)
        for opening in flipped:
            assert not vc.verify(pp, *opening)
            assert vc.verify(pp, *negated(pp, opening))

    def test_reference_arithmetic_has_no_such_case(self, pp, openings):
        """With the fast path off a batch is ``all(vc.verify)``."""
        flipped = [negated(pp, o) for o in openings[:2]]
        with vc.fastpath(False):
            assert vc.verify_batch(pp, openings)
            assert not vc.verify_batch(pp, flipped + openings[2:])


_GRID = [(arity, bits) for arity in (2, 3) for bits in (512, 1024)]


@pytest.mark.parametrize("arity,bits", _GRID)
def test_batch_agrees_with_per_opening_verdicts(arity, bits):
    """Hypothesis, per (arity, modulus): for a random set of tampered
    positions and kinds, ``verify_batch`` is ``all(vc.verify)`` — except
    when the set is an even number of negations and nothing else."""
    pp = vc.shared_test_params(arity, modulus_bits=bits)[0]
    honest = honest_openings(pp, seed=arity * bits, commitments=3)
    kinds = sorted(TAMPERS)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        tampers=st.dictionaries(
            st.integers(0, len(honest) - 1), st.sampled_from(kinds), max_size=4
        ),
        seed=st.integers(0, 2**32),
    )
    def check(tampers, seed):
        rng = random.Random(seed)
        batch = list(honest)
        for index, kind in tampers.items():
            batch[index] = TAMPERS[kind](
                honest[index], honest[index - pp.arity], pp, rng
            )
        one_by_one = all(vc.verify(pp, *o) for o in batch)
        documented = (
            bool(tampers)
            and set(tampers.values()) == {"negated"}
            and len(tampers) % 2 == 0
        )
        assert vc.verify_batch(pp, batch) == (one_by_one or documented)
        assert one_by_one == (not tampers)

    check()
