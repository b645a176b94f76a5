"""Parity suite: the crypto fast path must be bit-identical to the naive path.

The libcrypto kernel behind ``multi_exp`` is a pure performance layer:
every result must equal what independent builtin ``pow`` calls produce,
for randomized bases, exponents and message vectors, and the CVC
commit/open/verify round trip must be unchanged under either path
(``vc.fastpath(False)`` runs every exponentiation through builtin
``pow``).  ``tests/crypto/test_modpow.py`` holds the kernel itself to
``pow`` edge case by edge case.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import vc
from repro.crypto.numbers import multi_exp
from repro.errors import ParameterError

MODULUS = 0xC7F4E3F1_9B3D5A77 * 0xE5C0A98F_0D3B1F63  # two 64-bit odd factors


def naive_multi_exp(pairs, modulus):
    out = 1 % modulus
    for base, exponent in pairs:
        out = out * pow(base, exponent, modulus) % modulus
    return out


class TestMultiExp:
    def test_matches_naive_for_random_vectors(self):
        rng = random.Random(1234)
        for trial in range(50):
            k = rng.randint(1, 5)
            pairs = [
                (rng.randrange(1, MODULUS), rng.getrandbits(rng.randint(1, 300)))
                for _ in range(k)
            ]
            assert multi_exp(pairs, MODULUS) == naive_multi_exp(pairs, MODULUS), (
                trial,
                pairs,
            )

    @pytest.mark.parametrize("count", [0, 1, 3, 50, 300])
    @pytest.mark.parametrize("bits", [128, 264])
    def test_many_bases_short_exponents(self, count, bits):
        """The batch verifier's shape: from none to hundreds of bases;
        zero exponents, a zero base and a base above the modulus change
        nothing."""
        rng = random.Random(count * bits)
        pairs = [
            (rng.randrange(1, MODULUS), rng.getrandbits(bits) | 1)
            for _ in range(count)
        ]
        assert multi_exp(pairs, MODULUS) == naive_multi_exp(pairs, MODULUS)
        if count >= 3:
            pairs[1] = (pairs[1][0], 0)
            pairs[2] = (pairs[2][0] + MODULUS, pairs[2][1])
            assert multi_exp(pairs, MODULUS) == naive_multi_exp(pairs, MODULUS)
            pairs[0] = (0, 5)
            assert multi_exp(pairs, MODULUS) == 0

    def test_zero_exponents_and_empty_input(self):
        assert multi_exp([], MODULUS) == 1
        assert multi_exp([(5, 0), (7, 0)], MODULUS) == 1

    def test_single_pair_degenerates_to_pow(self):
        assert multi_exp([(12345, 6789)], MODULUS) == pow(12345, 6789, MODULUS)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParameterError):
            multi_exp([(2, -1)], MODULUS)

    def test_bad_modulus_rejected(self):
        with pytest.raises(ParameterError):
            multi_exp([(2, 3)], 0)


class TestCVCFastpathParity:
    def test_commit_open_verify_identical(self, cvc_params):
        """Randomized vectors: both paths agree on every group element."""
        pp, _ = cvc_params
        rng = random.Random(42)
        for trial in range(15):
            messages = [
                None if rng.random() < 0.3 else rng.randbytes(12)
                for _ in range(pp.arity)
            ]
            randomiser = rng.getrandbits(256)
            with vc.fastpath(False):
                c_naive, aux_naive = vc.commit(pp, messages, randomiser)
                proofs_naive = [
                    vc.open_slot(pp, slot, messages[slot - 1], aux_naive)
                    for slot in range(1, pp.arity + 1)
                ]
            with vc.fastpath(True):
                c_fast, aux_fast = vc.commit(pp, messages, randomiser)
                proofs_fast = [
                    vc.open_slot(pp, slot, messages[slot - 1], aux_fast)
                    for slot in range(1, pp.arity + 1)
                ]
            assert c_fast == c_naive, trial
            assert proofs_fast == proofs_naive, trial
            for slot in range(1, pp.arity + 1):
                for enabled in (False, True):
                    with vc.fastpath(enabled):
                        assert vc.verify(
                            pp, c_fast, slot, messages[slot - 1], proofs_fast[slot - 1]
                        )
                        # Wrong message must fail under either path.
                        assert not vc.verify(
                            pp, c_fast, slot, b"wrong", proofs_fast[slot - 1]
                        )

    def test_collision_round_trip_on_fast_path(self, cvc):
        """Trapdoor collisions (the DO hot path) stay consistent."""
        c, aux = cvc.commit([b"a", b"b", None], randomiser=12345)
        aux2 = cvc.collide(c, 3, None, b"c", aux)
        opening = cvc.open_vector(aux2)
        assert vc.verify_vector(cvc.pp, c, [b"a", b"b", b"c"], opening)
        assert not vc.verify_vector(cvc.pp, c, [b"a", b"b", None], opening)
        with vc.fastpath(False):
            assert vc.verify_vector(cvc.pp, c, [b"a", b"b", b"c"], opening)
            assert not vc.verify_vector(cvc.pp, c, [b"a", b"b", None], opening)

    def test_toggle_restores_previous_state(self):
        original = vc.fastpath_enabled()
        with vc.fastpath(not original):
            assert vc.fastpath_enabled() is (not original)
            with vc.fastpath(original):
                assert vc.fastpath_enabled() is original
            assert vc.fastpath_enabled() is (not original)
        assert vc.fastpath_enabled() is original
