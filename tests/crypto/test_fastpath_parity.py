"""Parity suite: the crypto fast path must be bit-identical to the naive path.

The multi-exponentiation and fixed-base-table code is a pure performance
layer: every result must equal what independent ``pow`` calls produce,
for randomized bases, exponents and message vectors, and the CVC
commit/open/verify round trip must be unchanged under either path.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import vc
from repro.crypto.numbers import (
    FixedBaseTable,
    clear_fixed_base_tables,
    fixed_base_table,
    multi_exp,
)
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
    def test_many_bases_short_exponents(self, count, bits, monkeypatch):
        """The batch verifier's shape: tens of bases walk sliding
        windows, hundreds fall into buckets; zero exponents, a zero base
        and a base above the modulus change nothing."""
        from repro.crypto import numbers

        used = []
        for name in ("_straus", "_pippenger"):
            real = getattr(numbers, name)
            monkeypatch.setattr(
                numbers,
                name,
                lambda *args, _real=real, _name=name: used.append(_name)
                or _real(*args),
            )
        rng = random.Random(count * bits)
        pairs = [
            (rng.randrange(1, MODULUS), rng.getrandbits(bits) | 1)
            for _ in range(count)
        ]
        expected = {0: [], 1: [], 3: ["_straus"], 50: ["_straus"]}.get(
            count, ["_pippenger"]
        )
        assert multi_exp(pairs, MODULUS) == naive_multi_exp(pairs, MODULUS)
        assert used == expected
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

    def test_with_tables_matches_naive(self):
        rng = random.Random(99)
        for _ in range(20):
            pairs = [
                (rng.randrange(2, MODULUS), rng.getrandbits(256))
                for _ in range(3)
            ]
            tables = [
                FixedBaseTable(pairs[0][0], MODULUS, 256),
                None,
                FixedBaseTable(pairs[2][0], MODULUS, 256),
            ]
            assert multi_exp(pairs, MODULUS, tables=tables) == naive_multi_exp(
                pairs, MODULUS
            )

    def test_misaligned_tables_rejected(self):
        with pytest.raises(ParameterError):
            multi_exp([(2, 3)], MODULUS, tables=[None, None])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParameterError):
            multi_exp([(2, -1)], MODULUS)

    def test_bad_modulus_rejected(self):
        with pytest.raises(ParameterError):
            multi_exp([(2, 3)], 0)


class TestFixedBaseTable:
    def test_matches_pow_across_exponent_sizes(self):
        rng = random.Random(7)
        base = rng.randrange(2, MODULUS)
        table = FixedBaseTable(base, MODULUS, 300)
        for bits in (1, 8, 63, 64, 255, 299, 300):
            exponent = rng.getrandbits(bits) | (1 << (bits - 1))
            assert table.pow(exponent) == pow(base, exponent, MODULUS), bits
        assert table.pow(0) == 1

    def test_oversized_exponent_falls_back(self):
        table = FixedBaseTable(3, MODULUS, 64)
        exponent = 1 << 200
        assert table.pow(exponent) == pow(3, exponent, MODULUS)

    def test_negative_exponent_rejected(self):
        table = FixedBaseTable(3, MODULUS, 64)
        with pytest.raises(ParameterError):
            table.pow(-1)

    def test_cache_reuses_and_rebuilds(self):
        clear_fixed_base_tables()
        small = fixed_base_table(11, MODULUS, 64)
        again = fixed_base_table(11, MODULUS, 32)
        assert again is small  # wider cached table serves narrower requests
        wider = fixed_base_table(11, MODULUS, 128)
        assert wider is not small
        assert wider.max_bits >= 128
        clear_fixed_base_tables()


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
        proof = cvc.open(3, b"c", aux2)
        assert cvc.verify(c, 3, b"c", proof)
        with vc.fastpath(False):
            assert cvc.verify(c, 3, b"c", proof)

    def test_toggle_restores_previous_state(self):
        original = vc.fastpath_enabled()
        with vc.fastpath(not original):
            assert vc.fastpath_enabled() is (not original)
            with vc.fastpath(original):
                assert vc.fastpath_enabled() is original
            assert vc.fastpath_enabled() is (not original)
        assert vc.fastpath_enabled() is original
