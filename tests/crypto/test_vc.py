"""Unit tests for the vector commitment / chameleon vector commitment."""

import pytest

from repro.crypto import vc
from repro.errors import CommitmentError, ParameterError, TrapdoorRequiredError


@pytest.fixture(scope="module")
def pp_td():
    return vc.shared_test_params(3)


class TestEncodeMessage:
    def test_none_and_empty_encode_to_zero(self):
        assert vc.encode_message(None) == 0
        assert vc.encode_message(b"") == 0
        assert vc.encode_message(0) == 0

    def test_bytes_and_ints_fit_message_space(self):
        assert vc.encode_message(b"hello") < 1 << vc.MESSAGE_BITS
        assert vc.encode_message(12345) < 1 << vc.MESSAGE_BITS

    def test_type_separation(self):
        # The same raw content as bytes vs int encodes differently.
        assert vc.encode_message(b"\x01") != vc.encode_message(1)

    def test_rejects_unknown_types(self):
        with pytest.raises(CommitmentError):
            vc.encode_message(3.14)  # type: ignore[arg-type]


class TestKeygen:
    def test_rejects_zero_arity(self):
        with pytest.raises(ParameterError):
            vc.keygen(0, modulus_bits=512, seed=1)

    def test_deterministic_with_seed(self):
        pp1, _ = vc.keygen(2, modulus_bits=512, seed=42)
        pp2, _ = vc.keygen(2, modulus_bits=512, seed=42)
        assert pp1.modulus == pp2.modulus
        assert pp1.exponents == pp2.exponents

    def test_exponents_are_distinct(self, pp_td):
        pp, _ = pp_td
        assert len(set(pp.exponents)) == pp.arity + 1

    def test_pair_bases_symmetric(self, pp_td):
        pp, _ = pp_td
        assert pp.pair_base(0, 1) == pp.pair_base(1, 0)

    def test_pair_base_rejects_equal_indices(self, pp_td):
        pp, _ = pp_td
        with pytest.raises(CommitmentError):
            pp.pair_base(1, 1)

    def test_slot_range_enforced(self, pp_td):
        pp, _ = pp_td
        with pytest.raises(CommitmentError):
            pp.slot_exponent(0)
        with pytest.raises(CommitmentError):
            pp.slot_base(pp.arity + 1)

    def test_byte_size_positive(self, pp_td):
        pp, _ = pp_td
        assert pp.byte_size() > 0


class TestCommitOpenVerify:
    def test_roundtrip_all_slots(self, pp_td):
        pp, _ = pp_td
        messages = [b"alpha", b"beta", b"gamma"]
        c, aux = vc.commit(pp, messages, randomiser=777)
        for slot, message in enumerate(messages, start=1):
            proof = vc.open_slot(pp, slot, message, aux)
            assert vc.verify(pp, c, slot, message, proof)

    def test_empty_slots_open_to_none(self, pp_td):
        pp, _ = pp_td
        c, aux = vc.commit(pp, [b"only", None, None], randomiser=1)
        proof = vc.open_slot(pp, 2, None, aux)
        assert vc.verify(pp, c, 2, None, proof)

    def test_wrong_message_rejected(self, pp_td):
        pp, _ = pp_td
        c, aux = vc.commit(pp, [b"a", b"b", b"c"], randomiser=5)
        proof = vc.open_slot(pp, 1, b"a", aux)
        assert not vc.verify(pp, c, 1, b"evil", proof)

    def test_wrong_slot_rejected(self, pp_td):
        pp, _ = pp_td
        c, aux = vc.commit(pp, [b"a", b"b", b"c"], randomiser=5)
        proof = vc.open_slot(pp, 1, b"a", aux)
        assert not vc.verify(pp, c, 2, b"a", proof)

    def test_out_of_range_values_rejected(self, pp_td):
        pp, _ = pp_td
        c, aux = vc.commit(pp, [b"a", None, None], randomiser=5)
        proof = vc.open_slot(pp, 1, b"a", aux)
        assert not vc.verify(pp, c, 1, b"a", 0)
        assert not vc.verify(pp, c, 1, b"a", pp.modulus)
        assert not vc.verify(pp, 0, 1, b"a", proof)
        assert not vc.verify(pp, c, 99, b"a", proof)

    def test_open_rejects_inconsistent_aux(self, pp_td):
        pp, _ = pp_td
        _, aux = vc.commit(pp, [b"a", b"b", b"c"], randomiser=5)
        with pytest.raises(CommitmentError):
            vc.open_slot(pp, 1, b"not-a", aux)

    def test_commit_rejects_wrong_length(self, pp_td):
        pp, _ = pp_td
        with pytest.raises(CommitmentError):
            vc.commit(pp, [b"a"], randomiser=1)

    def test_randomiser_changes_commitment(self, pp_td):
        pp, _ = pp_td
        c1, _ = vc.commit(pp, [b"a", None, None], randomiser=1)
        c2, _ = vc.commit(pp, [b"a", None, None], randomiser=2)
        assert c1 != c2


class TestCollision:
    def test_collision_preserves_commitment(self, pp_td):
        pp, td = pp_td
        c, aux = vc.commit(pp, [None, None, None], randomiser=9)
        aux2 = vc.find_collision(pp, td, c, 1, None, b"new", aux)
        proof = vc.open_slot(pp, 1, b"new", aux2)
        assert vc.verify(pp, c, 1, b"new", proof)

    def test_other_slots_still_open(self, pp_td):
        pp, td = pp_td
        c, aux = vc.commit(pp, [b"keep", None, None], randomiser=9)
        aux2 = vc.find_collision(pp, td, c, 2, None, b"new", aux)
        proof = vc.open_slot(pp, 1, b"keep", aux2)
        assert vc.verify(pp, c, 1, b"keep", proof)

    def test_chained_collisions(self, pp_td):
        pp, td = pp_td
        c, aux = vc.commit(pp, [None, None, None], randomiser=3)
        aux = vc.find_collision(pp, td, c, 1, None, b"one", aux)
        aux = vc.find_collision(pp, td, c, 2, None, b"two", aux)
        aux = vc.find_collision(pp, td, c, 1, b"one", b"one'", aux)
        for slot, message in ((1, b"one'"), (2, b"two"), (3, None)):
            proof = vc.open_slot(pp, slot, message, aux)
            assert vc.verify(pp, c, slot, message, proof)

    def test_requires_trapdoor(self, pp_td):
        pp, _ = pp_td
        c, aux = vc.commit(pp, [None, None, None], randomiser=3)
        with pytest.raises(TrapdoorRequiredError):
            vc.find_collision(pp, None, c, 1, None, b"x", aux)

    def test_rejects_wrong_old_message(self, pp_td):
        pp, td = pp_td
        c, aux = vc.commit(pp, [b"actual", None, None], randomiser=3)
        with pytest.raises(CommitmentError):
            vc.find_collision(pp, td, c, 1, b"claimed", b"new", aux)

    def test_check_flag_detects_mismatched_commitment(self, pp_td):
        pp, td = pp_td
        _, aux = vc.commit(pp, [None, None, None], randomiser=3)
        c_other, _ = vc.commit(pp, [None, None, None], randomiser=4)
        with pytest.raises(CommitmentError):
            vc.find_collision(pp, td, c_other, 1, None, b"x", aux, check=True)

    def test_old_proof_invalid_after_collision(self, pp_td):
        pp, td = pp_td
        c, aux = vc.commit(pp, [b"old", None, None], randomiser=3)
        old_proof = vc.open_slot(pp, 1, b"old", aux)
        vc.find_collision(pp, td, c, 1, b"old", b"new", aux)
        # The stale proof still verifies for the OLD message (that is the
        # chameleon property: both openings exist), but never for new.
        assert vc.verify(pp, c, 1, b"old", old_proof)
        assert not vc.verify(pp, c, 1, b"new", old_proof)


class TestFacades:
    def test_plain_vector_commitment(self):
        """The plain ``Com/Open/Ver`` of Section III-A: the public
        functions over parameters whose trapdoor is withheld."""
        pp, _ = vc.keygen(2, modulus_bits=512, seed=8)
        c, aux = vc.commit(pp, [b"x", b"y"], randomiser=4)
        proof = vc.open_slot(pp, 2, b"y", aux)
        assert vc.verify(pp, c, 2, b"y", proof)

    def test_chameleon_public_view_lacks_trapdoor(self, cvc):
        public = cvc.public_view()
        assert cvc.has_trapdoor
        assert not public.has_trapdoor
        c, aux = public.commit_empty(randomiser=1)
        with pytest.raises(TrapdoorRequiredError):
            public.collide(c, 1, None, b"x", aux)

    def test_value_byte_size(self, cvc):
        assert cvc.value_byte_size() == (cvc.pp.modulus.bit_length() + 7) // 8

    def test_shared_params_cached(self):
        assert vc.shared_test_params(3) is vc.shared_test_params(3)
