"""The trapdoor kernel against the public, no-trapdoor reference.

The data owner opens with the trapdoor: the whole vector's opening is
``a^r``, one exponentiation over the two prime fields.  An opening is a
*unique* group element (``x -> x^E`` is a bijection), so whatever route
computes it the bits must agree.  These tests hold the kernel to the
public functions — ``verify_vector``, the per-slot reference
``open_slot`` / ``verify`` (each slot's opening follows from the whole
one: ``L_i = Lambda^{E/e_i} * prod_{j != i} T_{j,i}^{z_j}``) and the
textbook ``CCol`` formula — across arities, modulus sizes, edge
randomisers, empty slots and chains of collisions, with the public
functions in the libcrypto kernel and in builtin ``pow``.  Every check is an ``if ...: raise`` once pytest has
rewritten it, so the file holds under ``python -O`` too.
"""

import copy
import math
import pickle
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.crypto import vc
from repro.crypto.numbers import CRTFixedBase, mod_inverse, modpow
from repro.errors import CommitmentError, TrapdoorRequiredError
from tests.reference_arithmetic import arithmetic

ARITIES = (2, 3, 16)
MODULUS_BITS = (512, 1024)


@lru_cache(maxsize=None)
def owner(arity: int, bits: int) -> vc.ChameleonVectorCommitment:
    """One trapdoor-holding CVC per grid cell, kept for the module."""
    pp, td = vc.keygen(arity, modulus_bits=bits, seed=7)
    return vc.ChameleonVectorCommitment(arity, _pp=pp, _td=td)


def textbook_randomiser(pp, td, slot, z_old, z_new, randomiser):
    """``CCol`` as the module docstring defines it, nothing precomputed."""
    phi = td.phi
    product = math.prod(pp.exponents)
    coeff = product // pp.exponents[slot] % phi
    inverse = mod_inverse(product // pp.exponents[0] % phi, phi)
    delta = coeff * ((z_old - z_new) % phi) % phi
    return (randomiser + delta * inverse) % phi


def slot_opening(pp, opening, slot, aux):
    """Slot ``slot``'s opening, derived publicly from the whole vector's."""
    value = pow(opening, pp.vector_exponent // pp.exponents[slot], pp.modulus)
    for other, z in enumerate(aux.messages, start=1):
        if z and other != slot:
            value = value * pow(pp.pair_base(other, slot), z, pp.modulus) % pp.modulus
    return value


message = st.one_of(st.none(), st.binary(min_size=1, max_size=12))


@pytest.mark.parametrize("fast", [True, False], ids=["fastpath", "naive"])
@pytest.mark.parametrize("bits", MODULUS_BITS)
@pytest.mark.parametrize("arity", ARITIES)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_kernel_agrees_with_the_public_reference(arity, bits, fast, data):
    cvc = owner(arity, bits)
    pp, td = cvc.pp, cvc.td
    messages = data.draw(st.lists(message, min_size=arity, max_size=arity))
    randomiser = data.draw(
        st.one_of(
            st.sampled_from([0, td.phi - 1]), st.integers(0, td.phi - 1)
        )
    )
    updates = data.draw(
        st.lists(st.tuples(st.integers(1, arity), message), max_size=2)
    )
    # Two slots per state keep arity 16 affordable: a public opening there
    # costs one exponentiation per pair base.
    slots = data.draw(
        st.lists(
            st.integers(1, arity), min_size=2, max_size=2, unique=True
        )
    )

    with arithmetic(fast):
        commitment, aux = cvc.commit(messages, randomiser)
        current = list(messages)
        for step in range(len(updates) + 1):
            opening = cvc.open_vector(aux)
            assert opening == pow(pp.base, aux.randomiser, pp.modulus)
            assert vc.verify_vector(pp, commitment, current, opening)
            for slot in slots:
                derived = slot_opening(pp, opening, slot, aux)
                assert derived == vc.open_slot(pp, slot, current[slot - 1], aux)
                assert vc.verify(pp, commitment, slot, current[slot - 1], derived)
            if step == len(updates):
                break
            slot, new_message = updates[step]
            expected = textbook_randomiser(
                pp,
                td,
                slot,
                vc.encode_message(current[slot - 1]),
                vc.encode_message(new_message),
                aux.randomiser,
            )
            # check=True recommits through the public path and raises
            # unless the commitment is preserved.
            aux = cvc.collide(
                commitment, slot, current[slot - 1], new_message, aux,
                check=True,
            )
            current[slot - 1] = new_message
            assert aux.randomiser == expected
            assert vc.commit(pp, current, aux.randomiser)[0] == commitment


class TestCRTFixedBase:
    def test_matches_builtin_pow(self, cvc_params):
        """Two secret half-width kernel calls and Garner's recombination
        give the full-width group element, for exponents of any size and
        sign; in builtin ``pow`` as well as in the kernel."""
        pp, td = cvc_params
        power = CRTFixedBase(pp.base, td.p, td.q)
        for fast in (True, False):
            with arithmetic(fast):
                for exponent in (
                    0, 1, 2, td.phi - 1, td.phi, td.phi + 1, 3**700, -1, -(5**300)
                ):
                    expected = pow(pp.base, exponent, pp.modulus)
                    assert power.pow(exponent) == expected, (fast, exponent)
                    if exponent >= 0:
                        assert modpow(pp.base, exponent, pp.modulus) == expected


class TestKernelSurface:
    def test_counts_one_opening_each(self, cvc):
        _, aux = cvc.commit([b"a", None, b"c"], 5)
        with obs.collect() as collector:
            cvc.open_vector(aux)
            cvc.open_vector(aux)
            snap = collector.metrics.snapshot()
        assert snap["vc.batch.openings"] == 2
        assert "vc.batch.dnc" not in snap
        assert "vc.batch.per_slot" not in snap

    def test_public_view_has_no_kernel(self, cvc):
        public = cvc.public_view()
        _, aux = cvc.commit([b"a", None, None], 5)
        with pytest.raises(TrapdoorRequiredError):
            public.open_vector(aux)
        with pytest.raises(TrapdoorRequiredError):
            public.collide(0, 1, b"a", b"b", aux)
        restored = pickle.loads(pickle.dumps(public))
        assert restored.pp == cvc.pp and not restored.has_trapdoor

    def test_slot_out_of_range(self, cvc):
        """The per-slot reference still names only real slots."""
        _, aux = cvc.commit([None, None, None], 5)
        for slot in (0, cvc.arity + 1):
            with pytest.raises(CommitmentError):
                vc.open_slot(cvc.pp, slot, None, aux)


class TestTrapdoorHygiene:
    def test_repr_hides_the_factors(self, cvc_params):
        _, td = cvc_params
        assert str(td.p) not in repr(td) and str(td.q) not in repr(td)

    def test_kernel_refuses_pickling_and_copying(self, cvc_params):
        pp, td = cvc_params
        kernel = vc.TrapdoorKernel(pp, td)
        for leak in (
            pickle.dumps,
            copy.copy,
            copy.deepcopy,
            lambda k: pickle.dumps(k, protocol=0),
        ):
            with pytest.raises(TrapdoorRequiredError):
                leak(kernel)
        assert str(td.p) not in repr(kernel) and str(td.q) not in repr(kernel)

    def test_trapdoor_holder_cannot_be_pickled(self, cvc):
        with pytest.raises(TrapdoorRequiredError):
            pickle.dumps(cvc)
