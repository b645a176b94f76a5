"""Every route to an opening gives the same group element.

An opening of a chameleon vector commitment is a *unique* group element
(slot exponents are coprime to the group order, so ``x -> x^e`` is a
bijection).  The data owner now makes one opening per commitment — the
whole vector's, ``Lambda = a^r`` — and each slot's opening follows from
it publicly (``L_i = Lambda^{E/e_i} * prod_{j != i} T_{j,i}^{z_j}``), so
however a slot's opening is reached — on its own through the per-slot
reference ``open_slot``, or from one whole-vector opening, before or
after trapdoor collisions, in the libcrypto kernel or in builtin
``pow`` — the bits must be identical.  These tests pin that invariant across arities and
randomisers; the class keeps the name it had while the data owner still
opened slot by slot.
"""


import pytest

from repro import obs
from repro.crypto import vc
from repro.crypto.numbers import multi_exp
from repro.errors import CommitmentError
from tests.reference_arithmetic import arithmetic


def messages_for(arity: int) -> list[bytes]:
    return [f"message-{index}".encode() for index in range(arity)]


@pytest.fixture(params=[2, 4, 8], scope="module")
def committed(request):
    """(pp, td, commitment, aux) at the parametrised arity."""
    arity = request.param
    pp, td = vc.shared_test_params(arity)
    c, aux = vc.commit(pp, messages_for(arity), randomiser=987654321)
    return pp, td, c, aux


def slot_openings(pp, aux, raw=None):
    """Reference openings straight from ``open_slot``.

    ``raw`` holds the slot messages as originally committed (``aux``
    stores only their encodings, and ``open_slot`` takes the raw form).
    """
    if raw is None:
        raw = messages_for(pp.arity)
    return {
        slot: vc.open_slot(pp, slot, raw[slot - 1], aux)
        for slot in range(1, pp.arity + 1)
    }


def derived_openings(pp, opening, aux, slots=None):
    """Slot openings derived publicly from one whole-vector opening.

    One multi-exponentiation per slot, in whichever arithmetic the
    caller's scope selects.
    """
    if slots is None:
        slots = range(1, pp.arity + 1)
    derived = {}
    for slot in slots:
        pairs = [(opening, pp.vector_exponent // pp.slot_exponent(slot))]
        for other, z in enumerate(aux.messages, start=1):
            if z and other != slot:
                pairs.append((pp.pair_base(other, slot), z))
        derived[slot] = multi_exp(pairs, pp.modulus)
    return derived


def open_per_slot(pp, td, aux):
    """Each slot on its own, through the public per-slot reference."""
    return slot_openings(pp, aux)


def open_batch(pp, td, aux):
    """One whole-vector opening from a fresh kernel; every slot from it."""
    return derived_openings(pp, vc.TrapdoorKernel(pp, td).open(aux), aux)


def open_auto(pp, td, aux):
    """The data owner's own route: its facade."""
    owner = vc.ChameleonVectorCommitment(pp.arity, _pp=pp, _td=td)
    return derived_openings(pp, owner.open_vector(aux), aux)


#: The routes to every slot's opening, under the strategy names the
#: per-slot opener once took.
ROUTES = {"auto": open_auto, "batch": open_batch, "per-slot": open_per_slot}


class TestOpenManyParity:
    @pytest.mark.parametrize("strategy", ["auto", "batch", "per-slot"])
    @pytest.mark.parametrize("fast", [True, False])
    def test_all_strategies_match_open_slot(self, committed, strategy, fast):
        pp, td, _c, aux = committed
        reference = slot_openings(pp, aux)
        with arithmetic(fast):
            openings = ROUTES[strategy](pp, td, aux)
        assert openings == reference

    def test_every_opening_verifies(self, committed):
        pp, td, c, aux = committed
        raw = messages_for(pp.arity)
        opening = vc.TrapdoorKernel(pp, td).open(aux)
        assert vc.verify_vector(pp, c, raw, opening)
        assert vc.verify_batch(pp, [(c, raw, opening), (c, raw, opening)])
        for slot, proof in derived_openings(pp, opening, aux).items():
            assert vc.verify(pp, c, slot, raw[slot - 1], proof)

    def test_subset_and_duplicate_slots(self, committed):
        pp, td, _c, aux = committed
        reference = slot_openings(pp, aux)
        opening = vc.TrapdoorKernel(pp, td).open(aux)
        openings = derived_openings(pp, opening, aux, slots=[2, 1, 2, 1])
        assert openings == {1: reference[1], 2: reference[2]}

    def test_parity_after_collisions(self, committed):
        """Openings from a collided aux still match — and still verify."""
        pp, td, c, aux = committed
        raw = messages_for(pp.arity)
        aux = vc.find_collision(pp, td, c, 1, raw[0], b"replacement", aux)
        aux = vc.find_collision(pp, td, c, 2, raw[1], b"again", aux)
        raw[0], raw[1] = b"replacement", b"again"
        reference = slot_openings(pp, aux, raw=raw)
        opening = vc.TrapdoorKernel(pp, td).open(aux)
        assert opening == pow(pp.base, aux.randomiser, pp.modulus)
        assert vc.verify_vector(pp, c, raw, opening)
        assert derived_openings(pp, opening, aux) == reference
        for slot, proof in reference.items():
            assert vc.verify(pp, c, slot, raw[slot - 1], proof)

    def test_parity_across_randomisers(self):
        pp, td = vc.shared_test_params(3)
        kernel = vc.TrapdoorKernel(pp, td)
        for randomiser in (0, 1, 2**64 - 1, 987654321):
            c, aux = vc.commit(pp, messages_for(3), randomiser=randomiser)
            opening = kernel.open(aux)
            assert vc.verify_vector(pp, c, messages_for(3), opening)
            assert derived_openings(pp, opening, aux) == slot_openings(
                pp, aux
            )

    def test_out_of_range_slot_rejected(self, committed):
        pp, td, c, aux = committed
        raw = messages_for(pp.arity)
        for slot in (0, pp.arity + 1):
            with pytest.raises(CommitmentError):
                vc.open_slot(pp, slot, None, aux)
            with pytest.raises(CommitmentError):
                vc.find_collision(pp, td, c, slot, None, b"x", aux)
            assert not vc.verify(pp, c, slot, None, 1)
        # A whole-vector statement names every slot: one message short or
        # one too many is refused before any arithmetic.
        opening = vc.TrapdoorKernel(pp, td).open(aux)
        assert not vc.verify_vector(pp, c, raw[:-1], opening)
        assert not vc.verify_vector(pp, c, raw + [None], opening)

    def test_facade_methods_delegate(self, committed):
        pp, td, c, aux = committed
        cvc = vc.ChameleonVectorCommitment(pp.arity, _pp=pp, _td=td)
        kernel = vc.TrapdoorKernel(pp, td)
        raw = messages_for(pp.arity)
        assert cvc.commit(raw, aux.randomiser) == vc.commit(
            pp, raw, aux.randomiser
        )
        assert cvc.open_vector(aux) == kernel.open(aux)
        collided = cvc.collide(c, 1, raw[0], b"replacement", aux)
        assert collided == kernel.collide(c, 1, raw[0], b"replacement", aux)
        assert collided == vc.find_collision(
            pp, td, c, 1, raw[0], b"replacement", aux
        )

    def test_counters_emitted(self, committed):
        pp, td, c, aux = committed
        raw = messages_for(pp.arity)
        kernel = vc.TrapdoorKernel(pp, td)
        with obs.collect() as col:
            openings = [kernel.open(aux) for _ in range(2)]
            vc.verify_batch(pp, [(c, raw, opening) for opening in openings])
            snap = col.metrics.snapshot()
        assert snap["vc.batch.openings"] == 2  # one per whole-vector opening
        assert snap["vc.verify.batches"] == 1
        assert snap["vc.verify.batched_openings"] == 2
        assert "vc.batch.dnc" not in snap
        assert "vc.batch.per_slot" not in snap
