"""Property-based tests for the Chameleon tree.

Model: a sorted list of inserted IDs.  For any insertion sequence, every
node table must authenticate, boundary lookups must match the model, and
position adjacency must mirror rank adjacency; and for any arity and any
subset of positions, the table over it verifies, the client's view of it
answers exactly the probes the subset can answer, and removing or
reordering any row is rejected.
"""

import bisect
import random
from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.chameleon import ChameleonTreeDO, ChameleonTreeSP
from repro.core.chameleon_index import ChameleonProofSystem, ChameleonView
from repro.crypto import vc
from repro.crypto.hashing import sha3
from repro.crypto.prf import generate_key
from repro.errors import VerificationError
from tests.node_tables import plain_check, rows_of, table_of

_KEY = generate_key(seed=77)

id_lists = st.lists(
    st.integers(1, 10_000), min_size=1, max_size=18, unique=True
).map(sorted)

_BUILT = {}


def build(ids, keyword="prop", arity=2):
    """DO + SP trees over ``ids`` (memoised: insertion is RSA arithmetic)."""
    key = (tuple(ids), keyword, arity)
    if key not in _BUILT:
        pp, td = vc.shared_test_params(arity + 1)
        cvc = vc.ChameleonVectorCommitment(arity + 1, _pp=pp, _td=td)
        do = ChameleonTreeDO(cvc, _KEY, keyword, arity=arity)
        sp = ChameleonTreeSP(do.root_commitment, arity=arity, value_bytes=64)
        for object_id in ids:
            sp.apply_insertion(do.insert(object_id, sha3(b"%d" % object_id)))
        _BUILT[key] = (pp, do, sp)
    return _BUILT[key]


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ids=id_lists)
def test_all_memberships_verify(ids):
    pp, do, sp = build(ids)
    everything = tuple(range(1, len(ids) + 1))
    positions, leaves = sp.multiproof(everything).authenticate(
        plain_check(pp), do.root_commitment, sp.count
    )
    assert positions == list(everything)
    assert [key for key, _ in leaves] == ids
    for pos in everything:
        assert sp.multiproof((pos,)).authenticate(
            plain_check(pp), do.root_commitment, sp.count
        )[0] == [pos]


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ids=id_lists, target=st.integers(0, 10_001))
def test_boundaries_match_sorted_model(ids, target):
    _, _, sp = build(ids)
    view = ChameleonView("prop", sp)
    lower, upper = view.boundaries(target)
    idx = bisect.bisect_right(ids, target)
    assert lower == (ids[idx - 1] if idx > 0 else None)
    assert upper == (ids[idx] if idx < len(ids) else None)
    assert view.positions == [p for p in (idx, idx + 1) if 1 <= p <= len(ids)]


def brute_boundaries(ids, shown, count, target):
    """What positions ``shown`` (1-based) can say about ``target``, or None."""
    idx = bisect.bisect_right(ids, target)
    if idx and idx not in shown:
        return None
    if idx < count and idx + 1 not in shown:
        return None
    return (ids[idx - 1] if idx else None, ids[idx] if idx < count else None)


#: One 40-entry tree per arity.  Node commitments never change, so its
#: first ``size`` positions under ``cnt = size`` are the tree as it was
#: after ``size`` insertions: every prefix is a tree size to test.
_IDS = sorted(random.Random(40).sample(range(1, 500), 40))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    arity=st.sampled_from([2, 3, 16]),
    size=st.integers(1, len(_IDS)),
    data=st.data(),
)
def test_tables_over_random_position_subsets(arity, size, data):
    shown = sorted(
        data.draw(st.sets(st.integers(1, size), min_size=1, max_size=12))
    )
    ids = _IDS[:size]
    pp, do, sp = build(_IDS, f"kw{arity}", arity)
    table = sp.multiproof(tuple(shown))
    ps = ChameleonProofSystem(
        pp=pp,
        digests={"kw": (do.root_commitment, size)},
        arity=arity,
        value_bytes=64,
    )
    ps.attach_multiproofs((table,))
    probes = [0, *ids, *(i + 1 for i in ids), 501]
    # A shown row is read by some probe iff a neighbour is shown too (or
    # it is the tree's first or last); the scope's exit refuses the
    # table exactly when one is not.
    unread = [
        p for p in shown if not ({p - 1, p + 1} & set(shown) or p in (1, size))
    ]
    exit_ = (
        pytest.raises(VerificationError, match="no probe reads")
        if unread
        else nullcontext()
    )
    with exit_, ps.settling():
        run = ps.proven_run("kw", 0)
        assert run.keys == [ids[p - 1] for p in shown]
        for target in probes:
            want = brute_boundaries(ids, set(shown), size, target)
            if want is None:
                with pytest.raises(VerificationError):
                    run.boundaries(target)
            else:
                assert run.boundaries(target) == want
    rows = rows_of(table)
    mutants = [rows[:i] + rows[i + 1 :] for i in range(len(rows))]
    mutants += [
        rows[:i] + [rows[i + 1], rows[i]] + rows[i + 2 :]
        for i in range(len(rows) - 1)
    ]
    for mutant in mutants:
        if not mutant:
            continue
        ps.attach_multiproofs((table_of(mutant, table),))
        with pytest.raises(VerificationError):
            with ps.settling():
                # Whatever the honest walk would have read.
                run = ps.proven_run("kw", 0)
                for position in shown:
                    run.boundaries(ids[position - 1])
