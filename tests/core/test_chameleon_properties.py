"""Property-based tests for the Chameleon tree.

Model: a sorted list of inserted IDs.  For any insertion sequence, every
node table must authenticate, boundary lookups must match the model, and
position adjacency must mirror rank adjacency; and for any arity in
{2, 3, 4}, any ``cnt`` and any set of read positions, the table over
them round-trips through the codec, authenticates to exactly the read
entries, the client's view of it answers exactly the probes the set can
answer, removing or reordering any row is rejected, the SP's one-pass
short table is the cold table cut short, and the batched
check of its whole-vector openings agrees with checking them one by one
— on the honest statements and with any one of them made wrong.
"""

import bisect
import random
from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.chameleon import ChameleonTreeDO, ChameleonTreeSP, HeldNodeTable
from repro.core.chameleon_index import ChameleonProofSystem, ChameleonView
from repro.core.query.codec import VOCodec
from repro.core.query.vo import QueryVO
from repro.crypto import vc
from repro.crypto.hashing import sha3
from repro.crypto.prf import generate_key
from repro.errors import VerificationError
from tests.node_tables import plain_check, rows_of, table_of
from tests.reference_codec import ReferenceVOCodec

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
    whole = sp.multiproof(everything)
    positions, leaves = whole.authenticate(
        plain_check(pp, whole), do.root_commitment, sp.count
    )
    assert positions == list(everything)
    assert [key for key, _ in leaves] == ids
    for pos in everything:
        table = sp.multiproof((pos,))
        assert table.authenticate(
            plain_check(pp, table), do.root_commitment, sp.count
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


#: One 40-entry tree per arity, and the SP's copy after every insertion:
#: an opening covers its node's filled child slots, so the tree at
#: ``cnt = size`` is the SP's state after ``size`` insertions, not a
#: prefix of the final one.
_IDS = sorted(random.Random(40).sample(range(1, 500), 40))

ARITIES = (2, 3, 4)

_GROWN = {}


def grown(arity):
    """``(pp, c_0, blobs)``: ``blobs[size]`` is the SP's tree at ``cnt = size``."""
    if arity not in _GROWN:
        pp, td = vc.shared_test_params(arity + 1)
        cvc = vc.ChameleonVectorCommitment(arity + 1, _pp=pp, _td=td)
        do = ChameleonTreeDO(cvc, _KEY, f"kw{arity}", arity=arity)
        sp = ChameleonTreeSP(do.root_commitment, arity=arity, value_bytes=64)
        blobs = [None]
        for object_id in _IDS:
            sp.apply_insertion(do.insert(object_id, sha3(b"%d" % object_id)))
            blobs.append(sp.to_blob())
        _GROWN[arity] = (pp, do.root_commitment, blobs)
    return _GROWN[arity]


def recorded(table, root, count):
    """Every node statement of an honest table, as ``authenticate`` builds them."""
    statements = []

    def record(_position, node, children):
        statements.append(table.statement(node, children))
        return True

    table.authenticate(record, root, count)
    return statements


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    arity=st.sampled_from(ARITIES),
    size=st.integers(1, len(_IDS)),
    data=st.data(),
)
def test_tables_over_random_position_subsets(arity, size, data):
    shown = sorted(
        data.draw(st.sets(st.integers(1, size), min_size=1, max_size=12))
    )
    ids = _IDS[:size]
    pp, root, blobs = grown(arity)
    sp = ChameleonTreeSP.from_blob(blobs[size])
    table = sp.multiproof(tuple(shown))
    codec = VOCodec(value_bytes=64)
    payload = codec.encode(QueryVO(conjuncts=(), multiproofs=(table,)))
    assert codec.decode(payload).multiproofs == (table,)
    assert table.authenticate(plain_check(pp, table), root, size) == (
        shown,
        [(ids[p - 1], sha3(b"%d" % ids[p - 1])) for p in shown],
    )
    ps = ChameleonProofSystem(
        pp=pp,
        digests={"kw": (root, size)},
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


def _spoil(statement, how, pp):
    commitment, messages, opening = statement
    n = pp.modulus
    if how == "opening":
        return commitment, messages, opening ^ 1
    if how == "negated opening":
        return commitment, messages, n - opening
    if how == "commitment":
        return commitment ^ 1, messages, opening
    if how == "slot 1":
        return commitment, [sha3(b"forged")] + list(messages[1:]), opening
    # "child": a filled child slot emptied, or an empty one filled.
    messages = list(messages)
    messages[-1] = None if messages[-1] is not None else commitment
    return commitment, messages, opening


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    arity=st.sampled_from(ARITIES),
    size=st.integers(1, len(_IDS)),
    data=st.data(),
)
def test_a_table_proven_short_is_the_cold_table_cut_short(arity, size, data):
    """The SP's one-pass short table has the rows the reference writer
    cuts out of the cold table for the same held nodes; it is the cold
    table when no node of it is held, and carries the cold table beside
    it exactly when the cold table's size is one held whole."""
    shown = tuple(
        sorted(data.draw(st.sets(st.integers(1, size), min_size=1, max_size=12)))
    )
    held = data.draw(st.sets(st.integers(0, size + 3), max_size=size + 4))
    mask = sum(1 << position for position in held)
    bitmap = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    sp = ChameleonTreeSP.from_blob(grown(arity)[2][size])
    cold = sp.multiproof(shown)
    rows = ReferenceVOCodec(cold.value_bytes).short_rows(cold, held)
    table = sp.multiproof(shown, bitmap)
    if rows is None:
        assert table == cold
        return
    assert isinstance(table, HeldNodeTable)
    assert (table.body, table.count, table.cold) == (rows, cold.count, None)
    size = cold.byte_size()
    assert sp.multiproof(shown, bitmap, frozenset({size})) == HeldNodeTable(
        cold.arity, cold.value_bytes, cold.count, rows, cold=cold
    )
    assert sp.multiproof(shown, bitmap, frozenset({size - 1, size + 1})) == table


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    arity=st.sampled_from(ARITIES),
    size=st.integers(1, len(_IDS)),
    data=st.data(),
)
def test_batch_agrees_with_per_statement_checks(arity, size, data):
    shown = sorted(
        data.draw(st.sets(st.integers(1, size), min_size=1, max_size=8))
    )
    pp, root, blobs = grown(arity)
    table = ChameleonTreeSP.from_blob(blobs[size]).multiproof(tuple(shown))
    statements = recorded(table, root, size)
    assert all(vc.verify_vector(pp, *statement) for statement in statements)
    assert vc.verify_batch(pp, statements)
    victim = data.draw(st.integers(0, len(statements) - 1))
    how = data.draw(
        st.sampled_from(
            ["opening", "negated opening", "commitment", "slot 1", "child"]
        )
    )
    spoiled = list(statements)
    spoiled[victim] = _spoil(statements[victim], how, pp)
    verdicts = [vc.verify_vector(pp, *statement) for statement in spoiled]
    assert verdicts.count(False) == 1 and not verdicts[victim]
    assert not vc.verify_batch(pp, spoiled)
