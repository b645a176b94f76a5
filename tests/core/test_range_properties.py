"""Property-based tests for authenticated range queries."""

import dataclasses

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.mbtree import MBTree
from repro.core.range_queries import range_query, verify_range
from repro.crypto.hashing import sha3
from repro.errors import VerificationError

key_sets = st.sets(st.integers(0, 500), min_size=0, max_size=60)


def build(keys) -> MBTree:
    tree = MBTree(fanout=4)
    for key in sorted(keys):
        tree.insert(key, sha3(b"%d" % key))
    return tree


@settings(max_examples=40, deadline=None)
@given(keys=key_sets, lo=st.integers(-10, 510), span=st.integers(0, 200))
def test_range_query_matches_model_and_verifies(keys, lo, span):
    hi = lo + span
    tree = build(keys)
    entries, vo = range_query(tree, lo, hi)
    expected = sorted(k for k in keys if lo <= k <= hi)
    assert [e.key for e in entries] == expected
    verified = verify_range(tree.root_hash, vo)
    assert [e.key for e in verified] == expected


# -- forgeries: tables that fold to the root but show the wrong entries ----------


@st.composite
def ranges_over_keys(draw, min_inside=1):
    """A key set and a range around ``min_inside`` or more of its keys,
    its ends anywhere in the gaps next to them."""
    keys = sorted(draw(st.sets(st.integers(0, 300), min_size=min_inside, max_size=60)))
    first = draw(st.integers(0, len(keys) - min_inside))
    last = draw(st.integers(first + min_inside - 1, len(keys) - 1))
    lo = keys[first] - draw(st.integers(0, 3))
    hi = keys[last] + draw(st.integers(0, 3))
    return keys, lo, hi


def reproven(tree, vo, keys):
    """``vo`` with its table re-proven over ``keys`` (honest digests)."""
    return dataclasses.replace(vo, table=tree.multiproof(sorted(keys)))


def refused(tree, vo) -> None:
    with pytest.raises(VerificationError):
        verify_range(tree.root_hash, vo)


@settings(max_examples=40, deadline=None)
@given(case=ranges_over_keys(min_inside=3), data=st.data())
def test_dropping_an_interior_result_is_refused(case, data):
    keys, lo, hi = case
    tree = build(keys)
    entries, vo = range_query(tree, lo, hi)
    dropped = data.draw(st.sampled_from([e.key for e in entries[1:-1]]))
    shown = [key for key, _ in vo.table.leaves]
    refused(tree, reproven(tree, vo, [k for k in shown if k != dropped]))


@settings(max_examples=40, deadline=None)
@given(case=ranges_over_keys(), data=st.data())
def test_dropping_a_boundary_is_refused(case, data):
    keys, lo, hi = case
    tree = build(keys)
    _, vo = range_query(tree, lo, hi)
    outside = [key for key, _ in vo.table.leaves if not lo <= key <= hi]
    assume(outside)
    dropped = data.draw(st.sampled_from(outside))
    remaining = [key for key, _ in vo.table.leaves if key != dropped]
    assume(remaining)
    refused(tree, reproven(tree, vo, remaining))


@settings(max_examples=40, deadline=None)
@given(case=ranges_over_keys(), data=st.data())
def test_a_non_adjacent_boundary_is_refused(case, data):
    """Swap a boundary for an entry further out: both fold to the root,
    but the true boundary between them is hidden."""
    keys, lo, hi = case
    tree = build(keys)
    _, vo = range_query(tree, lo, hi)
    shown = [key for key, _ in vo.table.leaves]
    ordered = sorted(keys)
    swaps = []
    if shown[0] < lo:
        swaps += [(shown[0], k) for k in ordered if k < shown[0]]
    if shown[-1] > hi:
        swaps += [(shown[-1], k) for k in ordered if k > shown[-1]]
    assume(swaps)
    boundary, further = data.draw(st.sampled_from(swaps))
    forged = [further if k == boundary else k for k in shown]
    refused(tree, reproven(tree, vo, forged))


@settings(max_examples=40, deadline=None)
@given(case=ranges_over_keys(), shift=st.integers(-40, 40))
def test_a_shifted_range_is_refused(case, shift):
    """A VO relabelled with another range verifies only if it shows
    exactly that range's entries and neighbours — i.e. only if the two
    ranges have the same answer and the same neighbours."""
    keys, lo, hi = case
    tree = build(keys)
    _, vo = range_query(tree, lo, hi)
    _, honest = range_query(tree, lo + shift, hi + shift)
    assume(honest.table != vo.table)
    refused(tree, dataclasses.replace(vo, lo=lo + shift, hi=hi + shift))
